package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Prometheus text exposition format
// version both daemons serve on /metrics under content negotiation.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WantsPrometheus decides the /metrics representation: the explicit
// ?format= override wins, otherwise any Accept header asking for
// text/plain or OpenMetrics (what a Prometheus scraper sends) selects
// the text exposition; the default stays JSON. One rule for routers
// and backends, so one scrape config covers the whole fleet.
func WantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := strings.ToLower(r.Header.Get("Accept"))
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// fmtFloat renders a sample value; integral floats print without an
// exponent so the output diffs cleanly.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromWriter renders one text exposition document. Callers write
// families in a fixed order and label values in a stable order, so
// equal snapshots produce byte-equal output (golden-tested on both
// daemons). The first write error sticks and is reported by Err.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Family emits the HELP/TYPE header of a metric family.
func (p *PromWriter) Family(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample line. labels come as alternating key, value
// pairs, already ordered; values are escaped here.
func (p *PromWriter) Sample(name, value string, labels ...string) {
	if len(labels) == 0 {
		p.printf("%s %s\n", name, value)
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	p.printf("%s %s\n", b.String(), value)
}

// Int emits one integer-valued sample.
func (p *PromWriter) Int(name string, v int64, labels ...string) {
	p.Sample(name, strconv.FormatInt(v, 10), labels...)
}

// Float emits one float-valued sample.
func (p *PromWriter) Float(name string, v float64, labels ...string) {
	p.Sample(name, fmtFloat(v), labels...)
}

// IntsByLabel emits one sample per map entry in sorted key order, the
// key as the value of label. labels, when given, come first on every
// sample.
func (p *PromWriter) IntsByLabel(name, label string, m map[string]int64, labels ...string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.Int(name, m[k], append(labels[:len(labels):len(labels)], label, k)...)
	}
}

// Histogram emits one histogram series from a snapshot's cumulative
// buckets, sum and count. labels apply to every sample of the series;
// the finite bounds are ordered numerically and "+Inf" closes it.
func (p *PromWriter) Histogram(name string, h HistogramSnapshot, labels ...string) {
	bounds := make([]string, 0, len(h.Buckets))
	for ub := range h.Buckets {
		if ub != "+Inf" {
			bounds = append(bounds, ub)
		}
	}
	sort.Slice(bounds, func(i, j int) bool {
		a, _ := strconv.ParseFloat(bounds[i], 64)
		b, _ := strconv.ParseFloat(bounds[j], 64)
		return a < b
	})
	bounds = append(bounds, "+Inf")
	for _, ub := range bounds {
		p.Int(name+"_bucket", h.Buckets[ub], append(labels[:len(labels):len(labels)], "le", ub)...)
	}
	p.Float(name+"_sum", h.Sum, labels...)
	p.Int(name+"_count", h.Count, labels...)
}
