package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestParseBucketLineHardened pins the parser against the exposition
// variants a scrape we do not control can produce: OpenMetrics
// exemplars, trailing timestamps, float-rendered counters, and label
// values containing braces or escaped quotes. The value must always be
// the first token after the label set — a LastIndex-style scan grabs
// the exemplar's timestamp instead.
func TestParseBucketLineHardened(t *testing.T) {
	cases := []struct {
		name  string
		line  string
		le    float64
		count int64
		ok    bool
	}{
		{
			name: "plain",
			line: `m_bucket{le="0.005"} 42`,
			le:   0.005, count: 42, ok: true,
		},
		{
			name: "inf bound",
			line: `m_bucket{le="+Inf"} 100`,
			le:   math.Inf(1), count: 100, ok: true,
		},
		{
			name: "exemplar annotation",
			line: `m_bucket{le="0.1"} 42 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.094 1700000000.5`,
			le:   0.1, count: 42, ok: true,
		},
		{
			name: "trailing timestamp",
			line: `m_bucket{le="0.25"} 7 1700000000123`,
			le:   0.25, count: 7, ok: true,
		},
		{
			name: "float-rendered counter",
			line: `m_bucket{le="0.5"} 42.0`,
			le:   0.5, count: 42, ok: true,
		},
		{
			name: "scientific notation",
			line: `m_bucket{le="1"} 1e3`,
			le:   1, count: 1000, ok: true,
		},
		{
			name: "label value with closing brace",
			line: `m_bucket{path="/v1/{id}",le="0.01"} 5`,
			le:   0.01, count: 5, ok: true,
		},
		{
			name: "label value with escaped quote",
			line: `m_bucket{path="/odd\"name",le="0.02"} 3`,
			le:   0.02, count: 3, ok: true,
		},
		{name: "no le label", line: `m_bucket{endpoint="/x"} 5`, ok: false},
		{name: "unterminated le", line: `m_bucket{le="0.005 42`, ok: false},
		{name: "non-integer count", line: `m_bucket{le="0.005"} 4.2`, ok: false},
		{name: "NaN value", line: `m_bucket{le="0.005"} NaN`, ok: false},
		{name: "missing value", line: `m_bucket{le="0.005"}`, ok: false},
		{name: "unclosed label set", line: `m_bucket{le="0.005" 42`, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			le, count, ok := parseBucketLine(tc.line)
			if ok != tc.ok {
				t.Fatalf("ok = %v, want %v", ok, tc.ok)
			}
			if !ok {
				return
			}
			if le != tc.le && !(math.IsInf(tc.le, 1) && math.IsInf(le, 1)) {
				t.Errorf("le = %v, want %v", le, tc.le)
			}
			if count != tc.count {
				t.Errorf("count = %d, want %d", count, tc.count)
			}
		})
	}
}

// TestParseBucketsSkipsForeignFamilies feeds a mixed exposition — the
// families loadgen knows plus unknown ones, comments, exemplars and a
// malformed line — and requires the aggregation to only count the
// known family's well-formed samples.
func TestParseBucketsSkipsForeignFamilies(t *testing.T) {
	exposition := strings.Join([]string{
		`# HELP linesearchd_http_request_duration_seconds Request latency.`,
		`# TYPE linesearchd_http_request_duration_seconds histogram`,
		`some_other_histogram_bucket{le="0.005"} 999`,
		`linesearchd_http_request_duration_seconds_bucket{endpoint="/v1/plan",le="0.005"} 50 # {trace_id="abc"} 0.004`,
		`linesearchd_http_request_duration_seconds_bucket{endpoint="/v1/plan",le="+Inf"} 60 1700000000`,
		`linesearchd_http_request_duration_seconds_bucket{endpoint="/v1/plan",le="oops"} 1`,
		`go_gc_duration_seconds{quantile="0.5"} 0.0001`,
		`linesearchd_http_request_duration_seconds_sum{endpoint="/v1/plan"} 0.9`,
		``,
	}, "\n")
	buckets, err := parseBuckets(strings.NewReader(exposition), histogramFamilies)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("buckets = %+v, want exactly the two well-formed bounds", buckets)
	}
	if buckets[0].le != 0.005 || buckets[0].count != 50 {
		t.Errorf("first bucket = %+v", buckets[0])
	}
	if !math.IsInf(buckets[1].le, 1) || buckets[1].count != 60 {
		t.Errorf("inf bucket = %+v", buckets[1])
	}
}

// TestParseWindowGauges covers the -slo-gate read-back path against
// the same mixed-input hazards.
func TestParseWindowGauges(t *testing.T) {
	exposition := strings.Join([]string{
		`# TYPE linerouter_slo_error_burn_rate gauge`,
		`linerouter_slo_error_burn_rate{window="5m"} 0.5`,
		`linerouter_slo_error_burn_rate{window="1h"} 0.125 1700000000`,
		`linerouter_slo_latency_burn_rate{window="5m"} 2.5 # {trace_id="abc"} 0.3`,
		`linerouter_slo_latency_burn_rate{window="1h"} 1e-2`,
		`linerouter_slo_window_requests{window="5m"} 100`,
		`linerouter_slo_error_burn_rate{nowindow="x"} 9`,
		`unrelated_gauge{window="5m"} 7`,
		``,
	}, "\n")
	got, err := parseWindowGauges(strings.NewReader(exposition), sloBurnFamilies)
	if err != nil {
		t.Fatal(err)
	}
	errBurn := got["linerouter_slo_error_burn_rate"]
	latBurn := got["linerouter_slo_latency_burn_rate"]
	if errBurn["5m"] != 0.5 || errBurn["1h"] != 0.125 {
		t.Errorf("error burn = %v", errBurn)
	}
	if latBurn["5m"] != 2.5 || latBurn["1h"] != 0.01 {
		t.Errorf("latency burn = %v", latBurn)
	}
	if len(got) != 2 {
		t.Errorf("unexpected families parsed: %v", got)
	}
}

func TestSLOGate(t *testing.T) {
	burn := map[string]map[string]float64{
		"linerouter_slo_error_burn_rate":   {"5m": 0.4, "1h": 0.1},
		"linerouter_slo_latency_burn_rate": {"5m": 0.9, "1h": 0.2},
	}
	var out bytes.Buffer
	if err := sloGate(report{SLOBurn: burn}, 1.0, &out); err != nil {
		t.Fatalf("within-limit burn failed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "slo gate passed") {
		t.Errorf("no pass line printed: %q", out.String())
	}
	burn["linerouter_slo_latency_burn_rate"]["5m"] = 1.5
	if err := sloGate(report{SLOBurn: burn}, 1.0, &out); err == nil {
		t.Fatal("over-limit burn passed the gate")
	}
	if err := sloGate(report{}, 1.0, &out); err == nil {
		t.Fatal("gate passed against a target with no SLO gauges")
	}
	if err := sloGate(report{SLONote: "burn-rate read-back failed: boom"}, 1.0, &out); err == nil {
		t.Fatal("gate passed despite a failed read-back")
	}
}

// TestParseDaemonGoldens feeds both daemons' checked-in exposition
// goldens through loadgen's parsers, so the reader is pinned to what
// the shared writer actually emits: the summed request-latency buckets
// each golden encodes, and the router's 5m/1h burn gauges.
func TestParseDaemonGoldens(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		golden  string
		buckets []bucket
		burn    map[string]map[string]float64
	}{
		{
			// linesearchd_http_request_duration_seconds: /v1/plan plus
			// the escaped-name endpoint's {0.001: 1, +Inf: 1}.
			golden: "../../internal/service/testdata/metrics.prom",
			buckets: []bucket{
				{0.0001, 0}, {0.00025, 1}, {0.0005, 2}, {0.001, 5},
				{0.0025, 5}, {0.005, 6}, {0.01, 7}, {0.025, 7},
				{0.05, 7}, {0.1, 7}, {0.25, 7}, {0.5, 7},
				{1, 7}, {2.5, 7}, {5, 7}, {inf, 8},
			},
			burn: map[string]map[string]float64{},
		},
		{
			// linerouter_backend_request_duration_seconds: the healthy
			// backend plus the escaped-name one's {0.5: 0, 1: 1, 2.5: 3,
			// +Inf: 5}.
			golden: "../../internal/cluster/testdata/router_metrics.prom",
			buckets: []bucket{
				{0.0001, 0}, {0.00025, 2}, {0.0005, 9}, {0.001, 20},
				{0.0025, 31}, {0.005, 38}, {0.01, 40}, {0.025, 41},
				{0.05, 41}, {0.1, 41}, {0.25, 42}, {0.5, 42},
				{1, 43}, {2.5, 45}, {5, 42}, {inf, 47},
			},
			burn: map[string]map[string]float64{
				"linerouter_slo_error_burn_rate":   {"5m": 2.5, "1h": 100.0 / 47},
				"linerouter_slo_latency_burn_rate": {"5m": 5, "1h": 0},
			},
		},
	}
	for _, tc := range cases {
		t.Run(filepath.Base(tc.golden), func(t *testing.T) {
			data, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parseBuckets(bytes.NewReader(data), histogramFamilies)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.buckets) {
				t.Errorf("buckets:\n got %v\nwant %v", got, tc.buckets)
			}
			burn, err := parseWindowGauges(bytes.NewReader(data), sloBurnFamilies)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(burn, tc.burn) {
				t.Errorf("burn gauges = %v, want %v", burn, tc.burn)
			}
		})
	}
}
