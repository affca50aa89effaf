package service

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// encodeQuery renders a parsed query back into the URL parameters of
// its op: required parameters always, optional ones when they differ
// from parseQuery's defaults. Floats use the shortest exact form, so
// a parse of the encoding reproduces every bit.
func encodeQuery(q Query) url.Values {
	v := url.Values{}
	v.Set("n", strconv.Itoa(q.N))
	v.Set("f", strconv.Itoa(q.F))
	float := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	floats := func(xs []float64) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = float(x)
		}
		return strings.Join(parts, ",")
	}
	ints := func(is []int) string {
		parts := make([]string, len(is))
		for i, x := range is {
			parts[i] = strconv.Itoa(x)
		}
		return strings.Join(parts, ",")
	}
	set := func(name string, present bool, value string) {
		if present {
			v.Set(name, value)
		}
	}
	// A float differs from its default when its bits do, so -0 is kept.
	differs := func(x, def float64) bool { return math.Float64bits(x) != math.Float64bits(def) }
	set("strategy", q.Strategy != "", q.Strategy)
	set("mindist", differs(q.MinDist, 1), float(q.MinDist))
	set("x", differs(q.X, 0) || q.Op == OpSearchTime || q.Op == OpTimeline, float(q.X))
	set("xs", q.Xs.vals != nil, floats(q.Xs.vals))
	// A list too long to parse round-trips as its commas alone.
	set("xs", q.Xs.over > 0, strings.Repeat(",", max(q.Xs.over-1, 0)))
	set("k", q.K != 0, strconv.Itoa(q.K))
	set("faulty", q.Faulty != nil, ints(q.Faulty))
	set("tmax", differs(q.Tmax, 0), float(q.Tmax))
	set("horizon", differs(q.Horizon, 0), float(q.Horizon))
	set("model", q.Model != "", q.Model)
	set("votes", q.Votes != 0, strconv.Itoa(q.Votes))
	set("liars", q.Liars != nil, ints(q.Liars))
	set("objective", q.Objective != "", q.Objective)
	set("p", differs(q.P, 0), float(q.P))
	set("speeds", q.Speeds != nil, floats(q.Speeds))
	return v
}

// FuzzParseQuery feeds an arbitrary op and raw query string through
// the GET endpoints' parser. It must not panic; it either rejects with
// a 400 apiError or returns a Query that normalize handles without
// panicking and that survives a round trip through encodeQuery. A
// target list it keeps the echo text of must be exactly what
// json.Marshal writes for its values.
func FuzzParseQuery(f *testing.F) {
	for _, req := range goldenRequests {
		u, err := url.Parse(req.target)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.TrimPrefix(u.Path, "/v1/"), u.RawQuery)
	}
	f.Add(OpTimeline, "n=3&f=1&x=2&faulty=0,%202&liars=-1")
	f.Add(OpSearchTime, "n=3&f=1&x=NaN&speeds=Inf,1e308")
	f.Add(OpSearchTimes, "n=3&f=1&xs=-0,1e-320,0x1p-3")
	f.Add("nosuchop", "n=3&f=1")
	f.Fuzz(func(t *testing.T, op, raw string) {
		// The handlers read parameters as r.URL.Query() does, which
		// drops malformed pairs instead of failing.
		v := (&url.URL{RawQuery: raw}).Query()
		q, err := parseQuery(op, v, nil)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
				t.Fatalf("parseQuery(%q, %q) = %v, want a 400 apiError", op, raw, err)
			}
			return
		}
		normalized := q
		_ = normalized.normalize()
		if q.Xs.echo != "" {
			checkEcho(t, q.Xs)
		}

		back, err := parseQuery(op, encodeQuery(q), nil)
		if err != nil {
			t.Fatalf("re-encoded %+v (%s) is rejected: %v", q, encodeQuery(q).Encode(), err)
		}
		// %#v compares floats by their printed form, so NaN equals NaN
		// and -0 differs from 0. encodeQuery writes its own tokens, so
		// the echo text may differ; checkEcho pinned the original's.
		q.Xs.echo, back.Xs.echo = "", ""
		if got, want := fmt.Sprintf("%#v", back), fmt.Sprintf("%#v", q); got != want {
			t.Fatalf("round trip of %q changed the query:\n got %s\nwant %s", raw, got, want)
		}
	})
}

// TestParseQueryNamesFirstBadParameter parses queries with several
// unknown or repeated names, 100 times each: every parse names the
// first of them in sorted order, whatever order the map gives.
func TestParseQueryNamesFirstBadParameter(t *testing.T) {
	for _, tt := range []struct{ op, raw, want string }{
		{OpPlan, "n=3&f=1&aa=1&zz=2&x=1&x=2", `unknown parameter "aa" for plan`},
		{OpSearchTime, "n=3&f=1&zz=2&x=1&x=2&y=3", `parameter "x" given 2 times`},
		{OpLowerBound, "n=3&n=4&f=1&f=2&x=1", `parameter "f" given 2 times`},
	} {
		v, err := url.ParseQuery(tt.raw)
		if err != nil {
			t.Fatal(err)
		}
		for range 100 {
			if _, err := parseQuery(tt.op, v, nil); err == nil || err.Error() != tt.want {
				t.Fatalf("parseQuery(%s, %q) = %v, want %q", tt.op, tt.raw, err, tt.want)
			}
		}
	}
}
