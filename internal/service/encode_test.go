package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// TestResultAppendersMatchStructEncoding writes searchtime and
// lowerbound answers over pairs of awkward numbers, finite and not, and
// holds each to json.Marshal of its shape: the same bytes, or an error
// exactly where json.Marshal fails.
func TestResultAppendersMatchStructEncoding(t *testing.T) {
	ptr := func(v float64) *float64 {
		if !finite(v) {
			return nil
		}
		return &v
	}
	vals := []float64{0, math.Copysign(0, -1), 1.5, -2.25e-7, 1e21, 123456.789, math.Inf(1), math.Inf(-1), math.NaN()}
	check := func(v any, shape any) {
		t.Helper()
		var buf bytes.Buffer
		err := v.(jsonAppender).appendJSON(&buf)
		want, wantErr := json.Marshal(shape)
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%+v: wrote %s, %v; json.Marshal writes %s, %v", v, buf.Bytes(), err, want, wantErr)
		}
		if err != nil && (buf.Len() != 0 || err.Error() != wantErr.Error()) {
			t.Fatalf("%+v: failed with %q after writing %q; json.Marshal fails with %q", v, err, buf.Bytes(), wantErr)
		}
	}
	for i, v := range vals {
		for j, w := range vals {
			st := SearchTimeResult{N: 3, F: 1, Strategy: "a<b", X: v, K: 2, P: w, Time: v, Ratio: w, Detected: i < j}
			if i%2 == 0 {
				st.Model, st.DetectionRank, st.Objective = "byzantine", 3, "expected"
				st.Speeds = []float64{1, w}
			}
			check(st, searchTimeShape{N: st.N, F: st.F, Strategy: st.Strategy, Model: st.Model,
				DetectionRank: st.DetectionRank, X: st.X, K: st.K, Objective: st.Objective, P: st.P,
				Speeds: st.Speeds, Time: ptr(st.Time), Ratio: ptr(st.Ratio), Detected: st.Detected})
			lb := LowerBoundResult{N: 5, F: 2, Regime: fmt.Sprint(i), UpperBound: v, LowerBound: w, Beta: w, Expansion: v}
			check(lb, lowerBoundShape{N: lb.N, F: lb.F, Regime: lb.Regime, UpperBound: ptr(v), LowerBound: ptr(w),
				Beta: ptr(w), Expansion: ptr(v)})
		}
	}
}
