package linesearch_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"linesearch"
	"linesearch/internal/service"
)

// planWire is a /v1/plan answer's shape as a struct encoding/json
// renders, the shape the service's own appender must write.
type planWire struct {
	N                int                  `json:"n"`
	F                int                  `json:"f"`
	Strategy         string               `json:"strategy"`
	MinDist          float64              `json:"mindist"`
	Model            string               `json:"model,omitempty"`
	Votes            int                  `json:"votes,omitempty"`
	DetectionRank    int                  `json:"detection_rank,omitempty"`
	Regime           string               `json:"regime"`
	CompetitiveRatio float64              `json:"competitive_ratio"`
	UpperBound       *float64             `json:"upper_bound"`
	LowerBound       *float64             `json:"lower_bound"`
	Beta             *float64             `json:"beta,omitempty"`
	Expansion        *float64             `json:"expansion,omitempty"`
	Horizon          float64              `json:"horizon"`
	TurningPoints    [][]linesearch.Point `json:"turning_points"`
}

// maxPlanPoints is the service's per-robot cut of a plan answer.
const maxPlanPoints = 256

// planStrategies are the strategy names FuzzPlanBody draws from; cone
// and uniform take the fuzzed slope.
var planStrategies = []string{"", "proportional", "doubling", "twogroup", "pfaulty", "byzantine", "byzantine:doubling", "cone:", "uniform:"}

// samePoints reports whether two point lists are identical bit for bit.
func samePoints(a, b []linesearch.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].T) != math.Float64bits(b[i].T) || math.Float64bits(a[i].X) != math.Float64bits(b[i].X) {
			return false
		}
	}
	return true
}

// finiteOrNil is the service's encoding of a bound: nil when not
// finite.
func finiteOrNil(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// FuzzPlanBody checks a plan answer against the segment walk over the
// plan's sim trajectories. Over strategy (cone and uniform at a fuzzed
// slope), n, f, the fault model, mindist and horizon (0 for the
// default), every robot's kernel walk must equal the segment walk bit
// for bit, in full through TurningPoints and cut at 256 points through
// WalkTurningPoints. The /v1/plan answer, on a miss and on a hit, must
// then be json.Marshal's encoding of the struct holding the cut
// points, or fail exactly where json.Marshal fails: a 500, or the 400
// a default-horizon hit has always answered an encoding error with. A
// default horizon that overflows is refused with a 400.
// Uniform plans on slopes over 1000 are skipped, so every input stays
// cheap.
func FuzzPlanBody(f *testing.F) {
	for _, s := range []struct {
		kind          uint8
		beta          float64
		n, f, model   uint8
		mindist, hrzn float64
	}{
		{0, 0, 3, 1, 0, 1, 0},
		{0, 0, 7, 3, 0, 1, 100000},
		{0, 0, 5, 2, 0, 1e-7, 0},
		{0, 0, 3, 1, 0, 1e307, 0},
		{0, 0, 5, 1, 1, 1, 30},
		{2, 0, 4, 1, 0, 1, 0},
		{3, 0, 6, 1, 0, 1, 0},
		{4, 0, 5, 2, 0, 1, 0},
		{6, 0, 5, 1, 0, 0.5, 7.25},
		{7, 2.5, 5, 2, 0, 1, 0},
		{7, 100, 2, 1, 0, 1, 100000},
		{7, 100000, 5, 2, 0, 0.37, 37000},
		{7, 1.000001, 2, 1, 0, 1e300, 1e305},
		{7, 1.0001, 3, 1, 0, 1e300, 1e305},
		{8, 1.5, 7, 3, 0, 1, 0},
		// A minimal distance whose default CR range, 1e4*mindist,
		// overflows: the search is refused instead of running for minutes.
		{4, 57, 12, 3, 1, 7e307, 39},
	} {
		f.Add(s.kind, s.beta, s.n, s.f, s.model, s.mindist, s.hrzn)
	}
	f.Fuzz(func(t *testing.T, kind uint8, beta float64, nb, fb, model uint8, mindist, horizon float64) {
		// A service of its own, so pass 1 is a miss even when an earlier
		// input (another beta of a strategy without one) cached the key.
		h := service.New(service.Config{CacheSize: 8, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}).Handler()
		name := planStrategies[int(kind)%len(planStrategies)]
		if strings.HasSuffix(name, ":") {
			name += strconv.FormatFloat(beta, 'g', -1, 64)
		}
		n := max(int(nb)%17, 1)
		fc := int(fb) % (n + 1)
		if !(mindist > 0) || math.IsInf(mindist, 0) || !(horizon >= 0) || horizon > 1e5*mindist {
			t.Skip("outside the service's domain")
		}
		if strings.HasPrefix(name, "uniform:") && beta > 1000 {
			// Such a plan's ratio is measured, not closed-form, and
			// takes seconds on a near-flat cone.
			t.Skip("plan too expensive for a fuzz input")
		}
		v := url.Values{"n": {strconv.Itoa(n)}, "f": {strconv.Itoa(fc)},
			"mindist": {strconv.FormatFloat(mindist, 'g', -1, 64)}}
		opts := []linesearch.Option{linesearch.WithMinDistance(mindist)}
		if name != "" {
			v.Set("strategy", name)
			opts = append(opts, linesearch.WithStrategy(name))
		}
		if model%2 == 1 {
			v.Set("model", "byzantine")
			opts = append(opts, linesearch.WithFaultModel("byzantine"))
		}
		if horizon != 0 {
			v.Set("horizon", strconv.FormatFloat(horizon, 'g', -1, 64))
		}
		target := "/v1/plan?" + v.Encode()
		get := func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			return w
		}

		s, err := linesearch.NewSearcher(n, fc, opts...)
		if err != nil {
			if w := get(); w.Code != http.StatusBadRequest {
				t.Fatalf("%s: NewSearcher fails (%v), the service answers %d %s", target, err, w.Code, w.Body)
			}
			return
		}
		// The service's plan, as its builder derives it: the ratio
		// first, then the turning points.
		cr, ok := s.ExpectedCompetitiveRatio()
		var crErr error
		if !ok {
			cr, crErr = s.CompetitiveRatio()
		}
		noRatio := func() {
			if w := get(); w.Code != http.StatusBadRequest {
				t.Fatalf("%s: no ratio (%v, cr %v), the service answers %d %s", target, crErr, cr, w.Code, w.Body)
			}
		}
		ratioFails := crErr != nil || math.IsNaN(cr) || math.IsInf(cr, 0)
		tmax := horizon
		if tmax == 0 {
			tmax = 50 * mindist
		}
		got, err := s.TurningPoints(tmax)
		if err != nil {
			if ratioFails {
				noRatio()
				return
			}
			// 50*mindist overflowed: the service refuses the plan with
			// TurningPoints' error, a 400 on the miss and on the hit.
			wantErr := fmt.Sprintf("{\"error\":%q}", err.Error())
			for pass := 1; pass <= 2; pass++ {
				if w := get(); w.Code != http.StatusBadRequest || strings.TrimSpace(w.Body.String()) != wantErr {
					t.Fatalf("%s pass %d: TurningPoints fails (%v), the service answers %d %s", target, pass, err, w.Code, w.Body)
				}
			}
			return
		}
		oracle := s.SimTurningPoints(tmax)
		for i := range oracle {
			if !samePoints(got[i], oracle[i]) {
				t.Fatalf("%s: robot %d's TurningPoints differ from the segment walk:\n got %v\nwant %v", target, i, got[i], oracle[i])
			}
			oracle[i] = oracle[i][:min(len(oracle[i]), maxPlanPoints)]
			var cut []linesearch.Point
			if err := s.WalkTurningPoints(i, tmax, maxPlanPoints, func(p linesearch.Point) bool {
				cut = append(cut, p)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if !samePoints(cut, oracle[i]) {
				t.Fatalf("%s: robot %d's walk cut at %d differs from the segment walk:\n got %v\nwant %v", target, i, maxPlanPoints, cut, oracle[i])
			}
		}

		if ratioFails {
			noRatio()
			return
		}
		boundsF := fc
		if s.FaultModel() == "byzantine" {
			boundsF = s.DetectionRank() - 1
		}
		bounds, boundsErr := linesearch.Bounds(n, boundsF)
		if boundsErr != nil {
			if w := get(); w.Code != http.StatusBadRequest {
				t.Fatalf("%s: no plan answer (%v), the service answers %d %s", target, boundsErr, w.Code, w.Body)
			}
			return
		}
		res := planWire{
			N: n, F: fc, Strategy: s.Strategy(), MinDist: mindist, Regime: bounds.Regime,
			CompetitiveRatio: cr, UpperBound: finiteOrNil(bounds.Upper), LowerBound: finiteOrNil(bounds.Lower),
			Beta: finiteOrNil(bounds.Beta), Expansion: finiteOrNil(bounds.Expansion),
			Horizon: tmax, TurningPoints: oracle,
		}
		if m := s.FaultModel(); m != "crash" {
			res.Model, res.DetectionRank = m, s.DetectionRank()
			if m == "byzantine" {
				res.Votes = s.Votes()
			}
		}
		want, marshalErr := json.Marshal(res)
		for pass := 1; pass <= 2; pass++ {
			w := get()
			switch {
			case marshalErr == nil:
				if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), append(want, '\n')) {
					t.Fatalf("%s pass %d: %d\n got %s\nwant %s", target, pass, w.Code, w.Body, want)
				}
			case pass == 2 && tmax == 50*mindist:
				wantErr := fmt.Sprintf("{\"error\":%q}", marshalErr.Error())
				if w.Code != http.StatusBadRequest || strings.TrimSpace(w.Body.String()) != wantErr {
					t.Fatalf("%s pass %d: json.Marshal fails (%v), the service answers %d %s", target, pass, marshalErr, w.Code, w.Body)
				}
			default:
				if w.Code != http.StatusInternalServerError {
					t.Fatalf("%s pass %d: json.Marshal fails (%v), the service answers %d %s", target, pass, marshalErr, w.Code, w.Body)
				}
			}
		}
	})
}
