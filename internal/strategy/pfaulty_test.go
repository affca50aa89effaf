package strategy

import (
	"math"
	"strings"
	"testing"

	"linesearch/internal/fault"
	"linesearch/internal/trajectory"
)

func TestParsePFaultyRoundTrip(t *testing.T) {
	for _, name := range []string{"pfaulty", "pfaulty:0.3", "pfaulty:0.3:2.5", "pfaulty:0:4"} {
		s, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("Parse(%q).Name() = %q, does not round-trip", name, s.Name())
		}
		if _, err := Parse(s.Name()); err != nil {
			t.Errorf("re-Parse(%q): %v", s.Name(), err)
		}
	}
	s, err := Parse("pfaulty:0.25:3")
	if err != nil {
		t.Fatal(err)
	}
	ps, ok := s.(PFaultySearch)
	if !ok || ps.P != 0.25 || ps.Gamma != 3 {
		t.Errorf("Parse(pfaulty:0.25:3) = %#v", s)
	}
}

// TestParsePFaultyMalformed is the satellite malformed-input table for
// the new spec syntax: every rejection must name the offending value.
func TestParsePFaultyMalformed(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		wantErr []string
	}{
		{"empty p", "pfaulty:", []string{`invalid pfaulty miss probability ""`}},
		{"non-numeric p", "pfaulty:abc", []string{`invalid pfaulty miss probability "abc"`}},
		{"p at one", "pfaulty:1", []string{"miss probability must lie in [0, 1)", "got 1"}},
		{"p above one", "pfaulty:1.5", []string{"miss probability must lie in [0, 1)", "got 1.5"}},
		{"negative p", "pfaulty:-0.2", []string{"miss probability must lie in [0, 1)", "got -0.2"}},
		{"NaN p", "pfaulty:NaN", []string{"miss probability must lie in [0, 1)", "NaN"}},
		{"Inf p", "pfaulty:+Inf", []string{"miss probability must lie in [0, 1)", "+Inf"}},
		{"empty gamma", "pfaulty:0.5:", []string{`invalid pfaulty growth factor ""`}},
		{"non-numeric gamma", "pfaulty:0.5:xyz", []string{`invalid pfaulty growth factor "xyz"`}},
		{"gamma at one", "pfaulty:0.5:1", []string{"growth factor must be finite and exceed 1", "got 1"}},
		{"gamma below one", "pfaulty:0.5:0.5", []string{"growth factor must be finite and exceed 1", "got 0.5"}},
		{"NaN gamma", "pfaulty:0.5:NaN", []string{"growth factor must be finite and exceed 1", "NaN"}},
		{"Inf gamma", "pfaulty:0.5:+Inf", []string{"growth factor must be finite and exceed 1", "+Inf"}},
		{"extra field", "pfaulty:0.5:2:9", []string{"malformed pfaulty strategy", "pfaulty[:p[:gamma]]"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.input)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded", c.input)
			}
			for _, want := range c.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Parse(%q) error %q missing %q", c.input, err, want)
				}
			}
		})
	}
}

func TestPFaultyBuildSharedHalfLine(t *testing.T) {
	s := PFaultySearch{P: 0.5, Gamma: 2}
	trajs, err := s.Build(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trajs) != 3 {
		t.Fatalf("Build(3,1) returned %d trajectories", len(trajs))
	}
	for i, tr := range trajs {
		if tr != trajs[0] {
			t.Errorf("robot %d does not share the fleet trajectory", i)
		}
		if _, ok := tr.TailOf().(*trajectory.HalfZigZag); !ok {
			t.Errorf("robot %d tail is %T, want *trajectory.HalfZigZag", i, tr.TailOf())
		}
	}
	// Half-line: the left side is never visited.
	if _, ok := trajs[0].FirstVisit(-1); ok {
		t.Error("half-line sweep visits the left side")
	}
	if fv, ok := trajs[0].FirstVisit(1); !ok || fv != 1 {
		t.Errorf("first excursion reaches 1 at t=%v (ok=%v), want 1", fv, ok)
	}
}

func TestPFaultyBuildValidation(t *testing.T) {
	if _, err := (PFaultySearch{P: 0.5}).Build(0, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := (PFaultySearch{P: 0.5}).Build(2, 2); err == nil {
		t.Error("f=n accepted")
	}
	if _, err := (PFaultySearch{P: 0.5, Gamma: 0.5}).Build(2, 0); err == nil {
		t.Error("gamma=0.5 accepted")
	}
	if _, err := (PFaultySearch{P: 1.5}).Build(2, 0); err == nil {
		t.Error("p=1.5 accepted")
	}
}

func TestPFaultyFaultModel(t *testing.T) {
	s := PFaultySearch{P: 0.4}
	m := s.FaultModel(5, 2)
	if m.Kind != fault.ModelPFaulty || m.F != 2 || m.P != 0.4 {
		t.Errorf("FaultModel(5,2) = %+v", m)
	}
	if cr, ok := s.AnalyticCR(5, 2); ok {
		t.Errorf("AnalyticCR reported %g for an expected-time family", cr)
	}
	if got := s.EffectiveP(5, 2); math.Abs(got-0.4*0.4*0.4) > 1e-15 {
		t.Errorf("EffectiveP(5,2) = %g, want 0.4^3", got)
	}
}

func TestOptimalGamma(t *testing.T) {
	if g := OptimalGamma(0); g != 2 {
		t.Errorf("OptimalGamma(0) = %g, want 2", g)
	}
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		g := OptimalGamma(p)
		if !(g > 1) || p*p*g >= 1 {
			t.Fatalf("OptimalGamma(%g) = %g outside the convergent range (1, 1/p^2)", p, g)
		}
		// Local optimality: nudging gamma either way must not improve
		// the asymptotic expected ratio.
		base := AsymptoticExpectedRatio(g, p)
		for _, g2 := range []float64{g * 0.99, g * 1.01} {
			if r := AsymptoticExpectedRatio(g2, p); r < base-1e-9*base {
				t.Errorf("p=%g: ratio(%g)=%g beats claimed optimum ratio(%g)=%g", p, g2, r, g, base)
			}
		}
	}
	// Divergence boundary: growth at or beyond 1/p^2 has infinite ratio.
	if r := AsymptoticExpectedRatio(4.1, 0.5); !math.IsInf(r, 1) {
		t.Errorf("ratio(4.1, 0.5) = %g, want +Inf (R >= 1)", r)
	}
}

// TestPFaultyStrategyDefaultGamma checks that the parameter-free family
// member tunes its excursion growth to the fleet's collective coin.
func TestPFaultyStrategyDefaultGamma(t *testing.T) {
	st, err := Parse("pfaulty:0.6")
	if err != nil {
		t.Fatal(err)
	}
	ps := st.(PFaultySearch)
	trajs, err := ps.Build(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tail, ok := trajs[0].TailOf().(*trajectory.HalfZigZag)
	if !ok {
		t.Fatalf("tail is %T, want *trajectory.HalfZigZag", trajs[0].TailOf())
	}
	pEff := ps.EffectiveP(4, 2) // 0.36
	want := OptimalGamma(pEff)
	if got := tail.Gamma(); math.Abs(got-want) > 1e-9*want {
		t.Errorf("default gamma = %g, want OptimalGamma(%g) = %g", got, pEff, want)
	}
	// The tuned growth must stay inside the convergent range for the
	// collective coin.
	if r := pEff * pEff * tail.Gamma(); r >= 1 {
		t.Errorf("tuned growth is divergent: P^2*gamma = %g", r)
	}
}
