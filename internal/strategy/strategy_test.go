package strategy

import (
	"math"
	"strings"
	"testing"

	"linesearch/internal/numeric"
	"linesearch/internal/trajectory"
)

func TestRegistryNamesUniqueAndSorted(t *testing.T) {
	reg := Registry()
	if len(reg) < 3 {
		t.Fatalf("registry has %d strategies, want >= 3", len(reg))
	}
	seen := map[string]bool{}
	prev := ""
	for _, s := range reg {
		if s.Name() == "" || s.Description() == "" {
			t.Errorf("strategy %T has empty name or description", s)
		}
		if seen[s.Name()] {
			t.Errorf("duplicate strategy name %q", s.Name())
		}
		seen[s.Name()] = true
		if s.Name() < prev {
			t.Errorf("registry not sorted: %q after %q", s.Name(), prev)
		}
		prev = s.Name()
	}
}

func TestParse(t *testing.T) {
	for _, name := range []string{"proportional", "twogroup", "doubling"} {
		s, err := Parse(name)
		if err != nil {
			t.Errorf("Parse(%q): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := Parse("nonsense"); err == nil {
		t.Error("Parse(nonsense) succeeded")
	}
}

func TestParseCone(t *testing.T) {
	s, err := Parse("cone:2.5")
	if err != nil {
		t.Fatalf("Parse(cone:2.5): %v", err)
	}
	c, ok := s.(Cone)
	if !ok || c.Beta != 2.5 {
		t.Errorf("Parse(cone:2.5) = %#v", s)
	}
	if _, err := Parse("cone:abc"); err == nil {
		t.Error("Parse(cone:abc) succeeded")
	}
	if _, err := Parse("cone:1"); err == nil {
		t.Error("Parse(cone:1) succeeded (beta must exceed 1)")
	}
}

func TestParseMalformed(t *testing.T) {
	// Every rejection must name the offending input (or value) and say
	// what a valid one looks like — these strings reach CLI users and
	// HTTP clients verbatim.
	cases := []struct {
		name    string
		input   string
		wantErr []string // substrings the error must contain
	}{
		{"empty slope", "cone:", []string{`invalid cone slope ""`}},
		{"non-numeric slope", "cone:abc", []string{`invalid cone slope "abc"`}},
		{"nan slope", "cone:NaN", []string{"cone slope must be finite and exceed 1", "NaN"}},
		{"infinite slope", "cone:+Inf", []string{"cone slope must be finite and exceed 1", "+Inf"}},
		{"slope at boundary", "cone:1.0", []string{"cone slope must be finite and exceed 1", "got 1"}},
		{"slope below boundary", "cone:0.5", []string{"cone slope must be finite and exceed 1", "got 0.5"}},
		{"negative slope", "cone:-3", []string{"cone slope must be finite and exceed 1", "got -3"}},
		{"uniform empty slope", "uniform:", []string{`invalid cone slope ""`}},
		{"uniform bad slope", "uniform:0.9", []string{"cone slope must be finite and exceed 1", "got 0.9"}},
		{"slope past the limit", "cone:1e15", []string{"cone slope must not exceed 6.19", "got 1e+15"}},
		{"uniform slope past the limit", "uniform:6.2e12", []string{"cone slope must not exceed 6.19", "got 6.2e+12"}},
		{"byzantine base slope past the limit", "byzantine:cone:1e15", []string{"cone slope must not exceed 6.19"}},
		{"unknown name", "zigzag", []string{`unknown strategy "zigzag"`, "cone:<beta>"}},
		{"empty name", "", []string{`unknown strategy ""`}},
		{"case sensitive", "Cone:2.5", []string{`unknown strategy "Cone:2.5"`}},
		{"trailing junk", "cone:2.5x", []string{`invalid cone slope "2.5x"`}},
		{"byzantine empty votes", "byzantine@", []string{`invalid vote threshold ""`, "positive integer"}},
		{"byzantine non-numeric votes", "byzantine@abc", []string{`invalid vote threshold "abc"`}},
		{"byzantine nan votes", "byzantine@NaN", []string{`invalid vote threshold "NaN"`}},
		{"byzantine fractional votes", "byzantine@2.5", []string{`invalid vote threshold "2.5"`}},
		{"byzantine negative votes", "byzantine@-1", []string{"vote threshold must be a positive integer", "got -1"}},
		{"byzantine zero votes", "byzantine@0", []string{"vote threshold must be a positive integer", "got 0"}},
		{"byzantine unknown base", "byzantine:zigzag", []string{`unknown strategy "zigzag"`}},
		{"byzantine empty base", "byzantine:", []string{`unknown strategy ""`}},
		{"byzantine bad base slope", "byzantine@2:cone:0.5", []string{"cone slope must be finite and exceed 1"}},
		{"byzantine nested", "byzantine:byzantine", []string{"cannot nest"}},
		{"byzantine nested with votes", "byzantine@2:byzantine@3:doubling", []string{"cannot nest"}},
		{"byzantine case sensitive", "Byzantine", []string{`unknown strategy "Byzantine"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse(tc.input)
			if err == nil {
				t.Fatalf("Parse(%q) = %#v, want error", tc.input, s)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Parse(%q) error = %q, missing %q", tc.input, err, want)
				}
			}
		})
	}
}

func TestForPair(t *testing.T) {
	s, err := ForPair(4, 1)
	if err != nil || s.Name() != "twogroup" {
		t.Errorf("ForPair(4,1) = %v, %v; want twogroup", s, err)
	}
	s, err = ForPair(3, 1)
	if err != nil || s.Name() != "proportional" {
		t.Errorf("ForPair(3,1) = %v, %v; want proportional", s, err)
	}
	if _, err := ForPair(2, 2); err == nil {
		t.Error("ForPair(2,2) succeeded for a hopeless pair")
	}
}

func TestProportionalBuild(t *testing.T) {
	trajs, err := Proportional{}.Build(5, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(trajs) != 5 {
		t.Fatalf("got %d trajectories, want 5", len(trajs))
	}
	for i, tr := range trajs {
		if err := tr.Validate(); err != nil {
			t.Errorf("trajectory %d: %v", i, err)
		}
	}
	cr, ok := Proportional{}.AnalyticCR(5, 3)
	if !ok || !numeric.AlmostEqual(cr, 6.76, 5e-3) {
		t.Errorf("AnalyticCR(5,3) = %v, %v; want ~6.76", cr, ok)
	}
}

func TestProportionalRejectsWrongRegime(t *testing.T) {
	if _, err := (Proportional{}).Build(6, 1); err == nil {
		t.Error("Build(6,1) succeeded in the trivial regime")
	}
	if _, ok := (Proportional{}).AnalyticCR(6, 1); ok {
		t.Error("AnalyticCR(6,1) claimed a proportional closed form")
	}
}

func TestConeStrategy(t *testing.T) {
	c := Cone{Beta: 2}
	if c.Name() != "cone:2" {
		t.Errorf("Name = %q", c.Name())
	}
	trajs, err := c.Build(3, 1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(trajs) != 3 {
		t.Fatalf("got %d trajectories", len(trajs))
	}
	cr, ok := c.AnalyticCR(3, 1)
	if !ok {
		t.Fatal("AnalyticCR not available")
	}
	// Lemma 5 at beta=2, n=3, f=1: 3^(4/3) * 1^(-1/3) + 1.
	want := math.Pow(3, 4.0/3) + 1
	if !numeric.AlmostEqual(cr, want, 1e-12) {
		t.Errorf("AnalyticCR = %v, want %v", cr, want)
	}
}

// rayDirection reads a ray trajectory's sweep direction from where it
// stands one time unit after its anchor.
func rayDirection(t *testing.T, tr *trajectory.Trajectory) trajectory.Direction {
	t.Helper()
	a := tr.TailOf().Anchor()
	x, err := trajectory.PositionAt(tr.Legs(), tr.TailOf(), a.T+1)
	if err != nil {
		t.Fatal(err)
	}
	if x > a.X {
		return trajectory.Right
	}
	return trajectory.Left
}

func TestTwoGroupBuild(t *testing.T) {
	trajs, err := TwoGroup{}.Build(6, 2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var right, left int
	for _, tr := range trajs {
		if _, ok := tr.TailOf().(*trajectory.Ray); !ok {
			t.Fatal("two-group trajectory is not a ray")
		}
		switch rayDirection(t, tr) {
		case trajectory.Right:
			right++
		case trajectory.Left:
			left++
		}
	}
	if right < 3 || left < 3 {
		t.Errorf("groups %d right / %d left, want >= f+1 = 3 each", right, left)
	}
	cr, ok := TwoGroup{}.AnalyticCR(6, 2)
	if !ok || cr != 1 {
		t.Errorf("AnalyticCR(6,2) = %v, %v; want 1, true", cr, ok)
	}
}

func TestTwoGroupOddN(t *testing.T) {
	trajs, err := TwoGroup{}.Build(7, 2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var left int
	for _, tr := range trajs {
		if rayDirection(t, tr) == trajectory.Left {
			left++
		}
	}
	if left < 3 || 7-left < 3 {
		t.Errorf("odd split %d/%d leaves a side under f+1", 7-left, left)
	}
}

func TestTwoGroupRejectsProportionalRegime(t *testing.T) {
	if _, err := (TwoGroup{}).Build(3, 1); err == nil {
		t.Error("Build(3,1) succeeded with n < 2f+2")
	}
	if _, ok := (TwoGroup{}).AnalyticCR(3, 1); ok {
		t.Error("AnalyticCR(3,1) claimed a two-group closed form")
	}
}

func TestDoublingBuild(t *testing.T) {
	trajs, err := Doubling{}.Build(3, 2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(trajs) != 3 {
		t.Fatalf("got %d trajectories", len(trajs))
	}
	// All robots share the same motion.
	for _, tt := range []float64{0, 1, 5, 20} {
		p0, err := trajectory.PositionAt(trajs[0].Legs(), trajs[0].TailOf(), tt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 3; i++ {
			pi, err := trajectory.PositionAt(trajs[i].Legs(), trajs[i].TailOf(), tt)
			if err != nil {
				t.Fatal(err)
			}
			if pi != p0 {
				t.Errorf("robot %d at t=%v: %v, robot 0: %v", i, tt, pi, p0)
			}
		}
	}
	cr, ok := Doubling{}.AnalyticCR(3, 2)
	if !ok || cr != 9 {
		t.Errorf("AnalyticCR(3,2) = %v, %v; want 9, true", cr, ok)
	}
}

func TestDoublingTurningPoints(t *testing.T) {
	trajs, err := Doubling{}.Build(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail, ok := trajs[0].TailOf().(*trajectory.ZigZag)
	if !ok {
		t.Fatal("doubling tail is not a zig-zag")
	}
	want := []float64{1, -2, 4, -8, 16}
	for k, w := range want {
		if got := tail.TurningPoint(k).X; !numeric.AlmostEqual(got, w, 1e-9) {
			t.Errorf("turning %d = %v, want %v", k, got, w)
		}
	}
}

func TestDoublingRejectsBadPairs(t *testing.T) {
	if _, err := (Doubling{}).Build(0, 0); err == nil {
		t.Error("Build(0,0) succeeded")
	}
	if _, err := (Doubling{}).Build(2, 2); err == nil {
		t.Error("Build(2,2) succeeded with f >= n")
	}
	if _, ok := (Doubling{}).AnalyticCR(2, 2); ok {
		t.Error("AnalyticCR(2,2) claimed a closed form")
	}
}
