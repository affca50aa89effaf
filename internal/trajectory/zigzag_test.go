package trajectory

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"linesearch/internal/geom"
	"linesearch/internal/numeric"
)

// doubling returns the classic single-robot doubling strategy: a zig-zag
// in C_3 (kappa = 2) anchored at (1, 3).
func doubling() *ZigZag {
	cone := geom.MustCone(3)
	return MustZigZag(cone, cone.BoundaryPoint(1))
}

func TestNewZigZagValidation(t *testing.T) {
	cone := geom.MustCone(2)
	if _, err := NewZigZag(cone, geom.Point{X: 0, T: 0}); err == nil {
		t.Error("anchor at apex accepted")
	}
	if _, err := NewZigZag(cone, geom.Point{X: 1, T: 5}); err == nil {
		t.Error("anchor off boundary accepted")
	}
	z, err := NewZigZag(cone, geom.Point{X: -3, T: 6})
	if err != nil {
		t.Fatalf("valid anchor rejected: %v", err)
	}
	if z.Anchor() != (geom.Point{X: -3, T: 6}) {
		t.Errorf("anchor = %v", z.Anchor())
	}
}

func TestTurningPointsMatchLemma1(t *testing.T) {
	z := doubling()
	want := []geom.Point{
		{X: 1, T: 3}, {X: -2, T: 6}, {X: 4, T: 12}, {X: -8, T: 24}, {X: 16, T: 48},
	}
	for k, w := range want {
		got := z.TurningPoint(k)
		if !numeric.AlmostEqual(got.X, w.X, 1e-9) || !numeric.AlmostEqual(got.T, w.T, 1e-9) {
			t.Errorf("TurningPoint(%d) = %v, want %v", k, got, w)
		}
	}
}

func TestTurningPointsNegativeAnchor(t *testing.T) {
	cone := geom.MustCone(3)
	z := MustZigZag(cone, cone.BoundaryPoint(-1))
	want := []float64{-1, 2, -4, 8}
	for k, w := range want {
		if got := z.TurningPoint(k).X; !numeric.AlmostEqual(got, w, 1e-9) {
			t.Errorf("TurningPoint(%d).X = %v, want %v", k, got, w)
		}
	}
}

func TestTurningPointBackwardExtension(t *testing.T) {
	z := doubling()
	want := []struct {
		k int
		x float64
	}{
		{-1, -0.5}, {-2, 0.25}, {-3, -0.125},
	}
	for _, tt := range want {
		got := z.TurningPoint(tt.k)
		if !numeric.AlmostEqual(got.X, tt.x, 1e-9) {
			t.Errorf("TurningPoint(%d).X = %v, want %v", tt.k, got.X, tt.x)
		}
		if !numeric.AlmostEqual(got.T, 3*math.Abs(tt.x), 1e-9) {
			t.Errorf("TurningPoint(%d).T = %v, want boundary time %v", tt.k, got.T, 3*math.Abs(tt.x))
		}
	}
}

func TestZigZagPositionAt(t *testing.T) {
	z := doubling()
	tests := []struct {
		t, want float64
	}{
		{3, 1},   // anchor
		{4, 0},   // heading left
		{6, -2},  // first turn
		{9, 1},   // heading right
		{12, 4},  // second turn
		{24, -8}, // third turn
		{36, 4},  // inside fourth sweep
		{48, 16}, // fourth turn
	}
	for _, tt := range tests {
		got, err := z.PositionAt(tt.t)
		if err != nil {
			t.Fatalf("PositionAt(%v): %v", tt.t, err)
		}
		if !numeric.AlmostEqual(got, tt.want, 1e-9) {
			t.Errorf("PositionAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if _, err := z.PositionAt(2.9); err == nil {
		t.Error("expected error before anchor time")
	}
}

func TestZigZagPositionAtLargeTime(t *testing.T) {
	z := doubling()
	// t = 3 * 2^40: exactly the 40th turning time; position must be
	// +-2^40 and on the cone boundary.
	tt := 3 * math.Pow(2, 40)
	got, err := z.PositionAt(tt)
	if err != nil {
		t.Fatalf("PositionAt: %v", err)
	}
	if !numeric.AlmostEqual(math.Abs(got), math.Pow(2, 40), 1e-9) {
		t.Errorf("PositionAt(%g) = %g, want |x| = 2^40", tt, got)
	}
}

func TestZigZagStaysInCone(t *testing.T) {
	f := func(betaRaw, tRaw float64) bool {
		if math.IsNaN(betaRaw) || math.IsNaN(tRaw) {
			return true
		}
		beta := 1.05 + math.Abs(math.Mod(betaRaw, 5))
		cone := geom.MustCone(beta)
		z := MustZigZag(cone, cone.BoundaryPoint(1))
		tt := z.Anchor().T + math.Abs(math.Mod(tRaw, 1e6))
		x, err := z.PositionAt(tt)
		if err != nil {
			return false
		}
		return cone.Contains(geom.Point{X: x, T: tt}, 1e-6*math.Max(1, tt))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigZagUnitSpeedContinuity(t *testing.T) {
	z := doubling()
	f := func(t1Raw, dtRaw float64) bool {
		if math.IsNaN(t1Raw) || math.IsNaN(dtRaw) {
			return true
		}
		t1 := 3 + math.Abs(math.Mod(t1Raw, 1e4))
		dt := math.Abs(math.Mod(dtRaw, 10))
		p1, err1 := z.PositionAt(t1)
		p2, err2 := z.PositionAt(t1 + dt)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p2-p1) <= dt+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZigZagFirstVisit(t *testing.T) {
	z := doubling()
	tests := []struct {
		x    float64
		want float64
	}{
		{1, 3},     // the anchor itself
		{0, 4},     // crossed on the first sweep
		{-1, 5},    // first sweep
		{-2, 6},    // first turn
		{0.5, 3.5}, // first sweep, heading left: from (1,3), dist 0.5
		{3, 11},    // second sweep
		{4, 12},    // second turn
		{-5, 21},   // third sweep: from (4,12) heading left, dist 9
		{10, 42},   // fourth sweep: from (-8,24), dist 18
	}
	for _, tt := range tests {
		got, ok := z.FirstVisit(tt.x)
		if !ok {
			t.Fatalf("FirstVisit(%v): not found", tt.x)
		}
		if !numeric.AlmostEqual(got, tt.want, 1e-9) {
			t.Errorf("FirstVisit(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestZigZagFirstVisitAlwaysExists(t *testing.T) {
	f := func(xRaw float64) bool {
		if math.IsNaN(xRaw) {
			return true
		}
		x := math.Mod(xRaw, 1e6)
		z := doubling()
		tt, ok := z.FirstVisit(x)
		if !ok {
			return false
		}
		pos, err := z.PositionAt(tt)
		return err == nil && numeric.AlmostEqual(pos, x, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// walkFirstVisit is the segment-by-segment walk from k = 0, the oracle
// of ZigZag.FirstVisit, which starts the same walk next to the answer.
// done is false when it gave up after MaxTailSegments segments.
func walkFirstVisit(z *ZigZag, x float64) (t float64, ok, done bool) {
	for k := 0; k < MaxTailSegments; k++ {
		s := z.segment(k)
		if math.IsInf(s.To.X, 0) || math.IsInf(s.To.T, 0) {
			dir := math.Copysign(1, s.To.X-s.From.X)
			if ahead := (x - s.From.X) * dir; ahead >= 0 {
				return s.From.T + ahead, true, true
			}
			return 0, false, true
		}
		if t, ok := s.FirstVisit(x); ok {
			return t, true, true
		}
		if math.Min(math.Abs(s.From.X), math.Abs(s.To.X)) > math.Abs(x) {
			return 0, false, true
		}
	}
	return 0, false, false
}

// checkFirstVisitMatchesWalk compares FirstVisit with the walk bit for
// bit at x and at the anchor's turning point turn moved by ulps.
func checkFirstVisitMatchesWalk(t *testing.T, z *ZigZag, x float64, turn int, ulps int) {
	t.Helper()
	tp := z.TurningPoint(turn).X
	for i := 0; i < ulps; i++ {
		tp = math.Nextafter(tp, math.Inf(1))
	}
	for i := 0; i > ulps; i-- {
		tp = math.Nextafter(tp, math.Inf(-1))
	}
	for _, x := range []float64{x, tp} {
		want, wantOK, done := walkFirstVisit(z, x)
		if !done {
			continue
		}
		got, gotOK := z.FirstVisit(x)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("beta=%v anchor=%v x=%v: FirstVisit = %v, %v; walk %v, %v",
				z.cone.Beta(), z.anchor.X, x, got, gotOK, want, wantOK)
		}
	}
}

// TestZigZagFirstVisitMatchesWalk pins the closed form to the walk on
// random cones, anchors from 1e-300 to 1e300 and targets from 1e-300 to
// the largest float64 and infinity, and on every turning point of the
// first few hundred moved by up to 2 ulps either way.
func TestZigZagFirstVisitMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	betas := []float64{1.000001, 1.01, 1.5, 2, 3, 7, 10, 64}
	for i := 0; i < 5000; i++ {
		beta := betas[rng.Intn(len(betas))]
		if rng.Intn(2) == 0 {
			beta = 1 + 9*rng.Float64()
		}
		cone := geom.MustCone(beta)
		a := math.Pow(10, 600*rng.Float64()-300)
		if rng.Intn(2) == 0 {
			a = -a
		}
		z, err := NewZigZag(cone, cone.BoundaryPoint(a))
		if err != nil {
			continue
		}
		x := math.Pow(10, 616*rng.Float64()-300)
		switch rng.Intn(20) {
		case 0:
			x = 0
		case 1:
			x = math.MaxFloat64
		case 2:
			x = math.Inf(1)
		}
		if rng.Intn(2) == 0 {
			x = -x
		}
		checkFirstVisitMatchesWalk(t, z, x, rng.Intn(400), rng.Intn(5)-2)
	}
}

// FuzzZigZagFirstVisit checks the closed-form FirstVisit against the
// walk, bit for bit, at a target and at a turning point moved by a few
// ulps.
func FuzzZigZagFirstVisit(fz *testing.F) {
	fz.Add(3.0, 1.0, 7.5, uint16(3), int8(0))
	fz.Add(1.000001, -1e-300, 1e300, uint16(40), int8(1))
	fz.Add(2.0, 1e12, -1e-12, uint16(1), int8(-1))
	fz.Add(64.0, -2.5, math.MaxFloat64, uint16(900), int8(2))
	fz.Fuzz(func(t *testing.T, beta, a, x float64, turn uint16, ulps int8) {
		if !(beta > 1 && beta <= 64) || a == 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return
		}
		cone := geom.MustCone(beta)
		z, err := NewZigZag(cone, cone.BoundaryPoint(a))
		if err != nil {
			return
		}
		checkFirstVisitMatchesWalk(t, z, x, int(turn)%2000, int(ulps)%4)
	})
}

func TestZigZagVisitsUntil(t *testing.T) {
	z := doubling()
	got := z.VisitsUntil(1, 40)
	want := []float64{3, 9, 15, 33}
	if len(got) != len(want) {
		t.Fatalf("VisitsUntil(1, 40) = %v, want %v", got, want)
	}
	for i := range want {
		if !numeric.AlmostEqual(got[i], want[i], 1e-9) {
			t.Errorf("visit %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestZigZagVisitsAreAscending(t *testing.T) {
	z := doubling()
	vs := z.VisitsUntil(-1, 1e5)
	if len(vs) < 3 {
		t.Fatalf("expected several visits, got %v", vs)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			t.Errorf("visits not strictly ascending: %v", vs)
		}
	}
}

func TestZigZagSegmentsUntil(t *testing.T) {
	z := doubling()
	segs := z.SegmentsUntil(50)
	if len(segs) != 5 { // starts at t=3,6,12,24,48
		t.Fatalf("got %d segments, want 5", len(segs))
	}
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			t.Errorf("segment %d invalid: %v", i, err)
		}
		if i > 0 && segs[i-1].To != s.From {
			t.Errorf("segment %d not contiguous with predecessor", i)
		}
		if s.Speed() != 1 {
			t.Errorf("segment %d speed = %v, want 1", i, s.Speed())
		}
	}
}

// MustZigZag is NewZigZag for statically known inputs; panics on error.
func MustZigZag(cone geom.Cone, anchor geom.Point) *ZigZag {
	z, err := NewZigZag(cone, anchor)
	if err != nil {
		panic(err)
	}
	return z
}
