// Package linesearch is the public API of this repository: parallel
// search on an infinite line by n unit-speed robots of which up to f are
// faulty (they follow their trajectories but never detect the target),
// after "Search on a Line with Faulty Robots" (Czyzowicz, Kranakis,
// Krizanc, Narayanan, Opatrny — PODC 2016).
//
// Beyond the paper's crash model, the package supports the Byzantine
// fault model in the spirit of the authors' follow-up work
// (arXiv:1611.08209): faulty robots may stay silent or actively lie
// with false "target found" claims, and a claim is accepted only after
// enough distinct truthful confirmations outvote any possible set of
// liars. Select it with WithFaultModel("byzantine") or a
// "byzantine[@votes][:base]" strategy name; detection then waits for
// the (f + votes)-th distinct visitor instead of the (f+1)-st.
//
// A Searcher wraps a concrete search plan. The recommended plan for a
// pair (n, f) is the paper's algorithm: the trivial two-group sweep when
// n >= 2f+2 (competitive ratio 1), and the proportional schedule
// algorithm A(n, f) when f < n < 2f+2, whose competitive ratio
//
//	((4f+4)/n)^((2f+2)/n) * ((4f+4)/n - 2)^(1-(2f+2)/n) + 1
//
// is optimal for n = f+1 (where it equals 9) and asymptotically optimal
// for n = 2f+1 (where it approaches 3).
//
// Quick start:
//
//	s, err := linesearch.New(3, 1)    // 3 robots, at most 1 faulty
//	t, err := s.SearchTime(7.5)       // worst-case detection time for a target at x = 7.5
//	b, err := linesearch.Bounds(3, 1) // closed-form upper/lower bounds
package linesearch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"

	"linesearch/internal/adversary"
	"linesearch/internal/analysis"
	"linesearch/internal/compiled"
	"linesearch/internal/fault"
	"linesearch/internal/numeric"
	"linesearch/internal/strategy"
)

// Searcher is an evaluatable search plan for n robots with up to f
// faults. Create one with New or NewWithStrategy. A Searcher is
// immutable and safe for concurrent use.
//
// At construction the plan is compiled (internal/compiled): every
// robot's finite part is flattened into binary-searchable corner
// arrays, and its zig-zag turns come from one power table per cone.
// Zig-zag schedules (proportional, cone:<beta>, uniform:<beta> and the
// Byzantine rule over any of them) compile straight from their closed
// form, with no trajectory built. All visit-time queries — SearchTime,
// KthVisitTime, SearchTimes, MeasureCR, VerifyLowerBound — and the
// plan's geometry — TurningPoints, WalkTurningPoints and Positions —
// run through that kernel, and so do the fault questions, which read
// the order of the robots' first visits from it: DetectionTime,
// WorstFaultSet, SearchTimeWithSpeeds and MonteCarlo. So do the
// questions that follow a robot past its first visit, the
// expected-time series (ExpectedSearchTime) and the event timelines
// (Timeline, TimelineFaults): the kernel reads each robot's legs and
// tail as its corner walk does. The exact closed-form engine
// (internal/sim) is only the reference of the differential tests.
type Searcher struct {
	n, f        int
	minDistance float64
	st          strategy.Strategy
	kernel      *compiled.Plan
}

// New returns the paper's recommended searcher for (n, f): the two-group
// sweep when n >= 2f+2, the proportional schedule algorithm A(n, f) when
// f < n < 2f+2. It returns an error when n <= f, where no algorithm can
// guarantee detection.
func New(n, f int) (*Searcher, error) {
	st, err := strategy.ForPair(n, f)
	if err != nil {
		return nil, err
	}
	return newSearcher(st, n, f)
}

// NewWithStrategy returns a searcher using a named strategy:
// "proportional" (the paper's A(n, f)), "twogroup", "doubling",
// "cone:<beta>" for a proportional schedule at an explicit cone slope,
// "byzantine[@<votes>][:<base>]" for the Byzantine voting-rule family
// over a crash base, or "pfaulty[:<p>[:<gamma>]]" for the half-line
// expected-time family under per-visit miss probability p.
func NewWithStrategy(name string, n, f int) (*Searcher, error) {
	st, err := strategy.Parse(name)
	if err != nil {
		return nil, err
	}
	return newSearcher(st, n, f)
}

func newSearcher(st strategy.Strategy, n, f int) (*Searcher, error) {
	kernel, err := compiled.FromStrategy(st, n, f)
	if err != nil {
		return nil, err
	}
	return &Searcher{n: n, f: f, minDistance: 1, st: st, kernel: kernel}, nil
}

// N returns the number of robots.
func (s *Searcher) N() int { return s.n }

// F returns the fault budget.
func (s *Searcher) F() int { return s.f }

// Strategy returns the name of the underlying strategy.
func (s *Searcher) Strategy() string { return s.st.Name() }

// FaultModel returns the fault model the plan detects under: "crash"
// (the paper's model) or "byzantine" (silent or lying faulty robots,
// detection by vote).
func (s *Searcher) FaultModel() string { return s.kernel.Model().Kind.String() }

// Votes returns the number of distinct truthful confirmations the
// plan's detection rule waits for: 1 in the crash model, f+1 under the
// Byzantine model unless an explicit threshold was configured.
func (s *Searcher) Votes() int { return s.kernel.Model().VotesRequired() }

// DetectionRank returns the distinct-visitor rank detection fires at:
// f + Votes(). SearchTime(x) equals KthVisitTime(x, DetectionRank()).
func (s *Searcher) DetectionRank() int { return s.kernel.Model().DetectionRank() }

// MinDistance returns the minimal target distance the searcher was
// built for (1 unless configured with WithMinDistance).
func (s *Searcher) MinDistance() float64 { return s.minDistance }

// SearchTime returns the worst-case time to find a target at position x
// (finite, |x| >= MinDistance()): the first visit by the DetectionRank-th
// distinct robot — f+1 in the crash model, f+votes under the Byzantine
// voting rule — since an adversary corrupts the earliest visitors. +Inf
// means the plan cannot guarantee detection at x. It rejects non-finite
// targets and targets closer than the minimal distance the plan was
// built for.
func (s *Searcher) SearchTime(x float64) (float64, error) {
	if err := s.checkTarget(x); err != nil {
		return 0, err
	}
	return s.kernel.SearchTime(x), nil
}

// SearchTimes evaluates SearchTime for every target in xs in one pass
// through the compiled kernel, sharing one scratch buffer across the
// whole batch. Sorted inputs additionally reuse each robot's previous
// segment index between consecutive targets. Every target must satisfy
// the same domain checks as SearchTime; the first invalid target fails
// the batch.
func (s *Searcher) SearchTimes(xs []float64) ([]float64, error) {
	return s.SearchTimesInto(context.Background(), xs, nil)
}

// SearchTimesContext is SearchTimes that returns ctx.Err() once ctx is
// done, and records a kernel stage span when ctx carries a sampled
// telemetry trace. An untraced context adds no allocations or locking
// over SearchTimes.
func (s *Searcher) SearchTimesContext(ctx context.Context, xs []float64) ([]float64, error) {
	return s.SearchTimesInto(ctx, xs, nil)
}

// SearchTimesInto is SearchTimesContext that writes the times into
// dst's backing array, growing it only when its capacity is below
// len(xs), and returns the slice that holds them. A caller that keeps
// one dst across calls evaluates without allocating.
func (s *Searcher) SearchTimesInto(ctx context.Context, xs, dst []float64) ([]float64, error) {
	for _, x := range xs {
		if err := s.checkTarget(x); err != nil {
			return nil, err
		}
	}
	return s.kernel.EvalManyCtx(ctx, xs, dst)
}

// KthVisitTime returns the time at which the k-th distinct robot first
// stands on x (1 <= k <= n). SearchTime(x) equals KthVisitTime(x, f+1);
// k = 1 is the fault-free detection time and k = n the group-search
// "last arrival" time. +Inf means fewer than k robots ever visit x.
func (s *Searcher) KthVisitTime(x float64, k int) (float64, error) {
	if err := s.checkTarget(x); err != nil {
		return 0, err
	}
	return s.kernel.KthDistinctVisit(x, k)
}

// SearchTimeWithSpeeds is SearchTime for a fleet with heterogeneous
// speeds: robot i traverses its schedule at speeds[i] times unit speed,
// so all its visit times scale by 1/speeds[i]. A single entry
// broadcasts one speed to the whole fleet; nil means unit speeds,
// where the result coincides with SearchTime. The detection rule is
// unchanged — the result is the time the DetectionRank-th distinct
// robot first stands on x, +Inf when fewer robots ever visit it.
func (s *Searcher) SearchTimeWithSpeeds(x float64, speeds []float64) (float64, error) {
	if err := s.checkTarget(x); err != nil {
		return 0, err
	}
	sp, err := s.speedVector(speeds)
	if err != nil {
		return 0, err
	}
	// The k-th distinct visit is the k-th order statistic of the
	// per-robot first-visit times; speed only rescales each robot's
	// clock, so the statistic survives the scaling directly.
	times := s.kernel.FirstVisits(x, nil)
	for i := range times {
		times[i] /= sp[i]
	}
	return kthSmallest(times, s.DetectionRank()), nil
}

// kthSmallest returns the k-th smallest of ts (1-based), reordering ts,
// or +Inf when ts is shorter; a robot that never visits x has time +Inf.
func kthSmallest(ts []float64, k int) float64 {
	if len(ts) < k {
		return math.Inf(1)
	}
	slices.Sort(ts)
	return ts[k-1]
}

// ExpectedSearchTime returns the expected time to find a target at x
// when detection is probabilistic: every surviving robot misses each
// visit of x independently with probability p (0 <= p < 1), while the
// adversary still crashes the worst-case f robots outright before any
// coin is flipped. On a plan built from the pfaulty strategy family,
// p = 0 selects the family's own miss probability; on any other plan
// p = 0 degenerates to the deterministic worst case. speeds follows
// SearchTimeWithSpeeds. +Inf means the expectation diverges — the
// schedule's revisits grow too fast for the miss probability (see the
// convergence condition in strategy.AsymptoticExpectedRatio).
// Byzantine plans are rejected: the voting rule waits for multiple
// confirmations, outside this expectation's single-confirmation model.
func (s *Searcher) ExpectedSearchTime(x, p float64, speeds []float64) (float64, error) {
	if err := s.checkTarget(x); err != nil {
		return 0, err
	}
	if math.IsNaN(p) || p < 0 || p >= 1 {
		return 0, fmt.Errorf("linesearch: miss probability must lie in [0, 1), got %g", p)
	}
	sp, err := s.speedVector(speeds)
	if err != nil {
		return 0, err
	}
	m := s.kernel.Model()
	if m.VotesRequired() > 1 {
		return 0, fmt.Errorf("linesearch: the expected-time objective requires the crash detection rule, not %s voting", m.Kind)
	}
	if p == 0 && m.Kind == fault.ModelPFaulty {
		p = m.P
	}
	return s.kernel.ExpectedSearchTime(x, p, sp)
}

// ExpectedCompetitiveRatio returns the asymptotic expected competitive
// ratio lim sup_{|x| -> inf} E[T(x)]/|x| of a plan whose guarantee is
// inherently stochastic (the pfaulty family, whose worst-case ratio is
// unbounded by design). ok is false for deterministic plans, whose
// figure of merit is CompetitiveRatio.
func (s *Searcher) ExpectedCompetitiveRatio() (ratio float64, ok bool) {
	if ps, isPF := s.st.(strategy.PFaultySearch); isPF {
		return ps.ExpectedCR(s.n, s.f), true
	}
	return 0, false
}

// speedVector expands a speed parameter into one entry per robot: nil
// means unit speeds, a single entry broadcasts, a full vector is used
// as-is. Every entry must be positive and finite.
func (s *Searcher) speedVector(speeds []float64) ([]float64, error) {
	for i, v := range speeds {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("linesearch: speed %d must be positive and finite, got %g", i, v)
		}
	}
	out := make([]float64, s.n)
	switch len(speeds) {
	case 0:
		for i := range out {
			out[i] = 1
		}
	case 1:
		for i := range out {
			out[i] = speeds[0]
		}
	case s.n:
		copy(out, speeds)
	default:
		return nil, fmt.Errorf("linesearch: speed vector has %d entries for %d robots (one entry broadcasts)", len(speeds), s.n)
	}
	return out, nil
}

// checkTarget rejects target positions outside the plan's domain: the
// guarantees only cover finite targets with |x| >= MinDistance().
func (s *Searcher) checkTarget(x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("linesearch: target position must be finite, got %g", x)
	}
	if math.Abs(x) < s.minDistance {
		return fmt.Errorf("linesearch: target %g closer than the minimal distance %g", x, s.minDistance)
	}
	return nil
}

// Positions returns every robot's position at time t >= 0.
func (s *Searcher) Positions(t float64) ([]float64, error) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("linesearch: time must be finite, got %g", t)
	}
	out := make([]float64, s.n)
	for i := range out {
		x, err := s.kernel.Position(i, t)
		if err != nil {
			return nil, fmt.Errorf("linesearch: robot %d at t=%g: %w", i, t, err)
		}
		out[i] = x
	}
	return out, nil
}

// Point is a space–time point on a robot's trajectory: position X on
// the line at time T. It encodes as {"t":T,"x":X}, the service's wire
// form.
type Point struct {
	T float64 `json:"t"`
	X float64 `json:"x"`
}

// TurningPoints returns, for every robot, the corner points of its
// trajectory with start time at most tmax (finite, >= 0): the start
// point followed by every junction between motion segments. The last
// point of each robot may lie slightly beyond tmax because the segment
// it terminates starts before the horizon. It collects
// WalkTurningPoints into one allocation for all robots.
func (s *Searcher) TurningPoints(tmax float64) ([][]Point, error) {
	if err := checkHorizon(tmax); err != nil {
		return nil, err
	}
	total := 0
	for i := range s.n {
		s.kernel.Walk(i, tmax, 0, func(float64, float64) bool { total++; return true })
	}
	flat := make([]Point, 0, total)
	out := make([][]Point, s.n)
	for i := range out {
		start := len(flat)
		s.kernel.Walk(i, tmax, 0, func(t, x float64) bool {
			flat = append(flat, Point{T: t, X: x})
			return true
		})
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out, nil
}

// WalkTurningPoints calls yield with robot i's turning points up to
// tmax, in order, as TurningPoints lists them, but at most limit of
// them (all when limit <= 0) and none after yield returns false. The
// points come straight from the compiled kernel, so walking a plan
// allocates nothing. It returns an error for a robot index out of range
// or a horizon TurningPoints rejects.
func (s *Searcher) WalkTurningPoints(i int, tmax float64, limit int, yield func(Point) bool) error {
	if i < 0 || i >= s.n {
		return fmt.Errorf("linesearch: robot index %d out of range [0, %d)", i, s.n)
	}
	if err := checkHorizon(tmax); err != nil {
		return err
	}
	s.kernel.Walk(i, tmax, limit, func(t, x float64) bool { return yield(Point{T: t, X: x}) })
	return nil
}

// checkHorizon rejects a turning-point horizon that is not finite and
// non-negative.
func checkHorizon(tmax float64) error {
	if math.IsNaN(tmax) || math.IsInf(tmax, 0) || tmax < 0 {
		return fmt.Errorf("linesearch: horizon must be finite and non-negative, got %g", tmax)
	}
	return nil
}

// DetectionTime returns the time a target at x is found when the robots
// listed in faulty (by index) are the faulty ones. +Inf means no
// reliable robot ever reaches x.
func (s *Searcher) DetectionTime(x float64, faulty []int) (float64, error) {
	if err := s.checkTarget(x); err != nil {
		return 0, err
	}
	set, err := s.faultSet(faulty)
	if err != nil {
		return 0, err
	}
	return s.detectionTime(x, set), nil
}

// detectionTime returns the time a target at x is found under the fault
// assignment set: the Votes()-th first visit by a robot that confirms
// (no faulty kind does), +Inf when fewer confirming robots visit x.
func (s *Searcher) detectionTime(x float64, set fault.Set) float64 {
	times := s.kernel.FirstVisits(x, nil)
	confirm := times[:0]
	for i, t := range times {
		if set[i].Confirms() {
			confirm = append(confirm, t)
		}
	}
	return kthSmallest(confirm, s.Votes())
}

// WorstFaultSet returns the indices of the robots an adversary would
// corrupt against a target at x, in increasing order: the f earliest
// distinct visitors, ties broken by robot index. A robot whose first
// visit lies beyond float64's time range is no visitor.
// Under the Byzantine model the adversary's corrupted robots stay
// silent at the target — lying elsewhere never delays detection
// further (see TimelineFaults for explicit liar placement).
func (s *Searcher) WorstFaultSet(x float64) []int {
	arrivals := s.kernel.Arrivals(x, nil)
	var out []int
	for _, v := range arrivals[:min(s.kernel.Model().F, len(arrivals))] {
		out = append(out, v.Robot)
	}
	slices.Sort(out)
	return out
}

// CompetitiveRatio returns the plan's worst-case competitive ratio:
// the closed form when the strategy has one (all built-ins do), and a
// measured supremum otherwise.
func (s *Searcher) CompetitiveRatio() (float64, error) {
	if cr, ok := s.st.AnalyticCR(s.n, s.f); ok {
		return cr, nil
	}
	cr, _, err := s.MeasureCR()
	return cr, err
}

// MeasureCR measures the competitive ratio empirically by evaluating the
// worst-case ratio just past every turning point (where the supremum
// is attained) plus a dense grid, over targets with
// MinDistance <= |x| <= 1e4 * MinDistance. It returns the supremum and a
// witness target position.
func (s *Searcher) MeasureCR() (sup, witness float64, err error) {
	res, err := s.kernel.CR(compiled.CROptions{XMin: s.minDistance})
	if err != nil {
		return 0, 0, err
	}
	return res.Sup, res.ArgX, nil
}

// Event is one entry of a search timeline: a robot starting to move,
// turning, visiting the target position, claiming to have found it, or
// detecting the target. Claim events only occur under the Byzantine
// model, where detection waits for enough truthful claims; a
// "false-claim" is a lie a Byzantine robot plants at a mirror position.
type Event struct {
	// T is the event time.
	T float64
	// Robot is the robot index.
	Robot int
	// Kind is "start", "turn", "visit", "claim", "false-claim" or
	// "detect".
	Kind string
	// X is the event position.
	X float64
}

// Timeline reconstructs the chronological event log of a search for a
// target at x with the given faulty robots, up to time tmax (finite and
// positive).
func (s *Searcher) Timeline(x float64, faulty []int, tmax float64) ([]Event, error) {
	if err := s.checkTimeline(x, tmax); err != nil {
		return nil, err
	}
	set, err := s.faultSet(faulty)
	if err != nil {
		return nil, err
	}
	return s.timeline(x, set, tmax)
}

// TimelineFaults reconstructs the event log of a search for a target at
// x under an explicit per-robot fault assignment, up to time tmax
// (finite and positive): robots in silent stay quiet at the target
// (valid in both models), robots in liars additionally plant a false
// claim at the mirror position (Byzantine plans only). The two lists
// must be disjoint and their total size must not exceed the fault
// budget f.
func (s *Searcher) TimelineFaults(x float64, silent, liars []int, tmax float64) ([]Event, error) {
	if err := s.checkTimeline(x, tmax); err != nil {
		return nil, err
	}
	m := s.kernel.Model()
	if len(liars) > 0 && !m.Admits(fault.ByzantineLiar) {
		return nil, fmt.Errorf("linesearch: lying robots need the byzantine fault model, plan uses %s", m)
	}
	set := make(fault.Set, s.n)
	if err := s.markFaulty(set, silent, m.WorstKind(), errTwoKinds); err != nil {
		return nil, err
	}
	if err := s.markFaulty(set, liars, fault.ByzantineLiar, errTwoKinds); err != nil {
		return nil, err
	}
	if err := set.Validate(s.n, m); err != nil {
		return nil, fmt.Errorf("linesearch: %w", err)
	}
	return s.timeline(x, set, tmax)
}

// checkTimeline validates a timeline query's target and horizon.
func (s *Searcher) checkTimeline(x, tmax float64) error {
	if err := s.checkTarget(x); err != nil {
		return err
	}
	if math.IsNaN(tmax) || math.IsInf(tmax, 0) || tmax <= 0 {
		return fmt.Errorf("linesearch: timeline horizon must be finite and positive, got %g", tmax)
	}
	return nil
}

// timeline runs the plan's event-log reconstruction and converts its
// events to the public form.
func (s *Searcher) timeline(x float64, set fault.Set, tmax float64) ([]Event, error) {
	events, err := s.kernel.Timeline(x, set, tmax)
	if err != nil {
		return nil, err
	}
	out := make([]Event, len(events))
	for i, e := range events {
		out[i] = Event{T: e.T, Robot: e.Robot, Kind: e.Kind.String(), X: e.X}
	}
	return out, nil
}

// Stats summarises a Monte-Carlo fault-injection run: the distribution
// of detection-time-to-distance ratios under uniformly random fault
// sets and log-uniform target positions.
type Stats struct {
	Trials           int
	Mean, Min, Max   float64
	Median, P95, P99 float64
}

// Monte-Carlo fault injection draws each trial's target log-uniformly
// from [mcXMin, mcXMax] on a uniformly random side.
const (
	mcXMin, mcXMax = 1, 1e4
	// mcSeedMix decorrelates per-trial generators derived from the same
	// base seed (the 64-bit golden-ratio constant of splitmix64,
	// reinterpreted as a signed value).
	mcSeedMix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15
)

// MonteCarlo runs trials random searches (random fault set of size f,
// random target with 1 <= |x| <= 1e4) and reports ratio statistics.
// Random faults are far kinder than the adversary: the mean sits well
// below the worst-case competitive ratio. Trials run on a worker pool;
// every trial seeds its own generator from (seed, trial index), so the
// result depends only on (trials, seed).
func (s *Searcher) MonteCarlo(trials int, seed int64) (Stats, error) {
	if trials < 1 {
		return Stats{}, fmt.Errorf("linesearch: Monte-Carlo trials must be positive, got %d", trials)
	}
	ratios := make([]float64, trials)
	// No trial fails and the context never ends, so ForEach returns nil.
	_ = numeric.ForEach(context.Background(), trials, runtime.GOMAXPROCS(0), func(_, i int) error {
		ratios[i] = s.trial(seed, i)
		return nil
	})
	st := Stats{Trials: trials, Min: math.Inf(1), Max: math.Inf(-1)}
	var sum numeric.KahanSum
	for _, r := range ratios {
		sum.Add(r)
		st.Min = math.Min(st.Min, r)
		st.Max = math.Max(st.Max, r)
	}
	st.Mean = sum.Value() / float64(trials)
	sort.Float64s(ratios)
	quantile := func(q float64) float64 { return ratios[int(q*float64(trials-1))] }
	st.Median, st.P95, st.P99 = quantile(0.5), quantile(0.95), quantile(0.99)
	return st, nil
}

// trial runs one random search with a generator derived from the base
// seed and the trial index, returning detection time over distance.
// The fault assignment is a uniformly random set of exactly f robots;
// under the Byzantine model each faulty robot additionally flips a fair
// coin between silence and lying (the detection rule treats both the
// same). Crash-model trials draw no coin, so their random stream is
// the same as before the Byzantine model existed.
func (s *Searcher) trial(seed int64, idx int) float64 {
	rng := rand.New(rand.NewSource(seed ^ (int64(idx+1) * mcSeedMix)))
	logMin, logMax := math.Log(mcXMin), math.Log(mcXMax)
	x := math.Exp(logMin + rng.Float64()*(logMax-logMin))
	if rng.Intn(2) == 0 {
		x = -x
	}
	m := s.kernel.Model()
	set := make(fault.Set, s.n)
	for _, i := range rng.Perm(s.n)[:m.F] {
		kind := m.WorstKind()
		if m.Kind == fault.ModelByzantine && rng.Intn(2) == 0 {
			kind = fault.ByzantineLiar
		}
		set[i] = kind
	}
	return s.detectionTime(x, set) / math.Abs(x)
}

// VerifyLowerBound plays the Theorem 2 adversary against this plan and
// returns the certified bound alpha together with the worst ratio the
// plan suffers on the adversarial target ladder (always >= alpha when
// n < 2f+2). It errors for plans outside the theorem's hypothesis.
func (s *Searcher) VerifyLowerBound() (alpha, ratio float64, err error) {
	res, err := adversary.VerifyTheorem2(s.kernel)
	return res.Alpha, res.Ratio, err
}

// Formats of the error for a robot index listed twice: once in a
// single faulty list, or in both the silent and the liar lists.
const (
	errDuplicateFaulty = "linesearch: duplicate faulty robot index %d"
	errTwoKinds        = "linesearch: robot %d assigned two fault kinds"
)

// faultSet builds the fault assignment in which the listed robots take
// the plan's worst faulty kind and every other robot is reliable.
func (s *Searcher) faultSet(faulty []int) (fault.Set, error) {
	set := make(fault.Set, s.n)
	if err := s.markFaulty(set, faulty, s.kernel.Model().WorstKind(), errDuplicateFaulty); err != nil {
		return nil, err
	}
	return set, nil
}

// markFaulty assigns kind k to every listed robot index in set. An index
// outside [0, n) is an error, as is one already assigned a faulty kind,
// reported with the duplicate format dup.
func (s *Searcher) markFaulty(set fault.Set, idxs []int, k fault.Kind, dup string) error {
	for _, idx := range idxs {
		if idx < 0 || idx >= s.n {
			return fmt.Errorf("linesearch: faulty robot index %d out of range [0, %d)", idx, s.n)
		}
		if set[idx] != fault.Reliable {
			return fmt.Errorf(dup, idx)
		}
		set[idx] = k
	}
	return nil
}

// BoundsInfo bundles the closed-form guarantees for a pair (n, f).
type BoundsInfo struct {
	// Regime describes which algorithm applies.
	Regime string
	// Upper is the competitive ratio of the paper's algorithm.
	Upper float64
	// Lower is the best proven lower bound for any algorithm.
	Lower float64
	// Beta is the optimal cone slope beta* (NaN outside the
	// proportional regime).
	Beta float64
	// Expansion is the turning-point growth factor of A(n, f) (NaN
	// outside the proportional regime).
	Expansion float64
}

// Bounds returns the closed-form guarantees for (n, f): the Theorem 1
// upper bound, the paper's best lower bound (9 for n = f+1, the
// Theorem 2 root otherwise, 1 in the trivial regime), and the optimal
// schedule parameters.
func Bounds(n, f int) (BoundsInfo, error) {
	regime, err := analysis.Classify(n, f)
	if err != nil {
		return BoundsInfo{}, err
	}
	info := BoundsInfo{Regime: regime.String(), Beta: math.NaN(), Expansion: math.NaN()}
	if info.Upper, err = analysis.UpperBoundCR(n, f); err != nil {
		return BoundsInfo{}, err
	}
	if info.Lower, err = analysis.LowerBoundCR(n, f); err != nil {
		return BoundsInfo{}, err
	}
	if regime == analysis.RegimeProportional {
		if info.Beta, err = analysis.OptimalBeta(n, f); err != nil {
			return BoundsInfo{}, err
		}
		if info.Expansion, err = analysis.ExpansionFactor(n, f); err != nil {
			return BoundsInfo{}, err
		}
	}
	return info, nil
}

// CompetitiveRatio returns the Theorem 1 competitive ratio of the
// paper's algorithm for (n, f) (1 in the trivial regime, +Inf when
// n <= f).
func CompetitiveRatio(n, f int) (float64, error) {
	return analysis.UpperBoundCR(n, f)
}

// LowerBound returns the paper's best lower bound on the competitive
// ratio of any algorithm for (n, f).
func LowerBound(n, f int) (float64, error) {
	return analysis.LowerBoundCR(n, f)
}
