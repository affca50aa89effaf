package compiled

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"linesearch/internal/telemetry"
)

// Evaluator answers queries against one compiled plan using fixed
// scratch buffers, so steady-state evaluation performs zero heap
// allocations. An Evaluator is NOT safe for concurrent use: the
// Plan-level methods take one from the plan's pool per call, and
// Plan.CR holds one per worker.
type Evaluator struct {
	plan *Plan
	// buf is the fixed-size selection buffer: per-query first-visit
	// times of the robots that ever reach the target. selectKth extracts
	// the k-th distinct visit in place: O(m) expected and O(m log m)
	// worst case for the m robots that visit.
	buf []float64
	// hints caches each robot's last covering corner index; consecutive
	// queries for nearby (in particular sorted) targets then re-enter
	// the binary search on a narrowed window.
	hints []int
	// period and shift cache the last phase-table query's period m and
	// m mod n, sparing sorted targets an integer division each.
	period, shift int
	// rank is the plan's detection rank, cached so that SearchTime
	// stays small enough to inline.
	rank int
}

// evaluatorPool recycles Evaluators so the Plan-level methods stay
// allocation-free after warm-up.
type evaluatorPool struct {
	plan *Plan
	pool sync.Pool
}

func (ep *evaluatorPool) get() *Evaluator {
	if e, ok := ep.pool.Get().(*Evaluator); ok {
		return e
	}
	return newEvaluator(ep.plan)
}

func (ep *evaluatorPool) put(e *Evaluator) { ep.pool.Put(e) }

func newEvaluator(p *Plan) *Evaluator {
	e := &Evaluator{
		plan:  p,
		buf:   make([]float64, len(p.robots)),
		hints: make([]int, len(p.robots)),
		rank:  p.model.DetectionRank(),
	}
	for i := range e.hints {
		e.hints[i] = -1
	}
	return e
}

// KthDistinctVisit returns the time of the k-th distinct robot's first
// visit to x (+Inf if fewer than k robots ever visit), matching
// sim.Plan.KthDistinctVisit. k is validated before any trajectory
// queries run.
func (e *Evaluator) KthDistinctVisit(x float64, k int) (float64, error) {
	n := len(e.plan.robots)
	if k < 1 || k > n {
		return 0, fmt.Errorf("compiled: visitor index k=%d out of range [1, %d]", k, n)
	}
	return e.kth(x, k), nil
}

// SearchTime returns the worst-case detection time for a target at x:
// the first visit of the DetectionRank-th distinct robot ((f+1)-st in
// the crash model, (f+votes)-th under the Byzantine voting rule), +Inf
// if fewer robots ever visit. Matches sim.Plan.SearchTime.
func (e *Evaluator) SearchTime(x float64) float64 { return e.kth(x, e.rank) }

// kth returns the k-th distinct first-visit time at x, +Inf if fewer
// than k robots visit. A self-similar plan answers from rank k's phase
// table once it is built; every other query scans all robots. A buffer
// selectKth would not partition goes to minSelect directly, which
// inlines here, so small plans pay no call.
func (e *Evaluator) kth(x float64, k int) float64 {
	if t := e.phaseTable(k); t != nil {
		if v, ok := e.tableKth(t, x, k); ok {
			return v
		}
	}
	return e.scan(x, k)
}

// scan is kth over every robot: gather each first visit, then select.
func (e *Evaluator) scan(x float64, k int) float64 {
	switch m := e.gatherVisits(x); {
	case m < k:
		return math.Inf(1)
	case m <= selectCutoff:
		return minSelect(e.buf[:m], k)
	default:
		return selectKth(e.buf[:m], k)
	}
}

// EvalMany computes SearchTime for every target in xs, writing into dst
// (grown if needed) and returning it. Passing a dst with sufficient
// capacity makes the call allocation-free. Targets sorted by position
// get the fast path automatically: each robot's covering corner index
// moves monotonically, so the per-query binary search collapses to a
// few probes around the previous index.
func (e *Evaluator) EvalMany(xs []float64, dst []float64) []float64 {
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = e.SearchTime(x)
	}
	return dst
}

// gatherVisits fills e.buf with the first-visit times of every robot
// that reaches x and returns their count.
func (e *Evaluator) gatherVisits(x float64) int {
	m := 0
	for i := range e.plan.robots {
		t, idx, ok := e.plan.robots[i].firstVisit(x, e.hints[i])
		e.hints[i] = idx
		if ok {
			e.buf[m] = t
			m++
		}
	}
	return m
}

const selectCutoff = 16 // widest window selectKth finishes by minSelect

// selectKth returns the k-th smallest value of buf (1-based), reordering
// buf in place, in O(m) expected and O(m log m) worst-case time for
// m = len(buf). Hoare-partition quickselect with a median-of-three pivot
// narrows a window around index k-1 to at most selectCutoff entries for
// minSelect; a window still wider after 2·bits.Len(m) rounds goes to
// slices.Sort (pdqsort). Only comparisons decide the answer, so it is
// bit-identical to a full sort's on input free of NaN and −0.
func selectKth(buf []float64, k int) float64 {
	lo, hi, target := 0, len(buf)-1, k-1
	for depth := 2 * bits.Len(uint(len(buf))); hi-lo >= selectCutoff; depth-- {
		if depth == 0 {
			slices.Sort(buf[lo : hi+1])
			return buf[target]
		}
		a, b, c := buf[lo], buf[lo+(hi-lo)/2], buf[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo-1, hi+1
		for {
			for i++; buf[i] < pivot; i++ {
			}
			for j--; pivot < buf[j]; j-- {
			}
			if i >= j {
				break
			}
			buf[i], buf[j] = buf[j], buf[i]
		}
		// Now buf[lo..j] <= pivot <= buf[j+1..hi] with lo <= j < hi.
		if target <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
	return minSelect(buf[lo:hi+1], target-lo+1)
}

// minSelect returns the k-th smallest value of buf (1-based) by k rounds
// of min-finding, reordering buf in place: O(len(buf)·k).
func minSelect(buf []float64, k int) float64 {
	for i := 0; i < k; i++ {
		least := i
		for j := i + 1; j < len(buf); j++ {
			if buf[j] < buf[least] {
				least = j
			}
		}
		buf[i], buf[least] = buf[least], buf[i]
	}
	return buf[k-1]
}

// --- Plan-level conveniences (pool-backed, safe for concurrent use) ---

// SearchTime is the concurrency-safe convenience form of
// Evaluator.SearchTime.
func (p *Plan) SearchTime(x float64) float64 {
	e := p.evals.get()
	t := e.SearchTime(x)
	p.evals.put(e)
	return t
}

// KthDistinctVisit is the concurrency-safe convenience form of
// Evaluator.KthDistinctVisit.
func (p *Plan) KthDistinctVisit(x float64, k int) (float64, error) {
	e := p.evals.get()
	t, err := e.KthDistinctVisit(x, k)
	p.evals.put(e)
	return t, err
}

// FirstVisits writes robot i's first-visit time at x to dst[i] (dst is
// grown if needed), +Inf when the robot never visits x or its time
// overflows, and returns dst: the times SearchTime selects from.
func (p *Plan) FirstVisits(x float64, dst []float64) []float64 {
	e := p.evals.get()
	dst = slices.Grow(dst[:0], len(p.robots))[:len(p.robots)]
	for i := range p.robots {
		t, idx, ok := p.robots[i].firstVisit(x, e.hints[i])
		e.hints[i] = idx
		if !ok {
			t = math.Inf(1)
		}
		dst[i] = t
	}
	p.evals.put(e)
	return dst
}

// EvalMany is the concurrency-safe convenience form of
// Evaluator.EvalMany.
func (p *Plan) EvalMany(xs []float64, dst []float64) []float64 {
	e := p.evals.get()
	dst = e.EvalMany(xs, dst)
	p.evals.put(e)
	return dst
}

const ctxCheckEvery = 256 // targets EvalManyCtx evaluates between context checks

// EvalManyCtx is EvalMany that returns ctx.Err() once ctx is done,
// checked every ctxCheckEvery targets, so an abandoned request frees its
// worker. A sampled telemetry trace in ctx gets a "kernel.evalmany" span
// with the target count; the untraced path allocates nothing and takes
// no lock, so batch hot loops can call this unconditionally.
func (p *Plan) EvalManyCtx(ctx context.Context, xs []float64, dst []float64) ([]float64, error) {
	_, span := telemetry.StartSpan(ctx, "kernel.evalmany")
	span.SetInt("targets", int64(len(xs)))
	defer span.End()
	dst = slices.Grow(dst[:0], len(xs))[:len(xs)]
	for lo := 0; lo < len(xs); lo += ctxCheckEvery {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p.EvalMany(xs[lo:min(lo+ctxCheckEvery, len(xs))], dst[lo:])
	}
	return dst, nil
}
