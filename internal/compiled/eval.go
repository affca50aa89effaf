package compiled

import (
	"context"
	"fmt"
	"math"
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
	// times of the robots that ever reach the target. The k-th distinct
	// visit is extracted by partial selection (k rounds of min-finding),
	// never a full sort.
	buf []float64
	// hints caches each robot's last covering corner index; consecutive
	// queries for nearby (in particular sorted) targets then re-enter
	// the binary search on a narrowed window.
	hints []int
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
	m := e.gatherVisits(x)
	if m < k {
		return math.Inf(1), nil
	}
	return selectKth(e.buf[:m], k), nil
}

// SearchTime returns the worst-case detection time for a target at x:
// the first visit of the DetectionRank-th distinct robot ((f+1)-st in
// the crash model, (f+votes)-th under the Byzantine voting rule), +Inf
// if fewer robots ever visit. Matches sim.Plan.SearchTime.
func (e *Evaluator) SearchTime(x float64) float64 {
	k := e.plan.rank
	m := e.gatherVisits(x)
	if m < k {
		return math.Inf(1)
	}
	return selectKth(e.buf[:m], k)
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
	for i, ct := range e.plan.robots {
		t, idx, ok := ct.firstVisit(x, e.hints[i])
		e.hints[i] = idx
		if ok {
			e.buf[m] = t
			m++
		}
	}
	return m
}

// selectKth returns the k-th smallest value of buf (1-based) by partial
// selection, reordering buf in place. O(k*n), zero allocations; for the
// search-time workload k = f+1 <= n this beats a full sort and never
// touches the heap.
func selectKth(buf []float64, k int) float64 {
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(buf); j++ {
			if buf[j] < buf[min] {
				min = j
			}
		}
		buf[i], buf[min] = buf[min], buf[i]
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

// EvalMany is the concurrency-safe convenience form of
// Evaluator.EvalMany.
func (p *Plan) EvalMany(xs []float64, dst []float64) []float64 {
	e := p.evals.get()
	dst = e.EvalMany(xs, dst)
	p.evals.put(e)
	return dst
}

// EvalManyCtx is EvalMany with trace plumbing: when ctx carries a
// sampled telemetry trace, the batch pass records a "kernel.evalmany"
// span annotated with the target count. The untraced path takes the
// nil-span fast path — no allocations, no locking — so batch hot loops
// can call this unconditionally.
func (p *Plan) EvalManyCtx(ctx context.Context, xs []float64, dst []float64) []float64 {
	_, span := telemetry.StartSpan(ctx, "kernel.evalmany")
	span.SetInt("targets", int64(len(xs)))
	dst = p.EvalMany(xs, dst)
	span.End()
	return dst
}
