package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"linesearch"
	"linesearch/internal/bufpool"
	"linesearch/internal/faultpoint"
	"linesearch/internal/numeric"
	"linesearch/internal/telemetry"
)

// Service-layer fault points: the head of the shared evaluation path
// and the expensive plan construction (see cache.go). Chaos tests arm
// them to prove shed/503 behavior without breaking real evaluations.
const (
	fpServiceEval  = "service.eval"
	fpServiceBuild = "service.build"
)

// Op names accepted by the batch endpoint; each GET endpoint maps to
// exactly one op.
const (
	OpPlan        = "plan"
	OpSearchTime  = "searchtime"
	OpSearchTimes = "searchtimes"
	OpTimeline    = "timeline"
	OpLowerBound  = "lowerbound"
)

// maxBatchTargets caps the xs list of one searchtimes query; larger
// curves should be split across batch items.
const maxBatchTargets = 10000

// maxHorizonFactor caps timeline and turning-point horizons relative to
// the schedule's minimal distance: uniform-spacing schedules produce
// output linear in the horizon, so an unbounded horizon is a trivial
// memory DoS.
const maxHorizonFactor = 1e5

// maxTurningPoints bounds the per-robot corner list in a plan response.
const maxTurningPoints = 256

// Query is one evaluation request. The GET endpoints parse it from URL
// parameters; POST /v1/batch decodes a list of them from JSON (where
// the standard JSON syntax already excludes NaN and infinities).
type Query struct {
	Op       string  `json:"op"`
	N        int     `json:"n"`
	F        int     `json:"f"`
	Strategy string  `json:"strategy,omitempty"`
	MinDist  float64 `json:"mindist,omitempty"` // 0 means the default 1
	X        float64 `json:"x,omitempty"`
	// Xs is the target list of a searchtimes query, evaluated in one
	// pass through the compiled kernel.
	Xs      targetList `json:"xs"`
	K       int        `json:"k,omitempty"` // 0 means the worst-case detection rank
	Faulty  []int      `json:"faulty"`      // nil means the adversarial worst case
	Tmax    float64    `json:"tmax,omitempty"`
	Horizon float64    `json:"horizon,omitempty"`
	// Model selects the fault model ("" or "crash" for the paper's
	// model, "byzantine" for the voting detection rule) and Votes an
	// explicit Byzantine vote threshold (0 means the default f+1).
	Model string `json:"model,omitempty"`
	Votes int    `json:"votes,omitempty"`
	// Liars lists robots that actively lie in a timeline query
	// (byzantine model only); they count against the fault budget
	// together with Faulty, which under byzantine lists silent robots.
	Liars []int `json:"liars,omitempty"`
	// Objective selects the searchtime figure of merit: "" or "worst"
	// for the deterministic worst case, "expected" for the expected
	// detection time when surviving robots miss each visit with
	// probability P. Speeds optionally scales the fleet (one entry
	// broadcasts, otherwise one per robot). None of the three enters
	// the plan-cache key: they are evaluation-time parameters of the
	// same compiled plan.
	Objective string    `json:"objective,omitempty"`
	P         float64   `json:"p,omitempty"`
	Speeds    []float64 `json:"speeds,omitempty"`
}

// apiError carries the HTTP status a failed evaluation maps to.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusOf maps an evaluation error to an HTTP status. Transient
// failures (injected faults, Transient() evaluator errors, and a request
// context cancelled or timed out mid-evaluation) are the server's fault
// and map to a 503 the client should retry; everything else a query can
// make the library reject is the client's fault.
func statusOf(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.status
	}
	if faultpoint.IsTransient(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// PlanResult answers /v1/plan: the plan's parameters, guarantees and
// geometry. The answer writes itself (appendJSON), so encoding/json
// never sees it: its turning points, at most maxTurningPoints per
// robot, are walked from the plan's compiled kernel straight into the
// answer, and no point list is built.
type PlanResult struct {
	N        int
	F        int
	Strategy string
	MinDist  float64
	// Model, Votes and DetectionRank describe the detection rule; each is
	// omitted when "" or 0, as for crash plans, whose responses predate
	// the fault-model surface and stay byte-identical.
	Model            string
	Votes            int
	DetectionRank    int
	Regime           string
	CompetitiveRatio float64
	UpperBound       float64 // null when not finite
	LowerBound       float64 // null when not finite
	Beta             float64 // omitted when not finite
	Expansion        float64 // omitted when not finite
	Horizon          float64
	// searcher walks the turning points up to Horizon.
	searcher *linesearch.Searcher
	// written, when set, receives the length of the answer appendJSON
	// writes.
	written *atomic.Int64
}

// SearchTimeResult answers /v1/searchtime. Time and Ratio are null when
// the plan cannot guarantee detection at x (the visit time is infinite).
// Under objective=expected, Time is the expected detection time over
// the per-visit miss coins, null when the expectation diverges; the
// Objective, P and Speeds fields echo the request and are omitted for
// the deterministic default, whose responses stay byte-identical. The
// answer writes itself (appendJSON), so encoding/json never sees it.
type SearchTimeResult struct {
	N             int
	F             int
	Strategy      string
	Model         string // omitted when ""
	DetectionRank int    // omitted when 0
	X             float64
	K             int
	Objective     string    // omitted when ""
	P             float64   // omitted when 0
	Speeds        []float64 // omitted when empty
	Time          float64   // null when not finite
	Ratio         float64   // null when not finite
	Detected      bool
}

// SearchTimesResult answers a searchtimes query: one worst-case
// detection time per target, evaluated in a single pass through the
// compiled kernel. Times[i] is written as null when the plan cannot
// guarantee detection at the i-th target. The answer writes itself
// (appendJSON), so encoding/json never sees it.
type SearchTimesResult struct {
	N             int
	F             int
	Strategy      string
	Model         string // omitted when ""
	DetectionRank int    // omitted when 0
	Xs            targetList
	Times         []float64
	Detected      int
}

// EventResult is one timeline entry in wire format.
type EventResult struct {
	T     float64 `json:"t"`
	Robot int     `json:"robot"`
	Kind  string  `json:"kind"`
	X     float64 `json:"x"`
}

// TimelineResult answers /v1/timeline.
type TimelineResult struct {
	N             int           `json:"n"`
	F             int           `json:"f"`
	Strategy      string        `json:"strategy"`
	Model         string        `json:"model,omitempty"`
	DetectionRank int           `json:"detection_rank,omitempty"`
	X             float64       `json:"x"`
	Faulty        []int         `json:"faulty"`
	Liars         []int         `json:"liars,omitempty"`
	Tmax          float64       `json:"tmax"`
	Events        []EventResult `json:"events"`
	Detected      bool          `json:"detected"`
	DetectionTime *float64      `json:"detection_time"`
}

// LowerBoundResult answers /v1/lowerbound: the pair-level closed forms,
// no plan construction needed. The answer writes itself (appendJSON).
type LowerBoundResult struct {
	N          int
	F          int
	Regime     string
	UpperBound float64 // null when not finite
	LowerBound float64 // null when not finite
	Beta       float64 // omitted when not finite
	Expansion  float64 // omitted when not finite
}

// normalize fills defaults and rejects out-of-domain values that the
// JSON decoding path cannot have caught. Library-level validation
// (n vs f, strategy names, target domain) happens in eval via the
// hardened linesearch API.
func (q *Query) normalize() error {
	switch q.Op {
	case OpPlan, OpSearchTime, OpSearchTimes, OpTimeline, OpLowerBound:
	case "":
		return badRequest("missing op")
	default:
		return badRequest("unknown op %q (known: plan, searchtime, searchtimes, timeline, lowerbound)", q.Op)
	}
	q.keyDefaults()
	if math.IsNaN(q.MinDist) || math.IsInf(q.MinDist, 0) || q.MinDist <= 0 {
		return badRequest("mindist must be a positive finite number, got %g", q.MinDist)
	}
	if math.IsNaN(q.X) || math.IsInf(q.X, 0) {
		return badRequest("x must be a finite number, got %g", q.X)
	}
	if q.Op == OpSearchTimes {
		if q.Xs.len() == 0 {
			return badRequest("searchtimes requires a non-empty xs list")
		}
		if n := q.Xs.len(); n > maxBatchTargets {
			return badRequest("xs lists %d targets, the limit is %d", n, maxBatchTargets)
		}
		for i, x := range q.Xs.vals {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return badRequest("xs[%d] must be a finite number, got %g", i, x)
			}
		}
	}
	for _, h := range []float64{q.Tmax, q.Horizon} {
		if math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
			return badRequest("horizons must be finite and non-negative, got %g", h)
		}
	}
	if q.Tmax > maxHorizonFactor*q.MinDist {
		return badRequest("tmax %g exceeds the maximum horizon %g", q.Tmax, maxHorizonFactor*q.MinDist)
	}
	if q.Horizon > maxHorizonFactor*q.MinDist {
		return badRequest("horizon %g exceeds the maximum horizon %g", q.Horizon, maxHorizonFactor*q.MinDist)
	}
	if q.K < 0 {
		return badRequest("k must be positive, got %d", q.K)
	}
	switch q.Model {
	case "", "byzantine":
	default:
		return badRequest("unknown fault model %q (want crash or byzantine)", q.Model)
	}
	if q.Votes < 0 {
		return badRequest("votes must be positive, got %d", q.Votes)
	}
	if q.Votes > 0 && q.Model != "byzantine" {
		return badRequest("votes requires model=byzantine")
	}
	if len(q.Liars) > 0 && q.Op != OpTimeline {
		return badRequest("liars is only valid for timeline queries")
	}
	switch q.Objective {
	case "":
	case "worst":
		// Worst-case is the default objective: normalise so an explicit
		// objective=worst shares the default's response shape.
		q.Objective = ""
	case "expected":
		if q.Op != OpSearchTime {
			return badRequest("objective is only valid for searchtime queries")
		}
		if q.Model == "byzantine" {
			return badRequest("objective=expected requires the crash detection rule, not byzantine voting")
		}
		if q.K != 0 {
			return badRequest("k is incompatible with objective=expected (detection is the first surviving confirmation)")
		}
	default:
		return badRequest("unknown objective %q (want worst or expected)", q.Objective)
	}
	if math.IsNaN(q.P) || q.P < 0 || q.P >= 1 {
		return badRequest("p must lie in [0, 1), got %g", q.P)
	}
	if q.P > 0 && q.Objective != "expected" {
		return badRequest("p requires objective=expected")
	}
	if len(q.Speeds) > 0 {
		if q.Op != OpSearchTime {
			return badRequest("speeds is only valid for searchtime queries")
		}
		for i, v := range q.Speeds {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return badRequest("speeds[%d] must be positive and finite, got %g", i, v)
			}
		}
		if len(q.Speeds) != 1 && len(q.Speeds) != q.N {
			return badRequest("speeds lists %d entries for n=%d robots (one entry broadcasts)", len(q.Speeds), q.N)
		}
		if q.K != 0 {
			return badRequest("k requires unit speeds")
		}
	}
	// Liars additionally require a byzantine plan; the plan itself
	// enforces that (the model can come from model= or the strategy
	// name), so the check lives in eval.
	return nil
}

// keyDefaults applies the plan-cache key's defaults: mindist 0 selects
// 1, and crash, the default model, is spelled "" so an explicit
// model=crash shares the default's cache entry and response shape.
func (q *Query) keyDefaults() {
	if q.MinDist == 0 {
		q.MinDist = 1
	}
	if q.Model == "crash" {
		q.Model = ""
	}
}

// key returns the plan-cache key for the query.
func (q Query) key() PlanKey {
	return PlanKey{N: q.N, F: q.F, Strategy: q.Strategy, MinDist: q.MinDist,
		Model: q.Model, Votes: q.Votes}
}

// PlanKeyOf returns the plan-cache key a GET with raw query string
// rawQuery is cached under, so a router's ring key and every backend's
// cache key agree. It reads only the key's parameters, with
// url.ParseQuery's pair rules (pairs split on '&'; a pair holding ';'
// or a bad escape is skipped; a repeated parameter's first value
// counts), then the GET parser's rules and the cache's defaults. Other
// pairs, such as a long target list, are not unescaped. An invalid
// value keeps its zero: the backend answers such a request with a 400,
// and all a ring key needs is determinism.
func PlanKeyOf(rawQuery string) PlanKey {
	names := [...]string{"n", "f", "mindist", "strategy", "model", "votes"}
	var vals [len(names)]string
	var seen [len(names)]bool
	for rest := rawQuery; rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		name, val, _ := strings.Cut(pair, "=")
		name, err := queryUnescape(name)
		if err != nil {
			continue
		}
		i := slices.Index(names[:], name)
		if i < 0 || seen[i] {
			continue
		}
		if vals[i], err = queryUnescape(val); err == nil {
			seen[i] = true
		}
	}
	q := Query{Strategy: vals[3], Model: vals[4]}
	q.N, _ = intValue(vals[0], "n", 0)
	q.F, _ = intValue(vals[1], "f", -1)
	q.MinDist, _ = floatValue(vals[2], "mindist", 1)
	q.Votes, _ = intValue(vals[5], "votes", 0)
	q.keyDefaults()
	return q.key()
}

// queryUnescape is url.QueryUnescape, without its call for the text
// most query strings hold, which has nothing to unescape.
func queryUnescape(s string) (string, error) {
	if !strings.ContainsAny(s, "%+") {
		return s, nil
	}
	return url.QueryUnescape(s)
}

// eval answers one query. It is the single evaluation path shared by
// the GET endpoints and the batch fan-out. A sampled request gets an
// "eval" stage span annotated with the op and cache outcome; untraced
// requests pay nothing for the hooks. A searchtimes answer's times are
// written into sc when it is not nil (see scratch).
func (s *Service) eval(ctx context.Context, q Query, sc *scratch) (any, error) {
	if err := q.normalize(); err != nil {
		return nil, err
	}
	if err := faultpoint.Hit(fpServiceEval); err != nil {
		return nil, err
	}
	ctx, span := telemetry.StartSpan(ctx, "eval")
	span.SetStr("op", q.Op)
	res, err := s.evalOp(ctx, q, sc)
	if err != nil {
		span.SetStr("error", err.Error())
	}
	span.End()
	return res, err
}

func (s *Service) evalOp(ctx context.Context, q Query, sc *scratch) (any, error) {
	switch q.Op {
	case OpPlan:
		return s.evalPlan(ctx, q)
	case OpSearchTime:
		return s.evalSearchTime(ctx, q)
	case OpSearchTimes:
		return s.evalSearchTimes(ctx, q, sc)
	case OpTimeline:
		return s.evalTimeline(ctx, q)
	case OpLowerBound:
		return s.evalLowerBound(q)
	}
	return nil, badRequest("unknown op %q", q.Op)
}

// entry fetches the cache entry for q's plan (building it on a miss),
// annotating the surrounding span with the cache outcome.
func (s *Service) entry(ctx context.Context, q Query) (*cacheEntry, bool, error) {
	e, hit, err := s.cache.get(ctx, q.key())
	telemetry.SpanFrom(ctx).SetBool("cache_hit", hit)
	return e, hit, err
}

// plan fetches the cached (or freshly built) plan for q.
func (s *Service) plan(ctx context.Context, q Query) (*Plan, error) {
	e, _, err := s.entry(ctx, q)
	if err != nil {
		return nil, err
	}
	return e.plan, nil
}

// evalPlan answers a plan query. The default-horizon answer depends on
// the cache key alone, so the entry keeps its encoding: the first hit
// stores the bytes appendJSON writes, and later hits (GET or batch
// item) return the stored bytes as a json.RawMessage without deriving
// geometry and bounds again. The miss before it records the answer's
// length, so the first hit grows its buffer once, however large the
// answer.
func (s *Service) evalPlan(ctx context.Context, q Query) (any, error) {
	e, hit, err := s.entry(ctx, q)
	if err != nil {
		return nil, err
	}
	defaultHorizon := q.Horizon == 0 || q.Horizon == 50*q.MinDist
	if defaultHorizon {
		if body := e.body.Load(); body != nil {
			return json.RawMessage(*body), nil
		}
	}
	res, err := planResult(q, e.plan)
	if err != nil {
		return nil, err
	}
	if !defaultHorizon {
		return res, nil
	}
	if !hit {
		res.written = &e.bodyLen
		return res, nil
	}
	buf := answerBufs.Get()
	defer answerBufs.Put(buf)
	buf.Grow(int(e.bodyLen.Load()))
	if err := encodeResult(ctx, buf, res); err != nil {
		return nil, err
	}
	body := bytes.Clone(buf.Bytes())
	e.body.Store(&body)
	return json.RawMessage(body), nil
}

// planResult derives a plan answer: the pair-level closed-form bounds,
// and the horizon its turning points are walked to when it is written
// (encodeResult, under the span plan.geometry).
func planResult(q Query, plan *Plan) (PlanResult, error) {
	horizon := q.Horizon
	if horizon == 0 {
		horizon = 50 * q.MinDist
	}
	if math.IsInf(horizon, 0) {
		// 50*mindist overflows for mindist past ~3.6e306: refused as
		// Searcher.TurningPoints refuses such a horizon.
		return PlanResult{}, badRequest("linesearch: horizon must be finite and non-negative, got %g", horizon)
	}
	// A byzantine plan's schedule is the crash base at the effective
	// budget rank-1, so the pair-level closed forms apply there.
	boundsF := q.F
	if plan.Searcher.FaultModel() == "byzantine" {
		boundsF = plan.Searcher.DetectionRank() - 1
	}
	bounds, err := linesearch.Bounds(q.N, boundsF)
	if err != nil {
		return PlanResult{}, err
	}
	res := PlanResult{
		N:                q.N,
		F:                q.F,
		Strategy:         plan.Searcher.Strategy(),
		MinDist:          q.MinDist,
		Regime:           bounds.Regime,
		CompetitiveRatio: plan.CR,
		UpperBound:       bounds.Upper,
		LowerBound:       bounds.Lower,
		Beta:             bounds.Beta,
		Expansion:        bounds.Expansion,
		Horizon:          horizon,
		searcher:         plan.Searcher,
	}
	if m := plan.Searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = plan.Searcher.DetectionRank()
		if m == "byzantine" {
			res.Votes = plan.Searcher.Votes()
		}
	}
	return res, nil
}

func (s *Service) evalSearchTime(ctx context.Context, q Query) (any, error) {
	plan, err := s.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	rank := plan.Searcher.DetectionRank()
	k := q.K
	if k == 0 {
		k = rank
	}
	var t float64
	switch {
	case q.Objective == "expected":
		t, err = plan.Searcher.ExpectedSearchTime(q.X, q.P, q.Speeds)
	case len(q.Speeds) > 0:
		t, err = plan.Searcher.SearchTimeWithSpeeds(q.X, q.Speeds)
	case k == rank:
		t, err = plan.Searcher.SearchTime(q.X)
	default:
		t, err = plan.Searcher.KthVisitTime(q.X, k)
	}
	if err != nil {
		return nil, err
	}
	res := SearchTimeResult{
		N:         q.N,
		F:         q.F,
		Strategy:  plan.Searcher.Strategy(),
		X:         q.X,
		K:         k,
		Objective: q.Objective,
		P:         q.P,
		Speeds:    q.Speeds,
		// An undetected target's +Inf makes both null.
		Time:     t,
		Ratio:    t / math.Abs(q.X),
		Detected: !math.IsInf(t, 1),
	}
	if m := plan.Searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = rank
	}
	return res, nil
}

func (s *Service) evalSearchTimes(ctx context.Context, q Query, sc *scratch) (any, error) {
	plan, err := s.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	var dst []float64
	if sc != nil {
		dst = sc.times
	}
	times, err := plan.Searcher.SearchTimesInto(ctx, q.Xs.vals, dst)
	if err != nil {
		return nil, err
	}
	if sc != nil {
		sc.times = times
	}
	res := SearchTimesResult{
		N:        q.N,
		F:        q.F,
		Strategy: plan.Searcher.Strategy(),
		Xs:       q.Xs,
		Times:    times,
	}
	if m := plan.Searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = plan.Searcher.DetectionRank()
	}
	for _, t := range times {
		if !math.IsNaN(t) && !math.IsInf(t, 0) {
			res.Detected++
		}
	}
	return res, nil
}

func (s *Service) evalTimeline(ctx context.Context, q Query) (any, error) {
	plan, err := s.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	searcher := plan.Searcher
	faulty := q.Faulty
	if faulty == nil && len(q.Liars) == 0 {
		// The adversarial worst case corrupts the earliest visitors;
		// with an explicit liar list the caller owns the assignment.
		faulty = searcher.WorstFaultSet(q.X)
		if faulty == nil {
			faulty = []int{}
		}
	}
	if faulty == nil {
		faulty = []int{}
	}
	tmax := q.Tmax
	if tmax == 0 {
		worst, err := searcher.SearchTime(q.X)
		if err != nil {
			return nil, err
		}
		tmax = 1.05 * worst
		if math.IsInf(tmax, 1) || tmax > maxHorizonFactor*q.MinDist {
			tmax = 100 * math.Abs(q.X)
		}
	}
	_, span := telemetry.StartSpan(ctx, "timeline.events")
	var events []linesearch.Event
	if searcher.FaultModel() == "byzantine" || len(q.Liars) > 0 {
		// TimelineFaults rejects liars on a crash plan.
		events, err = searcher.TimelineFaults(q.X, faulty, q.Liars, tmax)
	} else {
		events, err = searcher.Timeline(q.X, faulty, tmax)
	}
	span.SetInt("events", int64(len(events)))
	span.End()
	if err != nil {
		return nil, err
	}
	res := TimelineResult{
		N:        q.N,
		F:        q.F,
		Strategy: searcher.Strategy(),
		X:        q.X,
		Faulty:   faulty,
		Liars:    q.Liars,
		Tmax:     tmax,
		Events:   make([]EventResult, len(events)),
	}
	if m := searcher.FaultModel(); m != "crash" {
		res.Model = m
		res.DetectionRank = searcher.DetectionRank()
	}
	for i, e := range events {
		res.Events[i] = EventResult{T: e.T, Robot: e.Robot, Kind: e.Kind, X: e.X}
		if e.Kind == "detect" && !res.Detected {
			res.Detected = true
			if t := e.T; finite(t) {
				res.DetectionTime = &t
			}
		}
	}
	return res, nil
}

func (s *Service) evalLowerBound(q Query) (any, error) {
	bounds, err := linesearch.Bounds(q.N, q.F)
	if err != nil {
		return nil, err
	}
	return LowerBoundResult{
		N:          q.N,
		F:          q.F,
		Regime:     bounds.Regime,
		UpperBound: bounds.Upper,
		LowerBound: bounds.Lower,
		Beta:       bounds.Beta,
		Expansion:  bounds.Expansion,
	}, nil
}

// --- URL parameter parsing -------------------------------------------

// paramSpec lists the parameters each op accepts; anything else in the
// query string is a 400 (catches typos like "stratgy" that would
// otherwise be silently ignored).
var paramSpec = map[string]map[string]bool{
	OpPlan:        {"n": true, "f": true, "strategy": true, "mindist": true, "horizon": true, "model": true, "votes": true},
	OpSearchTime:  {"n": true, "f": true, "strategy": true, "mindist": true, "x": true, "k": true, "model": true, "votes": true, "objective": true, "p": true, "speeds": true},
	OpSearchTimes: {"n": true, "f": true, "strategy": true, "mindist": true, "xs": true, "model": true, "votes": true},
	OpTimeline:    {"n": true, "f": true, "strategy": true, "mindist": true, "x": true, "faulty": true, "tmax": true, "model": true, "votes": true, "liars": true},
	OpLowerBound:  {"n": true, "f": true},
}

// parseQuery builds a Query for op from URL parameters. A target list
// is parsed into sc's targets when sc is not nil (see scratch).
func parseQuery(op string, v url.Values, sc *scratch) (Query, error) {
	q := Query{Op: op}
	// Of the names that are unknown or given more than once, the first
	// in sorted order is named, so one query always gets one answer.
	allowed := paramSpec[op]
	bad, found := "", false
	for name, vals := range v {
		if (!allowed[name] || len(vals) > 1) && (!found || name < bad) {
			bad, found = name, true
		}
	}
	if found {
		if !allowed[bad] {
			return q, badRequest("unknown parameter %q for %s", bad, op)
		}
		return q, badRequest("parameter %q given %d times", bad, len(v[bad]))
	}

	var err error
	if q.N, err = intParam(v, "n", 0); err != nil {
		return q, err
	}
	if q.F, err = intParam(v, "f", -1); err != nil {
		return q, err
	}
	if !v.Has("n") || !v.Has("f") {
		return q, badRequest("parameters n and f are required")
	}
	q.Strategy = v.Get("strategy")
	if q.MinDist, err = floatParam(v, "mindist", 1); err != nil {
		return q, err
	}
	if q.X, err = floatParam(v, "x", 0); err != nil {
		return q, err
	}
	if (op == OpSearchTime || op == OpTimeline) && !v.Has("x") {
		return q, badRequest("parameter x is required for %s", op)
	}
	if q.K, err = intParam(v, "k", 0); err != nil {
		return q, err
	}
	if q.Tmax, err = floatParam(v, "tmax", 0); err != nil {
		return q, err
	}
	if q.Horizon, err = floatParam(v, "horizon", 0); err != nil {
		return q, err
	}
	q.Model = v.Get("model")
	if q.Votes, err = intParam(v, "votes", 0); err != nil {
		return q, err
	}
	if raw := v.Get("faulty"); raw != "" {
		if q.Faulty, err = parseIndexList(raw); err != nil {
			return q, err
		}
	}
	if raw := v.Get("liars"); raw != "" {
		if q.Liars, err = parseIndexList(raw); err != nil {
			return q, err
		}
	}
	if raw := v.Get("xs"); raw != "" {
		var dst []float64
		if sc != nil {
			dst = sc.xs
		}
		if q.Xs, err = parseTargets(raw, dst); err != nil {
			return q, err
		}
		if sc != nil && q.Xs.vals != nil {
			sc.xs = q.Xs.vals
		}
	}
	q.Objective = v.Get("objective")
	if q.P, err = floatParam(v, "p", 0); err != nil {
		return q, err
	}
	if raw := v.Get("speeds"); raw != "" {
		if q.Speeds, _, err = readFloats(raw, "speed", nil); err != nil {
			return q, err
		}
	}
	if op == OpSearchTimes && q.Xs.len() == 0 {
		return q, badRequest("parameter xs is required for %s", op)
	}
	return q, nil
}

// intParam parses an optional integer parameter.
func intParam(v url.Values, name string, def int) (int, error) {
	return intValue(v.Get(name), name, def)
}

// intValue parses the value raw of an optional integer parameter.
func intValue(raw, name string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	i, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("parameter %q must be an integer, got %q", name, raw)
	}
	return i, nil
}

// floatParam parses an optional finite float parameter.
func floatParam(v url.Values, name string, def float64) (float64, error) {
	return floatValue(v.Get(name), name, def)
}

// floatValue parses the value raw of an optional finite float
// parameter.
func floatValue(raw, name string, def float64) (float64, error) {
	if raw == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequest("parameter %q must be a number, got %q", name, raw)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, badRequest("parameter %q must be finite, got %q", name, raw)
	}
	return f, nil
}

// parseIndexList parses "0,2,5" into an index list.
func parseIndexList(raw string) ([]int, error) {
	out := make([]int, 0, strings.Count(raw, ",")+1)
	for rest, more := raw, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ",")
		idx, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, badRequest("invalid robot index %q", p)
		}
		out = append(out, idx)
	}
	return out, nil
}

// --- HTTP handlers ----------------------------------------------------

// newline ends every JSON answer, as json.Encoder would.
var newline = []byte("\n")

// Each role that encodes or reads a whole answer keeps its own pool
// (see bufpool): a pooled buffer grows only to the answers of its role.
var (
	answerBufs    bufpool.Pool // GET answers, encoded by writeJSON
	batchBodies   bufpool.Pool // batch request bodies
	batchItemBufs bufpool.Pool // one per batch worker: its items' encodings
	envelopeBufs  bufpool.Pool // whole batch answers
)

// scratch holds the float slices a searchtimes evaluation reuses: the
// targets a GET parses (xs) and the times the kernel writes (times). A
// SearchTimesResult holds both, so a scratch goes back to scratches
// only once the answer holding them is written. A batch worker keeps
// one for all its items and writes each item's answer before
// evaluating the next; batch targets live in the BatchRequest.
type scratch struct{ xs, times []float64 }

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// writeJSON writes v as a JSON answer with the given status. An
// already encoded json.RawMessage is written as it is; any other value
// is encoded into a pooled buffer by encodeResult (traced under ctx),
// which writes json.Marshal's bytes, followed by a newline as
// json.Encoder ends an answer, and written in one Write. Encode errors
// turn into a 500 (they indicate a server bug, not bad input).
func (s *Service) writeJSON(ctx context.Context, w http.ResponseWriter, status int, v any) {
	if data, ok := v.(json.RawMessage); ok {
		writeParts(w, status, data, newline)
		return
	}
	buf := answerBufs.Get()
	defer answerBufs.Put(buf)
	if err := encodeResult(ctx, buf, v); err != nil {
		s.encodeFailed(w, err)
		return
	}
	buf.Write(newline)
	writeParts(w, status, buf.Bytes())
}

// encodeFailed answers a result that cannot be encoded with a 500.
func (s *Service) encodeFailed(w http.ResponseWriter, err error) {
	s.logger.Error("marshal response", "err", err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	fmt.Fprintf(w, `{"error":"internal: cannot encode response"}`)
}

// writeParts writes the concatenation of parts as a JSON answer with
// the given status. It declares the exact Content-Length, so net/http
// never chunks the body and a router reads it into one buffer.
func writeParts(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		w.Write(p)
	}
}

// handleQuery serves one GET endpoint backed by eval. A searchtimes
// GET parses its targets and evaluates its times into a pooled
// scratch, which goes back once the answer is written.
func (s *Service) handleQuery(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var sc *scratch
		if op == OpSearchTimes {
			sc = scratches.Get().(*scratch)
			defer scratches.Put(sc)
		}
		q, err := parseQuery(op, r.URL.Query(), sc)
		if err != nil {
			telemetry.WriteJSONError(w, statusOf(err), err.Error())
			return
		}
		res, err := s.eval(r.Context(), q, sc)
		if err != nil {
			telemetry.WriteJSONError(w, statusOf(err), err.Error())
			return
		}
		s.writeJSON(r.Context(), w, http.StatusOK, res)
	}
}

// BatchRequest is the POST /v1/batch payload.
type BatchRequest struct {
	Queries []Query `json:"queries"`
	// targets holds the target values of every searchtimes query that
	// scanBatch decoded, each query's carved out in turn.
	targets []float64
}

// reset empties the request for a new body, keeping its backing arrays.
// encoding/json decodes into the elements already in the query list's
// backing array and keeps every field a body omits: they start from
// zeros.
func (r *BatchRequest) reset() {
	clear(r.Queries[:cap(r.Queries)])
	r.Queries = r.Queries[:0]
	r.targets = r.targets[:0]
}

// maxBatchBody caps a batch request body.
const maxBatchBody = 1 << 20

// batchItem is one batch answer: the result's JSON when ok, else its
// error message as a JSON string. The bytes are raw (a stored plan
// body) or lie at [start, end) of worker w's buffer.
type batchItem struct {
	ok         bool
	raw        []byte
	w          int
	start, end int
}

// The batch envelope's fixed bytes. A response is
// {"results":[{"ok":true,"result":…},{"ok":false,"error":"…"}],"errors":N}
// followed by a newline: the encoding a struct of
// {Results []{OK, Result any, Error string}; Errors int} gets from
// encoding/json, which re-emits an embedded json.RawMessage compacted
// and HTML-escaped, as json.Marshal already wrote it.
var (
	batchOpen   = []byte(`{"results":[`)
	batchOK     = []byte(`{"ok":true,"result":`)
	batchFailed = []byte(`{"ok":false,"error":`)
	batchNext   = []byte(`},`)
	batchClose  = []byte(`}],"errors":`)
)

// batchRequests recycles decoded batch requests and their query lists.
var batchRequests = sync.Pool{New: func() any { return new(BatchRequest) }}

// decodeBatch decodes a batch request body into req, reusing its
// backing arrays: one JSON object with no unknown fields, followed by
// nothing but JSON whitespace. scanBatch reads the bodies clients
// usually send in one pass; anything else goes to decodeBatchJSON,
// which alone decides what is accepted and words every rejection.
func decodeBatch(body []byte, req *BatchRequest) error {
	req.reset()
	if scanBatch(body, req) {
		return nil
	}
	return decodeBatchJSON(body, req)
}

// decodeBatchJSON decodes a batch request body into req through
// encoding/json: the specification scanBatch's subset must agree with.
func decodeBatchJSON(body []byte, req *BatchRequest) error {
	req.reset()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	off := dec.InputOffset()
	if rest := bytes.TrimLeft(body[off:], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("unexpected data after the JSON object at offset %d", len(body)-len(rest))
	}
	return nil
}

// handleBatch fans a list of queries out over the worker pool and
// reports per-query results. The body is read into a pooled buffer and
// decoded from it into a pooled request, which goes back once the
// answer is written unless it holds more than MaxBatch queries or more
// than maxBatchTargets targets. Each worker evaluates into its own
// pooled scratch and encodes its items into its own pooled buffer (a
// cached plan body is used as it is), and the answer is assembled
// around those bytes into one pooled buffer and written in one Write.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	in := batchBodies.Get()
	defer batchBodies.Put(in)
	if n := r.ContentLength; n > 0 && n <= maxBatchBody {
		in.Grow(int(n) + bytes.MinRead) // ReadFrom's EOF probe fits too
	}
	_, err := in.ReadFrom(http.MaxBytesReader(w, r.Body, maxBatchBody))
	req := batchRequests.Get().(*BatchRequest)
	defer func() {
		if cap(req.Queries) <= s.cfg.MaxBatch && cap(req.targets) <= maxBatchTargets {
			batchRequests.Put(req)
		}
	}()
	if err == nil {
		err = decodeBatch(in.Bytes(), req)
	}
	if err != nil {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "invalid batch body: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		telemetry.WriteJSONError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		telemetry.WriteJSONError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d queries exceeds the limit %d", len(req.Queries), s.cfg.MaxBatch))
		return
	}

	items := make([]batchItem, len(req.Queries))
	ctx, span := telemetry.StartSpan(r.Context(), "batch.fanout")
	span.SetInt("queries", int64(len(req.Queries)))
	workers := min(s.cfg.BatchWorkers, len(req.Queries))
	span.SetInt("workers", int64(workers))
	// Worker wk alone touches bufs[wk] and scs[wk] until ForEach
	// returns; it writes each item's answer before its next eval reuses
	// scs[wk].
	bufs := make([]*bytes.Buffer, workers)
	scs := make([]*scratch, workers)
	defer func() {
		for wk, b := range bufs {
			batchItemBufs.Put(b)
			if scs[wk] != nil {
				scratches.Put(scs[wk])
			}
		}
	}()
	err = numeric.ForEach(ctx, len(req.Queries), workers, func(wk, i int) error {
		if scs[wk] == nil {
			scs[wk] = scratches.Get().(*scratch)
		}
		var v any
		res, err := s.eval(ctx, req.Queries[i], scs[wk])
		if err != nil {
			v = err.Error()
		} else {
			items[i].ok = true
			v = res
		}
		if raw, ok := v.(json.RawMessage); ok {
			items[i].raw = raw
			return nil
		}
		buf := bufs[wk]
		if buf == nil {
			buf = batchItemBufs.Get()
			bufs[wk] = buf
		}
		start := buf.Len()
		if err := encodeResult(ctx, buf, v); err != nil {
			return err
		}
		items[i].w, items[i].start, items[i].end = wk, start, buf.Len()
		return nil
	})
	span.End()
	if err != nil {
		if ctx.Err() != nil {
			// The client went away or the request timed out mid-batch.
			telemetry.WriteJSONError(w, http.StatusServiceUnavailable, "batch cancelled: "+err.Error())
		} else {
			s.encodeFailed(w, err)
		}
		return
	}
	body := func(it batchItem) []byte {
		if it.raw != nil {
			return it.raw
		}
		return bufs[it.w].Bytes()[it.start:it.end]
	}
	size := len(batchOpen) + len(batchClose) + 22 // 22: the count and "}\n"
	for _, it := range items {
		size += len(batchNext) + len(batchFailed) + len(body(it)) // the longer prefix
	}
	env := envelopeBufs.Get()
	defer envelopeBufs.Put(env)
	env.Grow(size)
	env.Write(batchOpen)
	errs := 0
	for i, it := range items {
		if i > 0 {
			env.Write(batchNext)
		}
		if it.ok {
			env.Write(batchOK)
		} else {
			env.Write(batchFailed)
			errs++
		}
		env.Write(body(it))
	}
	env.Write(batchClose)
	env.Write(strconv.AppendInt(env.AvailableBuffer(), int64(errs), 10))
	env.WriteString("}\n")
	writeParts(w, http.StatusOK, env.Bytes())
}

// handleMetrics exports the counters. The default is the expvar-style
// JSON snapshot (byte-compatible with PR 4 for pre-existing fields);
// clients negotiating text/plain or OpenMetrics via the Accept header
// — i.e. a Prometheus scraper — get the text exposition format
// instead. ?format=prometheus|json overrides the negotiation.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot(s.cache.Stats(), s.sweeps.Stats(), s.resilience())
	snap.Traces = s.tracer.Stats()
	snap.JournalEvents = s.journal.Counts()
	if telemetry.WantsPrometheus(r) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		writePrometheus(w, snap)
		return
	}
	s.writeJSON(r.Context(), w, http.StatusOK, snap)
}

// resilience snapshots the admission-control and fault-injection
// counters for /metrics.
func (s *Service) resilience() ResilienceStats {
	rs := ResilienceStats{
		Shed:     make(map[string]int64, len(s.limiters)),
		Inflight: make(map[string]int64, len(s.limiters)),
	}
	for name, lim := range s.limiters {
		rs.Shed[name] = lim.shed.Load()
		rs.Inflight[name] = lim.inflight.Load()
	}
	fp := faultpoint.Stats()
	rs.FaultPointsArmed = fp.Armed
	rs.FaultsInjected = fp.Injected
	return rs
}

// handleHealthz is the liveness probe.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(r.Context(), w, http.StatusOK, map[string]string{"status": "ok"})
}
