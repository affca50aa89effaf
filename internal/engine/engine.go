// Package engine is the repository's stochastic evaluation backend: a
// seeded discrete-event simulator for search plans that the closed-form
// machinery of internal/sim cannot express — heterogeneous robot
// speeds, per-visit probabilistic detection failures (the p-faulty
// model of arXiv:2002.07797) and late detection reports.
//
// A simulation run is a priority-queue scheduler over typed events
// (start, fault-activation, turn, visit, claim, false-claim, detect)
// driving per-robot state machines. Each robot walks its closed-form
// trajectory segment by segment — the geometry stays exact; only the
// *outcomes* of visits are stochastic. Randomness follows a splittable
// stream discipline (see rng.go) so results are a pure function of
// (seed, trial), independent of parallelism.
//
// Where internal/sim overlaps (unit speeds, no stochastic kinds), the
// engine reproduces its detection times exactly; the differential tests
// in engine_test.go and the FuzzEngineVsSim target pin that equivalence.
package engine

import (
	"fmt"
	"math"

	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/trajectory"
)

// RobotSpec describes one robot: its (unit-speed, closed-form)
// trajectory, the speed it executes that trajectory at, and its fault
// process. A robot of speed s traverses the same spatial path with all
// times divided by s, so trajectories stay unit-speed geometry and
// heterogeneity lives entirely here.
type RobotSpec struct {
	Traj *trajectory.Trajectory
	// Speed must be positive and finite; 0 defaults to 1.
	Speed float64
	// Kind selects the fault process. Reliable robots claim at their
	// first visit; Crash and ByzantineSilent never claim; ByzantineLiar
	// never claims truthfully (and emits a false claim at its first
	// visit); PFaulty robots flip an independent coin at every visit,
	// claiming with probability 1-P; Delay robots claim Latency (plus a
	// uniform [0, Jitter) draw) after their first visit.
	Kind fault.Kind
	// P is the per-visit detection-failure probability of a PFaulty
	// robot, in [0, 1). Other kinds require 0.
	P float64
	// Latency is a Delay robot's fixed reporting delay (>= 0). Other
	// kinds require 0.
	Latency float64
	// Jitter widens a Delay robot's latency by a uniform [0, Jitter)
	// draw. Other kinds require 0.
	Jitter float64
}

// speed returns the effective speed (default 1).
func (r RobotSpec) speed() float64 {
	if r.Speed == 0 {
		return 1
	}
	return r.Speed
}

// validate checks one spec.
func (r RobotSpec) validate(i int) error {
	if r.Traj == nil {
		return fmt.Errorf("engine: robot %d has nil trajectory", i)
	}
	if err := r.Traj.Validate(); err != nil {
		return fmt.Errorf("engine: robot %d: %w", i, err)
	}
	s := r.speed()
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
		return fmt.Errorf("engine: robot %d speed %g must be positive and finite", i, r.Speed)
	}
	if _, err := fault.ParseKind(r.Kind.String()); err != nil {
		return fmt.Errorf("engine: robot %d has invalid fault kind %d", i, uint8(r.Kind))
	}
	if r.Kind == fault.PFaulty {
		if !(r.P >= 0 && r.P < 1) {
			return fmt.Errorf("engine: robot %d detection-failure probability p=%v outside [0, 1)", i, r.P)
		}
	} else if r.P != 0 {
		return fmt.Errorf("engine: robot %d kind %s does not take p (got %g)", i, r.Kind, r.P)
	}
	if r.Kind == fault.Delay {
		if math.IsNaN(r.Latency) || math.IsInf(r.Latency, 0) || r.Latency < 0 {
			return fmt.Errorf("engine: robot %d delay latency %g must be finite and non-negative", i, r.Latency)
		}
		if math.IsNaN(r.Jitter) || math.IsInf(r.Jitter, 0) || r.Jitter < 0 {
			return fmt.Errorf("engine: robot %d delay jitter %g must be finite and non-negative", i, r.Jitter)
		}
	} else if r.Latency != 0 || r.Jitter != 0 {
		return fmt.Errorf("engine: robot %d kind %s does not take a latency", i, r.Kind)
	}
	return nil
}

// claimCapable reports whether the fault process can ever produce a
// truthful claim.
func (r RobotSpec) claimCapable() bool {
	switch r.Kind {
	case fault.Reliable, fault.PFaulty, fault.Delay:
		return true
	default:
		return false
	}
}

// Options tunes an Engine.
type Options struct {
	// Votes is the detection rule's threshold: the number of distinct
	// robots that must truthfully claim the target before it counts as
	// found. 0 defaults to 1 (the crash-model rule).
	Votes int
	// MaxEvents caps one run's dispatched events as a divergence guard
	// (a p-faulty fleet with p near 1 can fail coins for a very long
	// time). A capped run reports Truncated with DetectTime +Inf.
	// 0 defaults to DefaultMaxEvents.
	MaxEvents int
}

// DefaultMaxEvents is the default per-run event cap.
const DefaultMaxEvents = 1 << 20

// Engine runs searches for one fixed fleet. It is NOT safe for
// concurrent use — its scheduler state is reused across runs to keep
// steady-state dispatch allocation-free; give each goroutine its own
// Engine (they are cheap).
type Engine struct {
	robots    []RobotSpec
	votes     int
	maxEvents int

	q  eventQueue
	st []robotState
}

// robotState is the per-run mutable state of one robot's machine. The
// fetched visit and segment streams survive across runs — segments
// never depend on the target, and visits are invalidated only when the
// target moves — so repeated Search calls (the Monte-Carlo loop) pay
// closed-form trajectory queries once, not per trial.
type robotState struct {
	rng     Stream
	speed   float64 // cached effective speed
	claimed bool    // counted toward the vote
	retired bool    // will never claim in this run (or never could)
	// visit stream (PFaulty kinds walk it; single-visit kinds use
	// firstScheduled instead)
	visits         []float64
	vi             int     // next unconsumed index into visits
	horizon        float64 // base-time horizon visits covers
	visitsX        float64 // target the cached visits belong to
	lastVisit      float64 // base time of last scheduled visit, for dedupe
	firstScheduled bool
	// segment cursor feeding turn events
	segs       []geom.Segment
	si         int
	segHorizon float64
	segsDone   bool
}

// New validates the fleet and returns an Engine.
func New(robots []RobotSpec, opts Options) (*Engine, error) {
	if len(robots) == 0 {
		return nil, fmt.Errorf("engine: fleet needs at least one robot")
	}
	for i, r := range robots {
		if err := r.validate(i); err != nil {
			return nil, err
		}
	}
	votes := opts.Votes
	if votes == 0 {
		votes = 1
	}
	if votes < 1 || votes > len(robots) {
		return nil, fmt.Errorf("engine: vote threshold %d outside [1, %d]", votes, len(robots))
	}
	maxEvents := opts.MaxEvents
	if maxEvents == 0 {
		maxEvents = DefaultMaxEvents
	}
	if maxEvents < 1 {
		return nil, fmt.Errorf("engine: MaxEvents must be positive, got %d", opts.MaxEvents)
	}
	return &Engine{
		robots:    append([]RobotSpec(nil), robots...),
		votes:     votes,
		maxEvents: maxEvents,
		st:        make([]robotState, len(robots)),
	}, nil
}

// N returns the fleet size.
func (e *Engine) N() int { return len(e.robots) }

// Result summarises one run.
type Result struct {
	// Detected reports whether the vote threshold was reached;
	// DetectTime is the detection time (+Inf when not detected).
	Detected   bool
	DetectTime float64
	// Claims counts distinct truthful claimants (== the vote threshold
	// on detection; fewer when the run starved or truncated).
	Claims int
	// Events counts dispatched events; Truncated reports the MaxEvents
	// cap firing.
	Events    int
	Truncated bool
}

// visitDedupeTol collapses the twin visit times a turning point at the
// target would produce (segment end and next segment start are the same
// physical contact). Matches trajectory's contiguity tolerance.
const visitDedupeTol = 1e-9

// Search runs one simulation of a target at x. stream is the run's
// random stream (typically a per-trial split of a root stream); runs
// with no stochastic robots never consume it. The result is a pure
// function of (fleet, options, x, stream).
//
// The run's liveness invariant: live counts claim-capable robots that
// have neither claimed nor been retired (their claim pipeline — visit
// events, coin flips, pending claims — may still produce a vote). When
// live reaches zero with no detect event scheduled, the remaining queue
// is motion with no observer and the target is never found.
func (e *Engine) Search(x float64, stream Stream) (Result, error) {
	e.q.reset()
	live := 0
	for i := range e.robots {
		r := &e.robots[i]
		st := &e.st[i]
		st.rng = stream.Split(uint64(i))
		st.speed = r.speed()
		st.claimed = false
		st.vi = 0
		st.lastVisit = math.Inf(-1)
		st.firstScheduled = false
		st.si = 0
		if st.visitsX != x || len(st.visits) == 0 && st.horizon == 0 {
			// Target moved (or first run): drop the cached visit stream.
			st.visits = st.visits[:0]
			st.horizon = 0
			st.visitsX = x
		}
		st.retired = !r.claimCapable()
		if !st.retired {
			live++
		}
		start := r.Traj.Start()
		e.q.push(Event{T: start.T / st.speed, Kind: EventStart, Robot: i, X: start.X})
	}

	res := Result{DetectTime: math.Inf(1)}
	votesLeft := e.votes
	detectScheduled := false
	for {
		if live == 0 && !detectScheduled {
			break
		}
		ev, ok := e.q.pop()
		if !ok {
			break
		}
		res.Events++
		if res.Events > e.maxEvents {
			res.Truncated = true
			break
		}
		switch ev.Kind {
		case EventStart:
			r := &e.robots[ev.Robot]
			if r.Kind.Faulty() {
				e.q.push(Event{T: ev.T, Kind: EventFaultActivation, Robot: ev.Robot, X: ev.X})
			}
			e.scheduleNextTurn(ev.Robot)
			e.scheduleNextVisit(ev.Robot, x, &live)

		case EventFaultActivation, EventFalseClaim:
			// Markers: dispatched and counted, no effect on detection.

		case EventTurn:
			e.scheduleNextTurn(ev.Robot)

		case EventVisit:
			e.handleVisit(ev, x, &live)

		case EventClaim:
			st := &e.st[ev.Robot]
			if st.claimed {
				break
			}
			st.claimed = true
			live--
			res.Claims++
			votesLeft--
			if votesLeft == 0 {
				e.q.push(Event{T: ev.T, Kind: EventDetect, Robot: ev.Robot, X: x})
				detectScheduled = true
			}

		case EventDetect:
			res.Detected = true
			res.DetectTime = ev.T
			return res, nil
		}
	}
	return res, nil
}

// handleVisit dispatches one visit of the target: draw the robot's
// fault process, possibly schedule a claim, and keep its visit stream
// going when the process wants more chances.
func (e *Engine) handleVisit(ev Event, x float64, live *int) {
	r := &e.robots[ev.Robot]
	st := &e.st[ev.Robot]
	switch r.Kind {
	case fault.Reliable:
		e.q.push(Event{T: ev.T, Kind: EventClaim, Robot: ev.Robot, X: x})

	case fault.PFaulty:
		if st.rng.Float64() >= r.P {
			// Coin success: claim now; later coins are irrelevant, so
			// the visit stream stops here.
			e.q.push(Event{T: ev.T, Kind: EventClaim, Robot: ev.Robot, X: x})
		} else {
			e.scheduleNextVisit(ev.Robot, x, live)
		}

	case fault.Delay:
		lat := r.Latency
		if r.Jitter > 0 {
			lat += st.rng.Float64() * r.Jitter
		}
		e.q.push(Event{T: ev.T + lat, Kind: EventClaim, Robot: ev.Robot, X: x})

	case fault.ByzantineLiar:
		// Never truthfully confirms; fabricates a claim elsewhere (the
		// recorded position is where the fabrication happened).
		e.q.push(Event{T: ev.T, Kind: EventFalseClaim, Robot: ev.Robot, X: x})

	default:
		// Crash and ByzantineSilent visits are silent.
	}
}

// visitHorizonMax bounds the base-time horizon scanned for further
// visits; past it the robot is treated as never visiting again.
const visitHorizonMax = 1e15

// scheduleNextVisit pushes the robot's next visit event of x. Reliable
// and Delay robots act only on their first visit; PFaulty robots walk
// their full (deduplicated) visit stream, fetched on demand; liars get
// their first visit for the false-claim marker. A claim-capable robot
// whose stream runs out is retired from the live count.
func (e *Engine) scheduleNextVisit(robot int, x float64, live *int) {
	r := &e.robots[robot]
	st := &e.st[robot]
	switch r.Kind {
	case fault.Reliable, fault.Delay, fault.ByzantineLiar:
		if st.firstScheduled {
			return
		}
		st.firstScheduled = true
		base, ok := r.Traj.FirstVisit(x)
		if !ok {
			e.retire(robot, live)
			return
		}
		e.q.push(Event{T: base / st.speed, Kind: EventVisit, Robot: robot, X: x})

	case fault.PFaulty:
		for {
			if st.vi < len(st.visits) {
				base := st.visits[st.vi]
				st.vi++
				if base-st.lastVisit <= visitDedupeTol {
					continue // twin contact at a turning point
				}
				st.lastVisit = base
				e.q.push(Event{T: base / st.speed, Kind: EventVisit, Robot: robot, X: x})
				return
			}
			if !e.extendVisits(robot, x) {
				e.retire(robot, live)
				return
			}
		}

	default:
		// Crash and ByzantineSilent never act on visits; skip the
		// events entirely.
	}
}

// extendVisits grows the robot's fetched visit stream; false means the
// trajectory has no further visits within the horizon cap.
func (e *Engine) extendVisits(robot int, x float64) bool {
	r := &e.robots[robot]
	st := &e.st[robot]
	if st.horizon >= visitHorizonMax {
		return false
	}
	if r.Traj.TailOf() == nil {
		// Finite trajectory: one fetch sees every visit there will be.
		st.horizon = visitHorizonMax
		st.visits = append(st.visits[:0], r.Traj.VisitsUntil(x, math.Inf(1))...)
		return st.vi < len(st.visits)
	}
	for st.horizon < visitHorizonMax {
		if st.horizon == 0 {
			first, ok := r.Traj.FirstVisit(x)
			if !ok {
				st.horizon = visitHorizonMax
				return false
			}
			st.horizon = math.Max(first*2, 16)
		} else {
			st.horizon *= 2
		}
		if st.horizon > visitHorizonMax {
			st.horizon = visitHorizonMax
		}
		all := r.Traj.VisitsUntil(x, st.horizon)
		if len(all) > len(st.visits) {
			st.visits = append(st.visits[:0], all...)
			if st.vi < len(st.visits) {
				return true
			}
		}
	}
	return false
}

// retire removes a not-yet-claimed robot from the live count.
func (e *Engine) retire(robot int, live *int) {
	st := &e.st[robot]
	if !st.retired {
		st.retired = true
		*live--
	}
}

// segHorizonMax bounds segment prefetch; the engine stops scheduling a
// robot's turn events past it (the run will long since have resolved).
const segHorizonMax = 1e15

// scheduleNextTurn pushes the robot's next turn event (the end of its
// current motion segment), fetching segments on demand. Finite
// trajectories run out of turns and simply stop producing events.
func (e *Engine) scheduleNextTurn(robot int) {
	r := &e.robots[robot]
	st := &e.st[robot]
	if st.segsDone {
		return
	}
	for st.si >= len(st.segs) {
		if st.segHorizon >= segHorizonMax {
			st.segsDone = true
			return
		}
		if r.Traj.TailOf() == nil {
			st.segHorizon = segHorizonMax
			st.segs = append(st.segs[:0], r.Traj.SegmentsUntil(math.Inf(1))...)
			if st.si >= len(st.segs) {
				st.segsDone = true
				return
			}
			break
		}
		if st.segHorizon == 0 {
			st.segHorizon = math.Max(r.Traj.Start().T*2, 16)
		} else {
			st.segHorizon *= 2
		}
		if st.segHorizon > segHorizonMax {
			st.segHorizon = segHorizonMax
		}
		all := r.Traj.SegmentsUntil(st.segHorizon)
		if len(all) > len(st.segs) {
			st.segs = append(st.segs[:0], all...)
		}
	}
	seg := st.segs[st.si]
	st.si++
	e.q.push(Event{T: seg.To.T / st.speed, Kind: EventTurn, Robot: robot, X: seg.To.X})
}
