package engine

import "fmt"

// EventKind classifies one scheduler event.
type EventKind uint8

const (
	// EventStart marks a robot entering the simulation at its
	// trajectory's start point.
	EventStart EventKind = iota
	// EventFaultActivation marks a faulty robot's behaviour taking
	// effect (at t=0 for the static adversaries modelled here; a future
	// dynamic adversary would schedule it later).
	EventFaultActivation
	// EventTurn marks a robot reaching the end of a motion segment and
	// changing direction (or halting).
	EventTurn
	// EventVisit marks a robot standing on the target position. Whether
	// a visit produces a claim depends on the robot's fault process.
	EventVisit
	// EventClaim is a truthful "target found" announcement. It may be
	// simultaneous with its visit (reliable robots), probabilistic
	// (p-faulty robots announce only when their per-visit coin
	// succeeds) or late (delay robots).
	EventClaim
	// EventFalseClaim is a Byzantine liar's fabricated announcement at a
	// non-target position. The detection rule ignores it; it counts
	// toward Result.Events like every dispatched event.
	EventFalseClaim
	// EventDetect marks the detection rule accepting the target: the
	// VotesRequired-th distinct truthful claim.
	EventDetect

	numEventKinds = iota
)

var eventKindNames = [numEventKinds]string{
	EventStart:           "start",
	EventFaultActivation: "fault-activation",
	EventTurn:            "turn",
	EventVisit:           "visit",
	EventClaim:           "claim",
	EventFalseClaim:      "false-claim",
	EventDetect:          "detect",
}

// String returns the canonical event-kind name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one scheduled occurrence. Robot is -1 for fleet-level events
// (detect). X is the position the event concerns.
type Event struct {
	T     float64
	Kind  EventKind
	Robot int
	X     float64
	seq   uint64 // insertion tiebreaker; makes heap order total
}

// before is the scheduler's total order: time, then kind (a visit at t
// precedes the claim it causes at t, which precedes detection at t),
// then robot index, then insertion order. A total order makes the heap
// deterministic — equal-time events pop identically on every run.
func (e Event) before(o Event) bool {
	if e.T != o.T {
		return e.T < o.T
	}
	if e.Kind != o.Kind {
		return e.Kind < o.Kind
	}
	if e.Robot != o.Robot {
		return e.Robot < o.Robot
	}
	return e.seq < o.seq
}

// eventQueue is a binary min-heap of events backed by a reusable slice:
// push and pop allocate only when the slice grows, so steady-state
// dispatch stays allocation-free (regression-gated by BenchmarkDispatch).
type eventQueue struct {
	items []Event
	seq   uint64
}

// push schedules an event, stamping its insertion tiebreaker.
func (q *eventQueue) push(e Event) {
	q.seq++
	e.seq = q.seq
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].before(q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// pop removes and returns the earliest event; ok is false on empty.
func (q *eventQueue) pop() (Event, bool) {
	n := len(q.items)
	if n == 0 {
		return Event{}, false
	}
	top := q.items[0]
	q.items[0] = q.items[n-1]
	q.items = q.items[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.items[l].before(q.items[smallest]) {
			smallest = l
		}
		if r < n && q.items[r].before(q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top, true
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return len(q.items) }

// reset empties the queue, keeping its backing storage for reuse.
func (q *eventQueue) reset() {
	q.items = q.items[:0]
	q.seq = 0
}
