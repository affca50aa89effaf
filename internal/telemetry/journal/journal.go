// Package journal is the fleet's structured event journal: a bounded,
// lock-striped ring of typed state-transition events — membership
// changes, breaker trips, quarantines, hinted handoffs, anti-entropy
// repairs, topology swaps, snapshot imports — queryable on
// GET /debug/events and counted per kind on /metrics.
//
// Traces answer "where did this request spend its time"; the journal
// answers "what did the fleet DO" — the control-plane transitions that
// explain why a trace looks the way it does. Every event is stamped
// with the active trace id when one exists, so an operator can pivot
// from a slow stitched trace to the breaker trip that caused its
// failover leg, and back.
//
// The design follows the telemetry package's rule: always on, always
// cheap. Record on a nil journal is a no-op, recording costs one
// atomic sequence increment, one per-kind counter increment and one
// telemetry.StripedRing insert, and nothing is allocated beyond the
// event itself.
package journal

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"linesearch/internal/telemetry"
)

// Kind is one journal event type. The set is closed: every kind has a
// String name, appears in Kinds(), and gets a per-kind counter in the
// Prometheus exposition — an exhaustiveness test pins all three.
type Kind uint8

const (
	// Membership transitions (internal/membership): a member became
	// alive (discovered, recovered, or refuted back to life), was
	// suspected after a failed probe round, was confirmed dead when the
	// suspicion timed out, or refuted a rumor about itself by bumping
	// its incarnation.
	MemberAlive Kind = iota
	MemberSuspect
	MemberConfirmDead
	MemberRefute
	// Circuit-breaker transitions (internal/cluster): open after
	// consecutive failures or an honored Retry-After, half-open when
	// the cooldown lapses and a probe request is let through, closed on
	// the next success.
	BreakerOpen
	BreakerHalfOpen
	BreakerClose
	// Health-vote quarantine (internal/cluster): a backend crossed the
	// consecutive-failed-votes threshold, or recovered.
	QuarantineEnter
	QuarantineExit
	// Hinted handoff (internal/cluster): a checkpoint spooled for an
	// unreachable peer, a spooled hint evicted by the bound, a hint
	// delivered after the peer returned.
	HintSpool
	HintDrop
	HintReplay
	// AntiEntropyRepair is one checkpoint pushed or pulled by a digest
	// comparison to heal replica divergence.
	AntiEntropyRepair
	// TopologyChange is a router ring swap (admin or gossip driven).
	TopologyChange
	// SnapshotImport is a plan-cache snapshot accepted by a backend
	// (the receiving half of a warm transfer).
	SnapshotImport
	// CellQuarantine is a sweep cell that exhausted its retry budget
	// (internal/sweep) — the infrastructure analogue of declaring a
	// robot faulty.
	CellQuarantine

	numKinds // sentinel; keep last
)

// kindNames are the wire names, indexed by Kind.
var kindNames = [numKinds]string{
	MemberAlive:       "member_alive",
	MemberSuspect:     "member_suspect",
	MemberConfirmDead: "member_confirm_dead",
	MemberRefute:      "member_refute",
	BreakerOpen:       "breaker_open",
	BreakerHalfOpen:   "breaker_half_open",
	BreakerClose:      "breaker_close",
	QuarantineEnter:   "quarantine_enter",
	QuarantineExit:    "quarantine_exit",
	HintSpool:         "hint_spool",
	HintDrop:          "hint_drop",
	HintReplay:        "hint_replay",
	AntiEntropyRepair: "anti_entropy_repair",
	TopologyChange:    "topology_change",
	SnapshotImport:    "snapshot_import",
	CellQuarantine:    "cell_quarantine",
}

// String returns the kind's wire name ("" for an out-of-range value).
func (k Kind) String() string {
	if k >= numKinds {
		return ""
	}
	return kindNames[k]
}

// MarshalJSON renders the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON parses a wire name back into a Kind.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	if parsed, ok := ParseKind(s); ok {
		*k = parsed
	}
	return nil
}

// ParseKind maps a wire name to its Kind.
func ParseKind(s string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}

// Kinds enumerates every event kind, in declaration order. Metric
// writers iterate this so a new kind cannot silently lack a counter.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k] = k
	}
	return out
}

// Event is one recorded state transition.
type Event struct {
	// Seq orders events globally across stripes (monotonic, starts at 1).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock stamp.
	Time time.Time `json:"time"`
	// Kind is the transition type.
	Kind Kind `json:"kind"`
	// Member names the subject: a backend host:port, a gossip member
	// Addr, a replication peer, a sweep cell — whatever the kind is
	// about ("" when there is no subject).
	Member string `json:"member,omitempty"`
	// TraceID links the event to the trace active when it was recorded
	// ("" when none was).
	TraceID string `json:"trace_id,omitempty"`
	// Detail is a short free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// DefaultCapacity is the event ring's default retention.
const DefaultCapacity = 1024

// Journal is a bounded ring of events plus per-kind counters. Create
// with New; all methods are safe for concurrent use and nil-receiver
// safe, so components hold a *Journal unconditionally.
type Journal struct {
	seq    atomic.Uint64
	counts [numKinds]atomic.Int64
	ring   *telemetry.StripedRing[Event]
}

// New returns a journal retaining about capacity events (<= 0 uses
// DefaultCapacity).
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Journal{ring: telemetry.NewStripedRing[Event](capacity)}
}

// Record appends one event, stamping it with ctx's active trace id.
// A nil journal drops the event silently; components never need to
// guard the call.
func (j *Journal) Record(ctx context.Context, kind Kind, member, detail string) {
	if j == nil || kind >= numKinds {
		return
	}
	j.counts[kind].Add(1)
	j.ring.Add(Event{
		Seq:     j.seq.Add(1),
		Time:    time.Now(),
		Kind:    kind,
		Member:  member,
		TraceID: telemetry.TraceIDFrom(ctx),
		Detail:  detail,
	})
}

// Events snapshots every retained event, ordered by Seq (oldest
// first). A nil journal returns nil.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	out := j.ring.Snapshot()
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Counts snapshots the per-kind counters, keyed by wire name. Every
// kind is present, zero-valued kinds included, so metric expositions
// are exhaustive by construction. A nil journal returns every kind at
// zero.
func (j *Journal) Counts() map[string]int64 {
	out := make(map[string]int64, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if j == nil {
			out[kindNames[k]] = 0
		} else {
			out[kindNames[k]] = j.counts[k].Load()
		}
	}
	return out
}

// Stats reports lifetime recorded and evicted event totals.
func (j *Journal) Stats() (recorded, evicted int64, buffered int) {
	if j == nil {
		return 0, 0, 0
	}
	evicted, buffered = j.ring.Stats()
	return int64(j.seq.Load()), evicted, buffered
}

// eventsResponse answers GET /debug/events.
type eventsResponse struct {
	// Count is how many events matched the filter (before the n cut);
	// Recorded and Evicted are the journal's lifetime totals, so a
	// reader can tell a quiet fleet from a wrapped ring.
	Count    int     `json:"count"`
	Recorded int64   `json:"recorded"`
	Evicted  int64   `json:"evicted"`
	Events   []Event `json:"events"`
}

// Handler serves the journal as GET /debug/events. Shared by the
// backend service and the router so both expose the identical shape.
//
//	GET /debug/events?kind=breaker_open   only that kind
//	GET /debug/events?member=host:port    only that subject
//	GET /debug/events?since=42            only Seq > 42 (incremental poll)
//	GET /debug/events?n=100               at most the n most recent
func Handler(j *Journal) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var kindFilter *Kind
		if raw := q.Get("kind"); raw != "" {
			k, ok := ParseKind(raw)
			if !ok {
				telemetry.WriteJSONError(w, http.StatusBadRequest, "unknown event kind "+strconv.Quote(raw))
				return
			}
			kindFilter = &k
		}
		member := q.Get("member")
		var since uint64
		if raw := q.Get("since"); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				telemetry.WriteJSONError(w, http.StatusBadRequest, "parameter since must be a non-negative integer")
				return
			}
			since = v
		}
		n := 0
		if raw := q.Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 1 {
				telemetry.WriteJSONError(w, http.StatusBadRequest, "parameter n must be a positive integer")
				return
			}
			n = v
		}

		events := j.Events()
		filtered := events[:0:0]
		for _, e := range events {
			if kindFilter != nil && e.Kind != *kindFilter {
				continue
			}
			if member != "" && e.Member != member {
				continue
			}
			if e.Seq <= since {
				continue
			}
			filtered = append(filtered, e)
		}
		count := len(filtered)
		if n > 0 && len(filtered) > n {
			filtered = filtered[len(filtered)-n:]
		}
		if filtered == nil {
			filtered = []Event{}
		}
		recorded, evicted, _ := j.Stats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(eventsResponse{
			Count: count, Recorded: recorded, Evicted: evicted, Events: filtered,
		})
	}
}
