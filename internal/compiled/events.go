package compiled

import (
	"fmt"
	"math"
	"sort"

	"linesearch/internal/fault"
	"linesearch/internal/geom"
	"linesearch/internal/trajectory"
)

// EventKind classifies timeline events.
type EventKind int

// Timeline event kinds.
const (
	// EventStart marks a robot leaving the origin (its first motion).
	EventStart EventKind = iota + 1
	// EventTurn marks a robot reversing direction (a trajectory corner).
	EventTurn
	// EventVisit marks any robot standing on the target position.
	EventVisit
	// EventClaim marks a truthful "target found" claim: a reliable
	// robot announcing the target at its first visit. Emitted only under
	// Byzantine models, where claims are counted by the voting rule.
	EventClaim
	// EventFalseClaim marks a Byzantine liar issuing a false "target
	// found" claim away from the real target.
	EventFalseClaim
	// EventDetect marks the moment the detection rule accepts the
	// target: the first reliable visit in the crash model, the
	// VotesRequired-th truthful claim in the Byzantine model. The search
	// completes here. It sorts after the claim that completes the vote.
	EventDetect
)

// String returns a short label for the kind.
func (k EventKind) String() string {
	switch k {
	case EventStart:
		return "start"
	case EventTurn:
		return "turn"
	case EventVisit:
		return "visit"
	case EventDetect:
		return "detect"
	case EventClaim:
		return "claim"
	case EventFalseClaim:
		return "false-claim"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of a search timeline.
type Event struct {
	T     float64
	Robot int
	Kind  EventKind
	X     float64 // position of the event
}

// String formats the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("t=%-12.4f robot %-2d %-11s at x=%.4f", e.T, e.Robot, e.Kind, e.X)
}

// Timeline reconstructs the chronological event log of a search for a
// target at x under a concrete fault assignment, up to time tmax:
// starts, turns, target visits, claims (truthful and, for Byzantine
// liars, false) and the detection event once the plan's detection rule
// accepts the target within tmax. Each robot's motion is read from the
// legs and tail Walk reads; its first visits, which the claims and the
// detection event stand on, are FirstVisits'.
//
// Claim events appear only under Byzantine models, where announcements
// are votes: each reliable robot claims at its first visit to x, and
// each liar issues its canonical false claim — the adversary cannot
// delay detection with lies, so the deterministic choice here is the
// mirror position -x at the liar's first visit there (the most
// confusable false target). len(set) must equal n.
func (p *Plan) Timeline(x float64, set fault.Set, tmax float64) ([]Event, error) {
	if len(set) != len(p.robots) {
		return nil, fmt.Errorf("compiled: fault assignment has %d entries for %d robots", len(set), len(p.robots))
	}
	if !(tmax > 0) || math.IsInf(tmax, 1) {
		return nil, fmt.Errorf("compiled: tmax must be positive and finite, got %g", tmax)
	}

	byzantine := p.model.Kind == fault.ModelByzantine
	first := p.FirstVisits(x, nil)
	var mirror []float64
	var events []Event
	var buf [2]geom.Segment
	for i := range p.robots {
		legs, tail := p.source(i, &buf)
		segs := trajectory.SegmentsUntil(legs, tail, tmax)
		moved := false
		for j, s := range segs {
			if !moved && s.Displacement() != 0 {
				events = append(events, Event{T: s.From.T, Robot: i, Kind: EventStart, X: s.From.X})
				moved = true
			}
			// A corner is a junction where the direction changes.
			if j > 0 && s.From.T <= tmax && segs[j-1].Reverses(s) {
				events = append(events, Event{T: s.From.T, Robot: i, Kind: EventTurn, X: s.From.X})
			}
		}
		for _, vt := range trajectory.VisitsUntil(legs, tail, x, tmax) {
			events = append(events, Event{T: vt, Robot: i, Kind: EventVisit, X: x})
		}
		if !byzantine {
			continue
		}
		switch {
		case set[i].Confirms():
			if t := first[i]; t <= tmax {
				events = append(events, Event{T: t, Robot: i, Kind: EventClaim, X: x})
			}
		case set[i] == fault.ByzantineLiar:
			if mirror == nil {
				mirror = p.FirstVisits(-x, nil)
			}
			if t := mirror[i]; t <= tmax {
				events = append(events, Event{T: t, Robot: i, Kind: EventFalseClaim, X: -x})
			}
		}
	}

	// Detection is the claim that completes the vote: the VotesRequired-th
	// first visit by a robot that confirms (the first in the crash model).
	votes := p.model.VotesRequired()
	for _, v := range arrivals(first, nil) {
		if !set[v.Robot].Confirms() {
			continue
		}
		if votes--; votes == 0 {
			if v.T <= tmax {
				events = append(events, Event{T: v.T, Robot: v.Robot, Kind: EventDetect, X: x})
			}
			break
		}
	}

	sort.SliceStable(events, func(a, b int) bool {
		if events[a].T != events[b].T {
			return events[a].T < events[b].T
		}
		if events[a].Robot != events[b].Robot {
			return events[a].Robot < events[b].Robot
		}
		return events[a].Kind < events[b].Kind
	})
	return events, nil
}
