// Package fault is the first-class fault taxonomy of the repository:
// what a faulty robot is allowed to do, how concrete fault assignments
// are represented, and which detection rule a search plan must apply to
// be sound against that adversary.
//
// The crash model of the source paper (Czyzowicz et al., PODC 2016) has
// exactly one faulty behaviour: a crash-faulty robot follows its
// trajectory but never announces the target. The Byzantine model
// (Kranakis et al., "Search on a Line by Byzantine Robots",
// arXiv:1611.08209) adds lying: a Byzantine robot may stay silent about
// a target it stands on, or claim "target found" at a position where
// there is none. Soundness then needs a voting rule — a claim is
// accepted only once enough distinct robots have made it that the
// claims cannot all come from liars — instead of trusting the first
// announcement.
//
// The taxonomy is deliberately open-ended: the probabilistically faulty
// model of arXiv:2002.07797 (detection fails with probability p) slots
// in as a new Kind value without touching the Set and Model machinery.
package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies one robot's behaviour.
type Kind uint8

const (
	// Reliable robots follow their trajectory and truthfully announce
	// the target at their first visit.
	Reliable Kind = iota
	// Crash robots follow their trajectory but never announce anything
	// (the source paper's fault model).
	Crash
	// ByzantineSilent robots behave like crash robots — they withhold
	// the true "target found" announcement — but belong to the Byzantine
	// adversary's budget, so the detection rule must vote.
	ByzantineSilent
	// ByzantineLiar robots issue false "target found" claims at
	// positions of the adversary's choosing and never truthfully confirm
	// the real target.
	ByzantineLiar
	// PFaulty robots (arXiv:2002.07797) follow their trajectory and try
	// to announce, but each visit of the target independently fails to
	// detect it with probability p. The parameter p lives in the model
	// (Model.P), not in the kind itself. In worst-case (adversarial-coin)
	// analyses a p-faulty robot never confirms, so Confirms reports
	// false; the expected-time series in internal/sim averages over the
	// per-visit coins.
	PFaulty

	numKinds = iota
)

// kindNames are the canonical wire names, used by String and
// the service's faulty-robot lists.
var kindNames = [numKinds]string{
	Reliable:        "reliable",
	Crash:           "crash",
	ByzantineSilent: "silent",
	ByzantineLiar:   "liar",
	PFaulty:         "pfaulty",
}

// String returns the canonical name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Faulty reports whether the kind counts against a fault budget.
func (k Kind) Faulty() bool { return k != Reliable }

// Confirms reports whether a robot of this kind truthfully announces a
// target it visits, in the worst case. Only reliable robots do: crash
// and Byzantine-silent robots say nothing, liars never tell the truth,
// and a p-faulty robot's coins can all fail. The expected-time series
// refines this for PFaulty robots, whose claims are probabilistic
// rather than absent.
func (k Kind) Confirms() bool { return k == Reliable }

// Set is a concrete per-robot fault assignment: Set[i] is robot i's
// behaviour.
type Set []Kind

// Clone returns an independent copy.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// String formats the set as "robot:kind" pairs for the faulty robots
// ("2:crash,4:liar"), or "none" for an all-reliable set.
func (s Set) String() string {
	var b strings.Builder
	for i, k := range s {
		if !k.Faulty() {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(':')
		b.WriteString(k.String())
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// Validate checks the set against a fleet of n robots under model m:
// the length must be n, every kind must be one the model admits, and
// the faulty count must not exceed the model's budget.
func (s Set) Validate(n int, m Model) error {
	if len(s) != n {
		return fmt.Errorf("fault: assignment has %d entries for %d robots", len(s), n)
	}
	faulty := 0
	for i, k := range s {
		if int(k) >= numKinds {
			return fmt.Errorf("fault: robot %d has invalid kind %d", i, uint8(k))
		}
		if !k.Faulty() {
			continue
		}
		faulty++
		if !m.Admits(k) {
			return fmt.Errorf("fault: robot %d has kind %s, which the %s model does not admit", i, k, m)
		}
	}
	if faulty > m.F {
		return fmt.Errorf("fault: %d faulty robots exceed the budget f=%d", faulty, m.F)
	}
	return nil
}
