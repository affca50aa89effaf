package strategy

import (
	"fmt"
	"strconv"
	"strings"

	"linesearch/internal/fault"
	"linesearch/internal/schedule"
	"linesearch/internal/trajectory"
)

// Byzantine is the voting-rule strategy family for the Byzantine fault
// model (arXiv:1611.08209 flavour): up to f robots may stay silent or
// lie, so a "target found" claim is accepted only after Votes distinct
// truthful confirmations. Detection is therefore guaranteed at the
// (f + Votes)-th distinct visitor, and the family reduces to its crash
// base: it builds the base schedule at the effective crash budget
// f' = f + Votes - 1, inheriting the base's trajectories, analytic
// competitive ratio, and regime classification at f'.
type Byzantine struct {
	// Votes is the number of distinct truthful claims required to accept
	// the target; 0 selects f+1, the smallest count f liars cannot
	// fabricate.
	Votes int
	// Base is the crash strategy supplying the schedule shape; nil
	// selects the paper's recommendation for (n, f') via ForPair.
	Base Strategy
	// MinDistance is the known minimal target distance; 0 selects 1. It
	// is forwarded to the base strategy.
	MinDistance float64
}

var (
	_ Strategy  = Byzantine{}
	_ Scheduler = Byzantine{}
)

// Name implements Strategy. The name round-trips through Parse:
// "byzantine", "byzantine@3", "byzantine:doubling", "byzantine@3:cone:2.5".
func (b Byzantine) Name() string {
	name := "byzantine"
	if b.Votes > 0 {
		name += "@" + strconv.Itoa(b.Votes)
	}
	if b.Base != nil {
		name += ":" + b.Base.Name()
	}
	return name
}

// Description implements Strategy.
func (b Byzantine) Description() string {
	votes := "f+1"
	if b.Votes > 0 {
		votes = strconv.Itoa(b.Votes)
	}
	base := "the recommended crash strategy"
	if b.Base != nil {
		base = b.Base.Name()
	}
	return fmt.Sprintf("Byzantine voting rule (%s truthful claims) over %s at crash budget f+votes-1", votes, base)
}

// FaultModel implements sim.Modeller: plans built from this strategy
// are evaluated under the Byzantine model at the pair's budget.
func (b Byzantine) FaultModel(n, f int) fault.Model {
	return fault.ByzantineModel(f, b.Votes)
}

// model validates the pair and returns the fault model plus the
// effective crash budget f' = f + votes - 1 the base must survive: the
// adversary silences the f earliest visitors and the voting rule then
// waits for votes truthful claims, so detection is the (f'+1)-st
// distinct visit — exactly the crash objective at budget f'.
func (b Byzantine) model(n, f int) (fault.Model, int, error) {
	m := fault.ByzantineModel(f, b.Votes)
	if err := m.Validate(n); err != nil {
		return fault.Model{}, 0, fmt.Errorf("strategy: %w", err)
	}
	return m, m.DetectionRank() - 1, nil
}

// base resolves the underlying crash strategy at the effective budget,
// forwarding the minimal-distance hint.
func (b Byzantine) base(n, fEff int) (Strategy, error) {
	st := b.Base
	if st == nil {
		var err error
		st, err = ForPair(n, fEff)
		if err != nil {
			return nil, fmt.Errorf("strategy: no base strategy for byzantine effective budget f'=%d with n=%d robots: %w", fEff, n, err)
		}
	}
	return WithMinDistance(st, b.MinDistance), nil
}

// Build implements Strategy.
func (b Byzantine) Build(n, f int) ([]*trajectory.Trajectory, error) {
	_, fEff, err := b.model(n, f)
	if err != nil {
		return nil, err
	}
	st, err := b.base(n, fEff)
	if err != nil {
		return nil, err
	}
	return st.Build(n, fEff)
}

// Schedule implements Scheduler: the base's schedule at the effective
// budget, when the base has one.
func (b Byzantine) Schedule(n, f int) (*schedule.Schedule, bool, error) {
	_, fEff, err := b.model(n, f)
	if err != nil {
		return nil, true, err
	}
	st, err := b.base(n, fEff)
	if err != nil {
		return nil, true, err
	}
	if sc, ok := st.(Scheduler); ok {
		return sc.Schedule(n, fEff)
	}
	return nil, false, nil
}

// AnalyticCR implements Strategy: the base's closed form at the
// effective budget. The reduction is exact — the Byzantine worst case
// of this plan is the crash worst case of the base at f'.
func (b Byzantine) AnalyticCR(n, f int) (float64, bool) {
	_, fEff, err := b.model(n, f)
	if err != nil {
		return 0, false
	}
	st, err := b.base(n, fEff)
	if err != nil {
		return 0, false
	}
	return st.AnalyticCR(n, fEff)
}

// WithMinDistance returns st rescaled for a known minimal target
// distance d. Every strategy honours it except the distance-free
// two-group sweep, which comes back unchanged, as does every strategy
// at d in {0, 1}, the paper's normalisation. It is the one place the
// hint is applied: NewSearcher and the Byzantine wrapper's base both
// go through it.
func WithMinDistance(st Strategy, d float64) Strategy {
	if d == 0 || d == 1 {
		return st
	}
	switch s := st.(type) {
	case Proportional:
		s.MinDistance = d
		return s
	case Cone:
		s.MinDistance = d
		return s
	case Doubling:
		s.MinDistance = d
		return s
	case UniformCone:
		s.MinDistance = d
		return s
	case PFaultySearch:
		s.MinDistance = d
		return s
	case Byzantine:
		s.MinDistance = d
		return s
	default:
		return st
	}
}

// isByzantineName reports whether name selects the Byzantine family —
// used to reject nested byzantine wrappers, which would double-wrap the
// budget arithmetic to no purpose.
func isByzantineName(name string) bool {
	return name == "byzantine" ||
		strings.HasPrefix(name, "byzantine@") ||
		strings.HasPrefix(name, "byzantine:")
}

// parseByzantine parses "byzantine[@<votes>][:<base>]". The vote
// threshold must be a positive integer (its upper bound depends on the
// pair: f + votes <= n, enforced by Build); the base may be any
// non-Byzantine strategy name, including parameterised ones.
func parseByzantine(name string) (Strategy, error) {
	rest := strings.TrimPrefix(name, "byzantine")
	b := Byzantine{}
	if after, ok := strings.CutPrefix(rest, "@"); ok {
		votesStr := after
		rest = ""
		if i := strings.IndexByte(after, ':'); i >= 0 {
			votesStr = after[:i]
			rest = after[i:]
		}
		votes, err := strconv.Atoi(votesStr)
		if err != nil {
			return nil, fmt.Errorf("strategy: invalid vote threshold %q: must be a positive integer", votesStr)
		}
		if votes < 1 {
			return nil, fmt.Errorf("strategy: vote threshold must be a positive integer, got %d", votes)
		}
		b.Votes = votes
	}
	if after, ok := strings.CutPrefix(rest, ":"); ok {
		if isByzantineName(after) {
			return nil, fmt.Errorf("strategy: byzantine strategies cannot nest (%q)", name)
		}
		base, err := Parse(after)
		if err != nil {
			return nil, err
		}
		b.Base = base
	} else if rest != "" {
		return nil, fmt.Errorf("strategy: malformed byzantine strategy %q (want byzantine[@votes][:base])", name)
	}
	return b, nil
}
