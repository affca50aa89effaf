package fault

import (
	"fmt"
	"strings"
)

// ModelKind names a fault model family.
type ModelKind uint8

const (
	// ModelCrash is the source paper's model: faulty robots never
	// announce, so the first announcement is trustworthy and detection
	// happens at the first reliable visit.
	ModelCrash ModelKind = iota
	// ModelByzantine is the lying-robots model of arXiv:1611.08209:
	// faulty robots may stay silent or issue false claims, so a claim is
	// accepted only once Votes distinct robots have made it.
	ModelByzantine
	// ModelPFaulty is the probabilistic model of arXiv:2002.07797: every
	// robot outside the (optional) crash budget is p-faulty — each visit
	// of the target independently fails to detect it with probability P —
	// and the objective becomes expected detection time instead of the
	// worst-case competitive ratio. The worst-case projection of the
	// model (all coins fail for the F budgeted robots, succeed at first
	// chance for the rest) coincides with the crash model, so
	// DetectionRank stays F+1 and deterministic kernels remain usable as
	// the P = 0 skeleton.
	ModelPFaulty
)

// String returns the canonical model-family name.
func (mk ModelKind) String() string {
	switch mk {
	case ModelCrash:
		return "crash"
	case ModelByzantine:
		return "byzantine"
	case ModelPFaulty:
		return "pfaulty"
	default:
		return fmt.Sprintf("ModelKind(%d)", uint8(mk))
	}
}

// Model is a fault model instance: the family, the fault budget f, and
// (for Byzantine models) the vote threshold of the detection rule.
type Model struct {
	Kind ModelKind
	// F is the fault budget: at most F robots are faulty.
	F int
	// Votes is the number of distinct truthful "target found" claims the
	// Byzantine detection rule requires before accepting a position as
	// the target. Zero selects the sound default F+1 — the smallest
	// threshold the F possible liars cannot fabricate on their own.
	// Crash models ignore it (one truthful claim suffices: nobody lies).
	Votes int
	// P is the per-visit detection-failure probability of the
	// probabilistic model (ModelPFaulty): each visit of the target by a
	// p-faulty robot independently misses it with probability P. Must
	// lie in [0, 1); other model families ignore it.
	P float64
}

// CrashModel returns the crash model at budget f.
func CrashModel(f int) Model { return Model{Kind: ModelCrash, F: f} }

// ByzantineModel returns the Byzantine model at budget f with the
// given vote threshold (0 selects the default f+1).
func ByzantineModel(f, votes int) Model {
	return Model{Kind: ModelByzantine, F: f, Votes: votes}
}

// PFaultyModel returns the probabilistic model at crash budget f with
// per-visit detection-failure probability p: up to f robots may be fully
// faulty (crash), every other robot misses each visit independently with
// probability p. f = 0 is the pure model of arXiv:2002.07797.
func PFaultyModel(f int, p float64) Model {
	return Model{Kind: ModelPFaulty, F: f, P: p}
}

// VotesRequired returns the number of distinct truthful claims the
// detection rule waits for: 1 in the crash model, the explicit (or
// default f+1) threshold in the Byzantine model.
func (m Model) VotesRequired() int {
	if m.Kind != ModelByzantine {
		return 1
	}
	if m.Votes > 0 {
		return m.Votes
	}
	return m.F + 1
}

// DetectionRank returns the worst-case detection rank: the index k such
// that a target is guaranteed found at the k-th distinct robot visit.
// The adversary silences its F faulty robots among the earliest
// visitors, so the VotesRequired-th truthful claim arrives with the
// (F + VotesRequired)-th distinct visitor. In the crash model this is
// the familiar f+1; in the default Byzantine model it is 2f+1.
func (m Model) DetectionRank() int { return m.F + m.VotesRequired() }

// Admits reports whether the model's adversary may assign kind k to a
// faulty robot.
func (m Model) Admits(k Kind) bool {
	switch m.Kind {
	case ModelCrash:
		return k == Crash
	case ModelByzantine:
		return k == ByzantineSilent || k == ByzantineLiar
	case ModelPFaulty:
		// The budget buys full crashes; p-faultiness is ambient (every
		// robot outside the budget carries it), so an explicit PFaulty
		// entry is admitted too.
		return k == Crash || k == PFaulty
	default:
		return false
	}
}

// FaultyKinds lists the kinds the model's adversary can assign.
func (m Model) FaultyKinds() []Kind {
	switch m.Kind {
	case ModelCrash:
		return []Kind{Crash}
	case ModelByzantine:
		return []Kind{ByzantineSilent, ByzantineLiar}
	case ModelPFaulty:
		return []Kind{Crash, PFaulty}
	default:
		return nil
	}
}

// WorstKind returns the kind the worst-case adversary assigns to delay
// detection of the true target: silence. A liar delays detection
// exactly as much as a silent robot (neither confirms the target), but
// silence is the canonical choice because it is also valid in the
// crash model.
func (m Model) WorstKind() Kind {
	if m.Kind == ModelByzantine {
		return ByzantineSilent
	}
	return Crash
}

// Validate checks the model against a fleet of n robots: the budget
// must satisfy 0 <= F < n, an explicit vote threshold must be at least
// 1, and the detection rank must not exceed n — otherwise no plan over
// n robots can ever guarantee detection.
func (m Model) Validate(n int) error {
	if m.Kind != ModelCrash && m.Kind != ModelByzantine && m.Kind != ModelPFaulty {
		return fmt.Errorf("fault: unknown model kind %d", uint8(m.Kind))
	}
	if m.F < 0 || m.F >= n {
		return fmt.Errorf("fault: fault budget f=%d out of range [0, %d)", m.F, n)
	}
	if m.Kind == ModelByzantine && m.Votes < 0 {
		return fmt.Errorf("fault: vote threshold must be positive, got %d", m.Votes)
	}
	if m.Kind == ModelPFaulty && !(m.P >= 0 && m.P < 1) {
		return fmt.Errorf("fault: detection-failure probability p=%v outside [0, 1)", m.P)
	}
	if rank := m.DetectionRank(); rank > n {
		return fmt.Errorf("fault: %s needs at least %d robots (detection rank f+votes), got n=%d", m, rank, n)
	}
	return nil
}

// WithF returns the model with a different fault budget. An explicit
// vote threshold is preserved; the default threshold keeps tracking the
// new budget.
func (m Model) WithF(f int) Model {
	m.F = f
	return m
}

// String formats the model for logs and errors: "crash(f=2)" or
// "byzantine(f=2,votes=3)".
func (m Model) String() string {
	var b strings.Builder
	b.WriteString(m.Kind.String())
	fmt.Fprintf(&b, "(f=%d", m.F)
	if m.Kind == ModelByzantine {
		fmt.Fprintf(&b, ",votes=%d", m.VotesRequired())
	}
	if m.Kind == ModelPFaulty {
		fmt.Fprintf(&b, ",p=%g", m.P)
	}
	b.WriteByte(')')
	return b.String()
}
