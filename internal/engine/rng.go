package engine

// Splittable deterministic RNG.
//
// The engine's reproducibility contract: results depend only on (seed,
// trial index), never on scheduling. The classic trap is a single
// generator consumed in event-pop order — two runs that interleave
// robots differently then draw different coins. The fix is structural:
// streams form a tree. The root is keyed by the user seed; each trial
// splits off a child keyed by its index; each robot splits a grandchild
// keyed by its index. A robot's detection coins come
// only from its own stream, and its visit events are processed in
// strictly increasing time order, so the j-th coin of robot i in trial k
// is a pure function of (seed, k, i, j) — independent of parallelism,
// heap layout, and every other robot.
//
// The generator is splitmix64 (Steele, Lea & Flood, OOPSLA 2013): a
// 64-bit Weyl sequence with a finalizer mix. It is tiny, allocation-free
// and statistically strong for simulation use; splitting re-keys the
// Weyl increment through the finalizer so child streams are pairwise
// decorrelated. The golden-ratio constant is the same one
// Searcher.MonteCarlo's mcSeedMix uses, keeping the seeding idioms
// aligned.

// splitmix64 constants.
const (
	sm64Gamma = 0x9E3779B97F4A7C15 // 2^64 / phi, the Weyl increment
	sm64Mix1  = 0xBF58476D1CE4E5B9
	sm64Mix2  = 0x94D049BB133111EB
)

// mix64 is the splitmix64 finalizer: a bijective avalanche on 64 bits.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= sm64Mix1
	z ^= z >> 27
	z *= sm64Mix2
	z ^= z >> 31
	return z
}

// Stream is one deterministic random stream. The zero value is a valid
// stream (the one seeded by 0); NewStream and Split derive others.
// Streams are cheap values: copy to fork history, point to share.
type Stream struct {
	key   uint64 // immutable identity; Split derives children from it
	state uint64 // Weyl counter, advanced by Uint64
}

// NewStream returns the root stream for a user-facing seed.
func NewStream(seed int64) Stream {
	k := mix64(uint64(seed) + sm64Gamma)
	return Stream{key: k, state: k}
}

// Split derives the label-th child stream. Children are keyed by the
// parent's immutable identity, not its consumption position: splitting
// is stable no matter how many values the parent has drawn, which is
// what lets trial and robot streams be assigned up front and consumed
// in any schedule.
func (s *Stream) Split(label uint64) Stream {
	k := mix64(s.key ^ mix64(label+1)*sm64Gamma)
	return Stream{key: k, state: k}
}

// Uint64 draws the next 64-bit value.
func (s *Stream) Uint64() uint64 {
	s.state += sm64Gamma
	return mix64(s.state)
}

// Float64 draws a uniform value in [0, 1) with 53 random bits.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn draws a uniform integer in [0, n). n must be positive. The tiny
// modulo bias (< n/2^64) is irrelevant at simulation scale and keeps
// the draw a single generator step, which the determinism contract
// prefers over rejection loops of data-dependent length.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("engine: Intn on non-positive bound")
	}
	return int(s.Uint64() % uint64(n))
}

// Perm draws a uniform permutation of [0, n) by Fisher–Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
