package compiled

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// partialSelection is the reference oracle for selectKth: k rounds of
// min-finding, which the kernel ran on every whole buffer before
// introselect. Round i does not depend on k, so one m-round pass leaves
// buf sorted and buf[k-1] is the oracle's answer for every k at once.
func partialSelection(buf []float64, k int) []float64 {
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(buf); j++ {
			if buf[j] < buf[min] {
				min = j
			}
		}
		buf[i], buf[min] = buf[min], buf[i]
	}
	return buf
}

// checkSelectKth compares selectKth against the oracle bit for bit for
// every k in [1, len(vals)], each on a fresh copy of vals.
func checkSelectKth(t *testing.T, name string, vals []float64) {
	t.Helper()
	want := partialSelection(slices.Clone(vals), len(vals))
	buf := make([]float64, len(vals))
	for k := 1; k <= len(vals); k++ {
		copy(buf, vals)
		if got := selectKth(buf, k); math.Float64bits(got) != math.Float64bits(want[k-1]) {
			t.Fatalf("%s (m=%d): selectKth(k=%d) = %v, oracle %v", name, len(vals), k, got, want[k-1])
		}
	}
}

// medianOfThreeKiller returns an ordering of m values on which every
// Hoare partition round with a middle median-of-three pivot peels just
// two entries off the window's low end, so a high rank exhausts the
// depth budget and reaches the slices.Sort fallback. It replays the
// rounds on slot indices: each round gives the two smallest unused
// values to the window's first and middle slots, then mirrors the one
// swap the partition makes.
func medianOfThreeKiller(m int) []float64 {
	slot := make([]int, m) // slot[s] = index in vals of the entry at s
	for i := range slot {
		slot[i] = i
	}
	vals := make([]float64, m)
	next := 1.0
	lo := 0
	for ; m-1-lo >= 3; lo += 2 {
		mid := lo + (m-1-lo)/2
		vals[slot[lo]], vals[slot[mid]] = next, next+1
		next += 2
		slot[lo+1], slot[mid] = slot[mid], slot[lo+1]
	}
	for s := lo; s < m; s++ {
		vals[slot[s]] = next
		next++
	}
	return vals
}

// selectOrderings builds the table's inputs of size m. Times are
// non-negative, so −0 never appears: the kernel stores only times
// >= +0, and selection may legitimately return either zero when both
// are present. NaN is excluded for the same reason.
func selectOrderings(m int, rng *rand.Rand) map[string][]float64 {
	sorted := make([]float64, m)
	for i := range sorted {
		sorted[i] = float64(i) + 0.5
	}
	reversed := slices.Clone(sorted)
	slices.Reverse(reversed)
	organPipe := make([]float64, m)
	for i := range organPipe {
		organPipe[i] = float64(min(i, m-1-i))
	}
	shuffled := slices.Clone(sorted)
	rng.Shuffle(m, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dups := make([]float64, m)
	withInf := make([]float64, m)
	for i := range dups {
		dups[i] = float64(rng.Intn(4)) * 1.25
		withInf[i] = rng.ExpFloat64()
		if rng.Intn(3) == 0 {
			withInf[i] = math.Inf(1)
		}
	}
	return map[string][]float64{
		"sorted":    sorted,
		"reversed":  reversed,
		"all-equal": make([]float64, m),
		"organ":     organPipe,
		"killer":    medianOfThreeKiller(m),
		"shuffled":  shuffled,
		"dups":      dups,
		"inf":       withInf,
	}
}

// TestSelectKthMatchesOracle pins introselect to the partial-selection
// oracle, bit for bit, across orderings that stress the pivot rule and
// the slices.Sort fallback, windows on both sides of selectCutoff, and
// every rank.
func TestSelectKthMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sizes := []int{1, 2, 3, 15, 16, 17, 18, 33, 64, 101, 200, 257, 400}
	for m := 4; m < 64; m += 7 {
		sizes = append(sizes, m)
	}
	for _, m := range sizes {
		for name, vals := range selectOrderings(m, rng) {
			checkSelectKth(t, name, vals)
		}
	}
}

// TestSelectKthZeroAllocs pins the kernel contract: selection, the
// slices.Sort fallback included, never touches the heap.
func TestSelectKthZeroAllocs(t *testing.T) {
	for name, vals := range selectOrderings(400, rand.New(rand.NewSource(1))) {
		buf := make([]float64, len(vals))
		if avg := testing.AllocsPerRun(50, func() {
			copy(buf, vals)
			selectKth(buf, len(buf)-1)
		}); avg != 0 {
			t.Errorf("%s: selectKth allocates %v per op, want 0", name, avg)
		}
	}
}

// FuzzSelectKth checks selectKth against the oracle for every rank of
// an arbitrary buffer. Each byte is one entry: 0xff is +Inf, anything
// else its own value, so long inputs are dense with duplicates. The
// encoding never yields NaN or −0 (see selectOrderings).
func FuzzSelectKth(fz *testing.F) {
	fz.Add([]byte{0})
	fz.Add([]byte("the quick brown fox jumps over the lazy dog"))
	fz.Add([]byte{0xff, 3, 0xff, 1, 2, 0xff, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 4})
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{17, 100, 250} { // every value stays below 0xff
		orders := selectOrderings(m, rng)
		for _, name := range []string{"killer", "organ", "reversed"} {
			b := make([]byte, m)
			for i, v := range orders[name] {
				b[i] = byte(v)
			}
			fz.Add(b)
		}
	}
	fz.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		vals := make([]float64, len(data))
		for i, b := range data {
			vals[i] = float64(b)
			if b == 0xff {
				vals[i] = math.Inf(1)
			}
		}
		checkSelectKth(t, fmt.Sprintf("%x", data[:min(len(data), 8)]), vals)
	})
}
