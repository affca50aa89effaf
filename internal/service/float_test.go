package service

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"testing"

	"linesearch"
)

// appendFloatRef is the strconv writer appendFloat replaced: json's
// float64 form, built from strconv.AppendFloat's shortest 'f' or 'e'
// rendering, with a two-digit negative exponent cut to one digit.
func appendFloatRef(b []byte, x float64) []byte {
	if !finite(x) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// TestAppendFloatMatchesStrconv holds appendFloat to appendFloatRef on
// every power of 2 and of 10 and the floats either side of each, the
// least subnormals, the floats around the two notation edges, and
// 2,000,000 seeded random bit patterns, each with both signs.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	var got, want []byte
	check := func(x float64) {
		for _, v := range []float64{x, -x} {
			got, want = appendFloat(got[:0], v), appendFloatRef(want[:0], v)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendFloat(%x) = %s, strconv writes %s", math.Float64bits(v), got, want)
			}
		}
	}
	around := func(x float64) {
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, math.Inf(1)))
	}
	check(0)
	check(math.NaN())
	check(math.Inf(1))
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			t.Fatal(err)
		}
		around(x)
	}
	for _, x := range []float64{5e-324, 1e-323, 8e-323, 1e-6, 1e21, math.MaxFloat64} {
		around(x)
	}
	for u := uint64(1); u <= 1000; u++ {
		check(math.Float64frombits(u))
	}
	rng := rand.New(rand.NewPCG(32, 32))
	for range 2_000_000 {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestFloorLogs checks the fixed-point logarithms shortestDecimal uses
// against exact rational arithmetic, over every binary exponent of a
// float64 and every decimal exponent of the table.
func TestFloorLogs(t *testing.T) {
	// floorLog10 returns floor(log10(r)) for r > 0, searching from k.
	floorLog10 := func(r *big.Rat, k int) int {
		pow := func(k int) *big.Rat {
			p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
			if k < 0 {
				return new(big.Rat).SetFrac(big.NewInt(1), p)
			}
			return new(big.Rat).SetInt(p)
		}
		for pow(k).Cmp(r) > 0 {
			k--
		}
		for pow(k+1).Cmp(r) <= 0 {
			k++
		}
		return k
	}
	pow2 := func(e int) *big.Rat {
		p := new(big.Int).Lsh(big.NewInt(1), uint(max(e, -e)))
		if e < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	for e := -1100; e <= 1100; e++ {
		if got, want := flog10pow2(e), floorLog10(pow2(e), e/3); got != want {
			t.Fatalf("flog10pow2(%d) = %d, want %d", e, got, want)
		}
		r := new(big.Rat).Mul(pow2(e), big.NewRat(3, 4))
		if got, want := flog10ThreeQuartersPow2(e), floorLog10(r, e/3); got != want {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d, want %d", e, got, want)
		}
	}
	for e := -400; e <= 400; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1 // floor(log2(10^e)), e >= 0
		if e < 0 {
			want = -p.BitLen() // 10^-e is no power of two
		}
		if got := flog2pow10(e); got != want {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

// BenchmarkAppendFloat writes 1,024 worst-case search times of
// perfbench curve-batch's A(41,21) plan at its targets.
func BenchmarkAppendFloat(b *testing.B) {
	s, err := linesearch.New(41, 21)
	if err != nil {
		b.Fatal(err)
	}
	times := make([]float64, 1024)
	for i, tok := range curveTargets(len(times)) {
		x, _ := strconv.ParseFloat(tok, 64)
		if times[i], err = s.SearchTime(x); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, 0, 32*len(times))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, x := range times {
			buf = appendFloat(buf, x)
		}
	}
}
