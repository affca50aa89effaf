package service

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// appendFloat appends x as encoding/json writes a float64, and null
// for NaN and the infinities, which JSON cannot represent: the
// shortest decimal that reads back as x, the closest to x of those,
// in plain notation unless |x| < 1e-6 or |x| >= 1e21, and otherwise in
// e notation with an exponent of as few digits as it takes ("1e-7",
// "1e+21").
func appendFloat(b []byte, x float64) []byte {
	if !finite(x) {
		return append(b, "null"...)
	}
	u := math.Float64bits(x)
	if u>>63 != 0 {
		b = append(b, '-')
	}
	if x == 0 {
		return append(b, '0')
	}
	m, e := shortestDecimal(u &^ (1 << 63))

	// The digits of m, two at a time from the right, less its trailing
	// zeros, which move to e.
	var buf [20]byte
	i := len(buf)
	for m >= 100 {
		q := m / 100
		r := 2 * (m - 100*q)
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		m = q
	}
	if m >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*m], digitPairs[2*m+1]
	} else {
		i--
		buf[i] = byte('0' + m)
	}
	end := len(buf)
	for buf[end-1] == '0' {
		end--
		e++
	}
	digits := buf[i:end]
	point := len(digits) + e // digits before the point; if negative, zeros after it

	if abs := math.Abs(x); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digits[0])
		if len(digits) > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		b = append(b, 'e')
		if point > 0 {
			b = append(b, '+')
		}
		return strconv.AppendInt(b, int64(point-1), 10)
	}
	switch {
	case e >= 0:
		b = append(b, digits...)
		for ; e > 0; e-- {
			b = append(b, '0')
		}
	case point > 0:
		b = append(b, digits[:point]...)
		b = append(b, '.')
		b = append(b, digits[point:]...)
	default:
		b = append(b, "0."...)
		for ; point < 0; point++ {
			b = append(b, '0')
		}
		b = append(b, digits...)
	}
	return b
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// shortestDecimal returns the decimal m·10^e that Schubfach (Raffaello
// Giulietti, "The Schubfach way to render doubles", 2020) picks for the
// positive finite float64 with bits u: of the decimals with the fewest
// digits that round to the float, the closest to it. m may end in
// zeros.
//
// The float is c·2^q. Its rounding interval, scaled by 4 so that its
// ends are integers, is [cbl, cbr]·2^q around cb·2^q (ends included
// when c is even, as round-half-even reads them back). Multiplied by
// the table's 10^-k, for the k that puts 10^k·{1..10} around one unit
// of 2^q, the three scaled values vb, vbl and vbr locate the float
// among the multiples s·10^k (digits of s) and, one digit shorter,
// among those of 10^(k+1). The interval holds at most one multiple of
// 10^(k+1), so the shorter decimal, when there is one, is unique.
func shortestDecimal(u uint64) (m uint64, e int) {
	const (
		cMin = 1 << 52 // the least normal significand
		qMin = -1074   // the exponent of the subnormals
	)
	var (
		c  uint64
		q  int
		dk int // the decimal exponent's shift for the tiny subnormals
	)
	if bq := int(u >> 52); bq != 0 {
		c, q = cMin|u&(cMin-1), bq-1075
		// An integer below 2^53 is its own shortest decimal.
		if -53 < q && q < 0 {
			if f := c >> -q; f<<-q == c {
				return f, 0
			}
		}
	} else {
		c, q = u, qMin
		// The two least subnormals have too few significant bits for the
		// interval arithmetic below; ten times their significand, read at
		// one decimal place less, has enough.
		if c < 3 {
			c, dk = 10*c, -1
		}
	}

	out := c & 1 // an odd c excludes the interval's ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != cMin || q == qMin {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// At a power of two the interval below is half as wide.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10Table[k-pow10MinK]
	vb := roundOdd(g[0], g[1], cb<<h)
	vbl := roundOdd(g[0], g[1], cbl<<h)
	vbr := roundOdd(g[0], g[1], cbr<<h)

	s := vb >> 2
	// One digit fewer: the multiples of ten next to s. The reference
	// tries this only from s >= 100, as Java always writes two digits;
	// encoding/json writes 5e-324 and 8e-323, one-digit decimals of
	// two-digit s.
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k + dk
			}
			return tp10, k + dk
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k + dk
		}
		return t, k + dk
	}
	// Both s and t round to the float: the closer, or the even one at a
	// tie.
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k + dk
	}
	return t, k + dk
}

// roundOdd returns g·cp / 2^127, g = g1·2^63 + g0, rounded down and with
// its last bit set when the division was inexact (round to odd).
func roundOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// flog10pow2 returns floor(e·log10(2)). This and the two below are
// exact for every e shortestDecimal passes (TestFloorLogs).
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

// flog10ThreeQuartersPow2 returns floor(log10(3/4·2^e)).
func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 returns floor(e·log2(10)).
func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// pow10MinK and pow10MaxK bound the k that shortestDecimal needs:
// flog10pow2 of the least and the greatest binary exponent.
const (
	pow10MinK = -324
	pow10MaxK = 292
)

// pow10Table holds, for each k in [pow10MinK, pow10MaxK], the 126-bit
// g = floor(10^-k·2^-r) + 1, r chosen so that 2^125 <= g-1 < 2^126, as
// its high and low 63 bits. Rounding up keeps vb, vbl and vbr exact
// where the interval's ends fall on a decimal.
var pow10Table = func() (t [pow10MaxK - pow10MinK + 1][2]uint64) {
	ten := big.NewInt(10)
	lo63 := new(big.Int).Lsh(big.NewInt(1), 63)
	p, g, hi := new(big.Int), new(big.Int), new(big.Int)
	for k := pow10MinK; k <= pow10MaxK; k++ {
		if k <= 0 {
			// 10^-k is an integer: keep its top 126 bits.
			p.Exp(ten, big.NewInt(int64(-k)), nil)
			if sh := p.BitLen() - 126; sh >= 0 {
				g.Rsh(p, uint(sh))
			} else {
				g.Lsh(p, uint(-sh))
			}
		} else {
			// 10^-k = 2^(125+L) / 10^k · 2^-(125+L), 10^k of L bits.
			p.Exp(ten, big.NewInt(int64(k)), nil)
			g.Lsh(big.NewInt(1), uint(125+p.BitLen()))
			g.Quo(g, p)
		}
		g.Add(g, big.NewInt(1))
		hi.Rsh(g, 63)
		g.Mod(g, lo63)
		t[k-pow10MinK] = [2]uint64{hi.Uint64(), g.Uint64()}
	}
	return t
}()
