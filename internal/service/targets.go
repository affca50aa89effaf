package service

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
)

// targetList is the target list of a searchtimes query. It keeps the
// parsed values and, when every token the client sent is canonical
// (see readCanonical), the list's text without its brackets: that text is
// then exactly what encoding/json writes for the values, and an answer
// echoes it instead of formatting them again.
type targetList struct {
	vals []float64
	echo string // "" unless every token is canonical
	// over is the length of a list longer than maxBatchTargets, counted
	// from its commas; such a list is not parsed, vals stays nil, and
	// normalize rejects the query.
	over int
}

// len returns the number of targets the client listed.
func (t targetList) len() int {
	if t.over > 0 {
		return t.over
	}
	return len(t.vals)
}

// parseTargets parses a comma-separated target list, "1.5,-2,40": a
// GET's xs parameter, or the text of a batch query's xs array between
// its brackets. The values are written into dst's backing array when
// it has room for them. A list longer than maxBatchTargets is counted,
// not parsed.
func parseTargets(raw string, dst []float64) (targetList, error) {
	n := strings.Count(raw, ",") + 1
	if n > maxBatchTargets {
		return targetList{over: n}, nil
	}
	vals, canon, err := readFloats(raw, "target position", slices.Grow(dst[:0], n))
	if err != nil {
		return targetList{}, err
	}
	t := targetList{vals: vals}
	if canon {
		t.echo = raw
	}
	return t, nil
}

// readFloats appends the values of the comma-separated list raw to out,
// and reports whether every token is canonical: the text encoding/json
// writes for its value, so that raw is the list's JSON encoding less
// its brackets. A canonical token is read in one pass (readCanonical);
// any other is trimmed of spaces and parsed by strconv.ParseFloat,
// whose refusal is the 400, noun naming the entries.
func readFloats(raw, noun string, out []float64) ([]float64, bool, error) {
	canon := true
	for i := 0; ; i++ {
		x, end, ok := readCanonical(raw, i)
		if !ok {
			end = strings.IndexByte(raw[i:], ',')
			if end < 0 {
				end = len(raw)
			} else {
				end += i
			}
			var err error
			if x, err = strconv.ParseFloat(strings.TrimSpace(raw[i:end]), 64); err != nil {
				return nil, false, badRequest("invalid %s %q", noun, raw[i:end])
			}
			canon = false
		}
		out = append(out, x)
		if end == len(raw) {
			return out, canon, nil
		}
		i = end
	}
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// readCanonical reads the token of s that starts at i and ends at the
// next comma or at the end of s, and returns its value and end when it
// is canonical, the text encoding/json writes for its value. The rule
// is syntactic and may refuse a token that would match; such a token
// is formatted instead. A canonical token is
//   - an optional '-', then an integer part that is 0 or has no
//     leading zero, then optionally '.' and a fraction that does not
//     end in 0, with no exponent and no other byte;
//   - of at most 15 significant digits (integer zeros count), so that
//     no other decimal of at most as many digits parses as its value,
//     and it is the shortest decimal that does;
//   - of a value that is 0 or 1e-6 <= |x| < 1e21, where encoding/json
//     writes that shortest decimal in plain notation.
//
// Its digits, less the point, are then an integer m < 10^15 and its
// fraction a count d of digits, at most 20; float64(m) and 10^d are
// exact, and so their correctly rounded quotient is the value
// strconv.ParseFloat reads.
func readCanonical(s string, i int) (x float64, end int, ok bool) {
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	var m uint64
	digits := 0 // significant digits, from the first nonzero one
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			m = 10*m + uint64(s[i]-'0')
			digits++
		}
	default:
		return 0, 0, false
	}
	frac := 0
	if i < len(s) && s[i] == '.' {
		for i++; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			m = 10*m + uint64(s[i]-'0')
			frac++
			if m != 0 {
				digits++
			}
		}
		if frac == 0 || s[i-1] == '0' {
			return 0, 0, false
		}
	}
	if i < len(s) && s[i] != ',' || digits > 15 || frac >= len(exactPow10) {
		return 0, 0, false
	}
	x = float64(m) / exactPow10[frac]
	if x != 0 && x < 1e-6 {
		return 0, 0, false
	}
	if neg {
		x = -x
	}
	return x, i, true
}

// UnmarshalJSON decodes a batch item's xs. A JSON array of numbers is
// parsed here, in one pass that also applies the canonical-token rule.
// Anything else (null, an object, a non-number element, a number out
// of float64's range) is decoded as a []float64, so it gets the same
// outcome, or the same *json.UnmarshalTypeError, as a []float64 field:
// the decoder calling this method adds the field context itself.
//
// The echo text is a copy: data lies in the decoder's buffer, which the
// Unmarshaler contract does not let a method keep.
func (t *targetList) UnmarshalJSON(data []byte) error {
	// encoding/json hands over one valid JSON value, so an array whose
	// bytes are all number bytes, commas and whitespace holds numbers
	// only. A number out of float64's range fails parseTargets, and the
	// []float64 decode below reports it.
	if len(data) >= 2 && data[0] == '[' && numberBytesOnly(data[1:len(data)-1]) {
		if list, err := parseTargets(string(data[1:len(data)-1]), nil); err == nil {
			*t = list
			return nil
		}
	}
	var vals []float64
	err := json.Unmarshal(data, &vals)
	*t = targetList{vals: vals}
	return err
}

// numberBytesOnly reports whether b holds only bytes of JSON numbers,
// commas and JSON whitespace.
func numberBytesOnly(b []byte) bool {
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
		case c == '-', c == '+', c == '.', c == 'e', c == 'E', c == ',':
		case c == ' ', c == '\t', c == '\r', c == '\n':
		default:
			return false
		}
	}
	return true
}
