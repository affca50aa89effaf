package service

import (
	"encoding/json"
	"math"
	"strings"
)

// targetList is the target list of a searchtimes query. It keeps the
// parsed values and, when every token the client sent is canonical
// (see canonical), the list's text without its brackets: that text is
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
	if n := strings.Count(raw, ",") + 1; n > maxBatchTargets {
		return targetList{over: n}, nil
	}
	vals, canon, err := parseFloatList(raw, "target position", dst)
	if err != nil {
		return targetList{}, err
	}
	t := targetList{vals: vals}
	if canon {
		t.echo = raw
	}
	return t, nil
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

// canonical reports whether tok, which parses as x, is exactly the
// text encoding/json writes for x. The check is syntactic and may
// refuse a token that would match; such a token is formatted instead.
// tok must be
//   - an optional '-', then an integer part that is 0 or has no
//     leading zero, then optionally '.' and a fraction that does not
//     end in 0, with no exponent and no other byte;
//   - at most 15 significant digits (integer zeros count), so that no
//     other decimal of at most as many digits parses as x, and tok is
//     the shortest decimal that does;
//   - and x is 0 or 1e-6 <= |x| < 1e21, where encoding/json writes
//     that shortest decimal in plain notation.
func canonical(tok string, x float64) bool {
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		return false
	}
	i := 0
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	intStart := i
	for i < len(tok) && '0' <= tok[i] && tok[i] <= '9' {
		i++
	}
	intPart := tok[intStart:i]
	if intPart == "" || (intPart[0] == '0' && len(intPart) > 1) {
		return false
	}
	frac := ""
	if i < len(tok) && tok[i] == '.' {
		i++
		fracStart := i
		for i < len(tok) && '0' <= tok[i] && tok[i] <= '9' {
			i++
		}
		frac = tok[fracStart:i]
		if frac == "" || frac[len(frac)-1] == '0' {
			return false
		}
	}
	if i != len(tok) {
		return false
	}
	digits := len(intPart) + len(frac)
	if intPart == "0" {
		digits = len(strings.TrimLeft(frac, "0"))
	}
	return digits <= 15
}
