package service

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
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
// its brackets. A list longer than maxBatchTargets is counted, not
// parsed.
func parseTargets(raw string) (targetList, error) {
	if n := strings.Count(raw, ",") + 1; n > maxBatchTargets {
		return targetList{over: n}, nil
	}
	vals, canon, err := parseFloatList(raw, "target position")
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
		if list, err := parseTargets(string(data[1 : len(data)-1])); err == nil {
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

// jsonAppender is a result that writes its own JSON encoding: the
// bytes json.Marshal would write for its wire shape.
type jsonAppender interface {
	appendJSON(dst []byte) []byte
}

// encodeResult writes v's JSON encoding, without a newline, to buf. A
// jsonAppender writes its own; anything else goes through json.Encoder.
func encodeResult(buf *bytes.Buffer, v any) error {
	if a, ok := v.(jsonAppender); ok {
		buf.Write(a.appendJSON(buf.AvailableBuffer()))
		return nil
	}
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1) // Encode's newline
	return nil
}

// appendJSON writes the answer as json.Marshal writes the struct
// {N int `json:"n"`; F int `json:"f"`; Strategy string `json:"strategy"`;
// Model string `json:"model,omitempty"`; DetectionRank int
// `json:"detection_rank,omitempty"`; Xs []float64 `json:"xs"`;
// Times []*float64 `json:"times"`; Detected int `json:"detected"`},
// with a null time for each non-finite one. The targets are the
// client's own text when it is canonical; only the times are
// formatted.
func (r SearchTimesResult) appendJSON(b []byte) []byte {
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(r.N), 10)
	b = append(b, `,"f":`...)
	b = strconv.AppendInt(b, int64(r.F), 10)
	b = append(b, `,"strategy":`...)
	b = appendString(b, r.Strategy)
	if r.Model != "" {
		b = append(b, `,"model":`...)
		b = appendString(b, r.Model)
	}
	if r.DetectionRank != 0 {
		b = append(b, `,"detection_rank":`...)
		b = strconv.AppendInt(b, int64(r.DetectionRank), 10)
	}
	b = append(b, `,"xs":[`...)
	if r.Xs.echo != "" {
		b = append(b, r.Xs.echo...)
	} else {
		for i, x := range r.Xs.vals {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, x)
		}
	}
	b = append(b, `],"times":[`...)
	for i, t := range r.Times {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, t)
	}
	b = append(b, `],"detected":`...)
	b = strconv.AppendInt(b, int64(r.Detected), 10)
	return append(b, '}')
}

// appendFloat appends x as encoding/json writes a float64, and null
// for NaN and the infinities, which JSON cannot represent: the
// shortest round-trip decimal, in plain notation unless |x| < 1e-6 or
// |x| >= 1e21, with a two-digit negative exponent cut to one digit.
func appendFloat(b []byte, x float64) []byte {
	if math.IsNaN(x) || math.IsInf(x, 0) {
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

// appendString appends s as encoding/json writes a string. Strategy
// and model names are plain ASCII and are copied; a string with a
// byte encoding/json escapes goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always encodes
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
