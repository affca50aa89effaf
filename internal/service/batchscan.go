package service

import (
	"slices"
	"strconv"
)

// scanBatch decodes a batch body into req, which must be reset, in one
// pass over the body's bytes, and reports whether it could. It reads a
// strict subset of JSON, on which it agrees with decodeBatchJSON field
// for field:
//   - an object with one key, "queries", holding an array of objects;
//   - in each, field names equal to Query's JSON names, each at most
//     once;
//   - numbers in JSON's grammar, where an int field takes no fraction
//     or exponent and must fit an int, and a float must fit a float64;
//   - strings with no escapes, control bytes or non-ASCII bytes;
//   - xs as an array of numbers that parseTargets parses, faulty and
//     liars as arrays of ints, speeds as an array of numbers, [] giving
//     a non-nil empty slice as encoding/json gives it;
//   - JSON whitespace between tokens, and after the object.
//
// On any other body it returns false, leaving req partly filled: the
// caller resets it and decodes the body with decodeBatchJSON, which
// gives the answer, accepted or rejected, and the rejection's text.
//
// No decoded value points into body, whose buffer goes back to its
// pool: strings are copied (op names are the Op constants), and target
// values are carved from req.targets.
func scanBatch(body []byte, req *BatchRequest) bool {
	s := batchScanner{b: body, req: req}
	if !s.next('{') {
		return false
	}
	if name, ok := s.str(); !ok || string(name) != "queries" || !s.next(':') || !s.next('[') {
		return false
	}
	if !s.next(']') {
		for {
			req.Queries = append(req.Queries, Query{})
			if !s.query(&req.Queries[len(req.Queries)-1]) {
				return false
			}
			if s.next(',') {
				continue
			}
			if !s.next(']') {
				return false
			}
			break
		}
	}
	if !s.next('}') {
		return false
	}
	s.space()
	return s.i == len(s.b)
}

// batchScanner is scanBatch's cursor: b[i:] is the body not yet read.
type batchScanner struct {
	b   []byte
	i   int
	req *BatchRequest
}

// queryFields are Query's JSON names; query marks each one it reads by
// its index in a bit set.
var queryFields = [...]string{"op", "n", "f", "strategy", "mindist", "x", "xs", "k",
	"faulty", "tmax", "horizon", "model", "votes", "liars", "objective", "p", "speeds"}

// query reads one object into q.
func (s *batchScanner) query(q *Query) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen uint32
	for {
		name, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		f := fieldIndex(name)
		if f < 0 || seen&(1<<f) != 0 {
			return false
		}
		seen |= 1 << f
		if !s.field(q, queryFields[f]) {
			return false
		}
		if s.next(',') {
			continue
		}
		return s.next('}')
	}
}

// fieldIndex returns name's index in queryFields, or -1.
func fieldIndex(name []byte) int {
	for i, f := range queryFields {
		if string(name) == f {
			return i
		}
	}
	return -1
}

// field reads the value of q's field name.
func (s *batchScanner) field(q *Query, name string) bool {
	ok := false
	switch name {
	case "op":
		var v []byte
		if v, ok = s.str(); ok {
			q.Op = opName(v)
		}
	case "strategy":
		q.Strategy, ok = s.text()
	case "model":
		q.Model, ok = s.text()
	case "objective":
		q.Objective, ok = s.text()
	case "n":
		q.N, ok = s.int()
	case "f":
		q.F, ok = s.int()
	case "k":
		q.K, ok = s.int()
	case "votes":
		q.Votes, ok = s.int()
	case "mindist":
		q.MinDist, ok = s.float()
	case "x":
		q.X, ok = s.float()
	case "tmax":
		q.Tmax, ok = s.float()
	case "horizon":
		q.Horizon, ok = s.float()
	case "p":
		q.P, ok = s.float()
	case "faulty":
		q.Faulty, ok = scanList(s, s.int)
	case "liars":
		q.Liars, ok = scanList(s, s.int)
	case "speeds":
		q.Speeds, ok = scanList(s, s.float)
	case "xs":
		q.Xs, ok = s.targets()
	}
	return ok
}

// opName returns the Op constant v spells, or a copy of v.
func opName(v []byte) string {
	for _, op := range [...]string{OpPlan, OpSearchTime, OpSearchTimes, OpTimeline, OpLowerBound} {
		if string(v) == op {
			return op
		}
	}
	return string(v)
}

// space skips JSON whitespace.
func (s *batchScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and reads c, if c comes next.
func (s *batchScanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII bytes other than the escape,
// and returns its bytes, which lie in the body.
func (s *batchScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text reads a string as str does and copies it.
func (s *batchScanner) text() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// number reads a number in JSON's grammar and returns its text, and
// whether it has neither fraction nor exponent.
func (s *batchScanner) number() (tok []byte, integer, ok bool) {
	s.space()
	b, i := s.b, s.i
	digits := func() int {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		integer = false
		if digits() == 0 {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		integer = false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, false
		}
	}
	tok = b[s.i:i]
	s.i = i
	return tok, integer, true
}

// int reads an integer that fits an int.
func (s *batchScanner) int() (int, bool) {
	tok, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err == nil
}

// float reads a number that fits a float64.
func (s *batchScanner) float() (float64, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// scanList reads an array whose elements elem reads. An empty array gives
// a non-nil empty slice.
func scanList[T any](s *batchScanner, elem func() (T, bool)) ([]T, bool) {
	if !s.next('[') {
		return nil, false
	}
	out := []T{}
	if s.next(']') {
		return out, true
	}
	for {
		v, ok := elem()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.next(',') {
			continue
		}
		return out, s.next(']')
	}
}

// targets reads xs: an array of numbers, whose text between the
// brackets parseTargets parses into values carved from s.req.targets.
func (s *batchScanner) targets() (targetList, bool) {
	if !s.next('[') {
		return targetList{}, false
	}
	start, n := s.i, 0
	if !s.next(']') {
		for {
			if _, _, ok := s.number(); !ok {
				return targetList{}, false
			}
			n++
			if s.next(',') {
				continue
			}
			if !s.next(']') {
				return targetList{}, false
			}
			break
		}
	}
	// A list parseTargets only counts needs no room.
	r, dst := s.req, []float64(nil)
	if n <= maxBatchTargets {
		r.targets = slices.Grow(r.targets, n)
		l := len(r.targets)
		dst = r.targets[l : l+n : l+n]
	}
	list, err := parseTargets(string(s.b[start:s.i-1]), dst)
	if err != nil {
		return targetList{}, false
	}
	r.targets = r.targets[:len(r.targets)+len(list.vals)]
	return list, true
}
