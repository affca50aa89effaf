package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// searchTimesShape is the struct encoding/json rendered a searchtimes
// answer from before the answer wrote itself.
type searchTimesShape struct {
	N             int        `json:"n"`
	F             int        `json:"f"`
	Strategy      string     `json:"strategy"`
	Model         string     `json:"model,omitempty"`
	DetectionRank int        `json:"detection_rank,omitempty"`
	Xs            []float64  `json:"xs"`
	Times         []*float64 `json:"times"`
	Detected      int        `json:"detected"`
}

// searchTimeShape and lowerBoundShape are the structs encoding/json
// rendered searchtime and lowerbound answers from before the answers
// wrote themselves: a non-finite time, ratio or bound was a nil
// pointer.
type searchTimeShape struct {
	N             int       `json:"n"`
	F             int       `json:"f"`
	Strategy      string    `json:"strategy"`
	Model         string    `json:"model,omitempty"`
	DetectionRank int       `json:"detection_rank,omitempty"`
	X             float64   `json:"x"`
	K             int       `json:"k"`
	Objective     string    `json:"objective,omitempty"`
	P             float64   `json:"p,omitempty"`
	Speeds        []float64 `json:"speeds,omitempty"`
	Time          *float64  `json:"time"`
	Ratio         *float64  `json:"ratio"`
	Detected      bool      `json:"detected"`
}

type lowerBoundShape struct {
	N          int      `json:"n"`
	F          int      `json:"f"`
	Regime     string   `json:"regime"`
	UpperBound *float64 `json:"upper_bound"`
	LowerBound *float64 `json:"lower_bound"`
	Beta       *float64 `json:"beta,omitempty"`
	Expansion  *float64 `json:"expansion,omitempty"`
}

// checkShape requires an answer to be the bytes json.Marshal writes
// for the T it decodes into: so a field out of place or a number in
// another form fails.
func checkShape[T any](t *testing.T, got []byte) {
	t.Helper()
	var s T
	if err := json.Unmarshal(got, &s); err != nil {
		t.Fatalf("answer does not decode into %T: %v\n%s", s, err, got)
	}
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("answer differs from its %T encoding:\n got %s\nwant %s", s, got, want)
	}
}

// checkSearchTimesAnswer requires a searchtimes answer to be the bytes
// json.Marshal writes for searchTimesShape, with Xs the request's
// targets as parsed by the caller and every other field as the answer
// states it. So an echoed token that is not what encoding/json writes,
// and a time written in another form, both fail.
func checkSearchTimesAnswer(t *testing.T, xs []float64, got []byte) {
	t.Helper()
	var s searchTimesShape
	if err := json.Unmarshal(got, &s); err != nil {
		t.Fatalf("searchtimes answer does not decode: %v\n%s", err, got)
	}
	s.Xs = xs
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("searchtimes answer differs from its struct encoding:\n got %s\nwant %s", got, want)
	}
}

// checkEcho requires a target list's echo text to be what json.Marshal
// writes for its values, less the brackets.
func checkEcho(t *testing.T, xs targetList) {
	t.Helper()
	want, err := json.Marshal(xs.vals)
	if err != nil {
		t.Fatalf("echo %q kept for values json cannot encode: %v", xs.echo, err)
	}
	if got := "[" + xs.echo + "]"; got != string(want) {
		t.Fatalf("echo %s, json.Marshal writes %s", got, want)
	}
}

func TestCanonical(t *testing.T) {
	for _, tt := range []struct {
		tok  string
		want bool
	}{
		{"0", true}, {"-0", true}, {"1", true}, {"-2.5", true}, {"40", true},
		{"123.456", true}, {"0.000001", true}, {"-0.000001", true},
		{"123456789012345", true}, {"0.123456789012345", true},
		{"99999999999999.9", true}, {"100000000000000", true},
		{"1.50", false}, {"+2", false}, {"1e3", false}, {"1E3", false},
		{"0x1p3", false}, {"007", false}, {"00", false}, {" 3", false},
		{"3 ", false}, {"2.000", false}, {"1.", false}, {".5", false},
		{"-", false}, {"", false}, {"--1", false}, {"NaN", false},
		{"Inf", false}, {"1_000", false},
		// More than 15 significant digits: refused, though json.Marshal
		// may well write the first.
		{"1234567890123456", false}, {"0.1234567890123456", false},
		{"12345678901234567890", false}, {"100000000000000000000", false},
		// Plain decimals where encoding/json switches to exponent form.
		{"0.0000001", false}, {"0.00000099", false},
	} {
		x, err := strconv.ParseFloat(strings.TrimSpace(tt.tok), 64)
		if err != nil {
			x = math.NaN()
		}
		if got := canonical(tt.tok, x); got != tt.want {
			t.Errorf("canonical(%q) = %v, want %v", tt.tok, got, tt.want)
		}
		if _, _, got := readCanonical(tt.tok, 0); got != tt.want {
			t.Errorf("readCanonical(%q) accepts: %v, want %v", tt.tok, got, tt.want)
		}
		if tt.want {
			if b, _ := json.Marshal(x); string(b) != tt.tok {
				t.Errorf("canonical token %q, json.Marshal writes %s", tt.tok, b)
			}
		}
	}
}

// canonical reports whether tok, which parses as x, is exactly the
// text encoding/json writes for x, by the rule readCanonical applies in
// one pass: tok must be
//   - an optional '-', then an integer part that is 0 or has no
//     leading zero, then optionally '.' and a fraction that does not
//     end in 0, with no exponent and no other byte;
//   - at most 15 significant digits (integer zeros count);
//   - and x is 0 or 1e-6 <= |x| < 1e21.
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

// parseFloatList is the target-list parser readFloats replaced: every
// token trimmed and parsed by strconv.ParseFloat, then held to
// canonical.
func parseFloatList(raw, noun string, dst []float64) (out []float64, canon bool, err error) {
	out = slices.Grow(dst[:0], strings.Count(raw, ",")+1)
	canon = true
	for rest, more := raw, true; more; {
		var p string
		p, rest, more = strings.Cut(rest, ",")
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, false, badRequest("invalid %s %q", noun, p)
		}
		canon = canon && canonical(p, x)
		out = append(out, x)
	}
	return out, canon, nil
}

// parseTargetsRef is parseTargets on parseFloatList: the oracle
// FuzzParseTargets holds parseTargets to.
func parseTargetsRef(raw string) (targetList, error) {
	if n := strings.Count(raw, ",") + 1; n > maxBatchTargets {
		return targetList{over: n}, nil
	}
	vals, canon, err := parseFloatList(raw, "target position", nil)
	if err != nil {
		return targetList{}, err
	}
	t := targetList{vals: vals}
	if canon {
		t.echo = raw
	}
	return t, nil
}

// FuzzCanonicalFloat holds the canonical-token rule to encoding/json,
// and the float writer to it too. Whenever canonical accepts a token,
// json.Marshal of the token's value writes exactly that token, and
// readCanonical accepts exactly the tokens canonical does, with
// strconv.ParseFloat's value; and appendFloat writes json.Marshal's
// bytes for every finite float64. The inputs are arbitrary tokens and,
// from arbitrary float64 bits, json.Marshal's rendering and each of its
// prefixes, which puts tokens of every length next to the 15-digit and
// the 1e-6 and 1e21 edges.
func FuzzCanonicalFloat(f *testing.F) {
	for _, tok := range []string{"0", "-0", "1.5", "1.50", "123.456", "0.000001",
		"0.0000001", "123456789012345", "1234567890123456", "1e21", "007", " 1", "1,5"} {
		f.Add(tok, uint64(0))
	}
	for _, x := range []float64{1e-6, 1e21, math.Nextafter(1e21, 0), math.Nextafter(1e-6, 1),
		0.1, 1.0 / 3, -123.456, math.MaxFloat64, math.SmallestNonzeroFloat64, 8e-323, 1e23} {
		f.Add("", math.Float64bits(x))
	}
	check := func(t *testing.T, tok string) {
		x, err := strconv.ParseFloat(tok, 64)
		want := err == nil && canonical(tok, x)
		got, end, ok := readCanonical(tok, 0)
		if ok != want || ok && (end != len(tok) || math.Float64bits(got) != math.Float64bits(x)) {
			t.Fatalf("readCanonical(%q) = %v, %d, %v; canonical says %v, strconv.ParseFloat %v", tok, got, end, ok, want, x)
		}
		if !want {
			return
		}
		if b, err := json.Marshal(x); err != nil || string(b) != tok {
			t.Fatalf("canonical(%q) holds, but json.Marshal(%v) = %s, %v", tok, x, b, err)
		}
	}
	f.Fuzz(func(t *testing.T, tok string, u uint64) {
		if !strings.Contains(tok, ",") {
			check(t, tok)
		}
		x := math.Float64frombits(u)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, x); !bytes.Equal(got, b) {
			t.Fatalf("appendFloat(%v) = %s, json.Marshal writes %s", x, got, b)
		}
		for n := 1; n <= len(b); n++ {
			check(t, string(b[:n]))
		}
	})
}

// FuzzParseTargets holds parseTargets to parseTargetsRef, the
// strconv.ParseFloat parser it replaced, on arbitrary lists. The seeds
// are the tokens at the edges of the canonical rule: too many
// significant digits, a trailing fraction zero, spaces, signs,
// exponents, empty tokens and values at 1e-6.
func FuzzParseTargets(f *testing.F) {
	for _, raw := range []string{
		"1,-2,3.5,40", "123456789012345", "1234567890123456", "0.1234567890123456",
		"-0.000000000000001", "1.50", " 1", "1 ", "1, 2", "+1", "-0", "0", "00", "-",
		"", ",", "1,,2", "1.", ".5", "1e3", "0.000001", "0.0000009", "0.00000000000000000000001",
		"99999999999999.9", "100000000000000", "NaN", "Inf", "1e400", "0x1p3", "1_000",
		"0.1,0.2,0.3", "9007199254740993", "-0.000001,0.0000010", "1,,x",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		got, gotErr := parseTargets(raw, nil)
		want, wantErr := parseTargetsRef(raw)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("parseTargets(%q): error %v, want %v", raw, gotErr, wantErr)
		}
		if got.echo != want.echo || got.over != want.over || len(got.vals) != len(want.vals) {
			t.Fatalf("parseTargets(%q) = %+v, want %+v", raw, got, want)
		}
		for i, x := range got.vals {
			if math.Float64bits(x) != math.Float64bits(want.vals[i]) {
				t.Fatalf("parseTargets(%q): value %d is %v, want %v", raw, i, x, want.vals[i])
			}
		}
	})
}

// BenchmarkParseTargets parses a 1,000-target list drawn as perfbench's
// curve-batch draws one (3 decimals, |x| from 1 to 1000, sorted).
func BenchmarkParseTargets(b *testing.B) {
	raw := strings.Join(curveTargets(1000), ",")
	dst := make([]float64, 0, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		xs, err := parseTargets(raw, dst)
		if err != nil || xs.echo == "" {
			b.Fatal(xs, err)
		}
	}
}

// curveTargets returns n targets drawn as perfbench's curve-batch draws
// a searchtimes list, as the tokens it sends.
func curveTargets(n int) []string {
	rng := rand.New(rand.NewPCG(7, 7))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Round((1+999*rng.Float64())*1000) / 1000
		if rng.IntN(2) == 0 {
			xs[i] = -xs[i]
		}
	}
	slices.Sort(xs)
	toks := make([]string, n)
	for i, x := range xs {
		toks[i] = strconv.FormatFloat(x, 'f', -1, 64)
	}
	return toks
}

// TestTargetListDecodesLikeFloatSlice decodes each xs value into a
// targetList and a []float64 field, as decodeBatch decodes a query, and
// requires the same values and the same error text.
func TestTargetListDecodesLikeFloatSlice(t *testing.T) {
	for _, xs := range []string{
		`[1,-2,3.5,40]`, `[1.0, 1E3,` + "\n\t" + `-2.50 , 4]`, `[]`, `[ ]`, `[-0]`,
		`[1,"2"]`, `["1,2"]`, `[[1,2]]`, `[1,{"a":2}]`, `{}`, `{"a":[1]}`, `[1e400]`,
		`[1,-1e400]`, `[1e-400]`, `null`, `[null]`, `[true]`, `"1,2"`, `5`, `false`,
	} {
		body := fmt.Sprintf(`{"queries":[{"op":"searchtimes","xs":%s}]}`, xs)
		var got BatchRequest
		gotErr := decodeBatch([]byte(body), &got)
		// Named as the service's type is, so errors name the same struct.
		type Query struct {
			Op string    `json:"op"`
			Xs []float64 `json:"xs"`
		}
		var want struct {
			Queries []Query `json:"queries"`
		}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("xs %s: error %v, []float64 gives %v", xs, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got.Queries[0].Xs.vals, want.Queries[0].Xs) {
			t.Errorf("xs %s: values %#v, []float64 gives %#v", xs, got.Queries[0].Xs.vals, want.Queries[0].Xs)
		}
	}
	// A key given twice keeps the last value, null included.
	var req BatchRequest
	if err := decodeBatch([]byte(`{"queries":[{"xs":[1,2],"XS":null}]}`), &req); err != nil || req.Queries[0].Xs.len() != 0 {
		t.Errorf("xs then null: %+v, %v", req.Queries[0].Xs, err)
	}
}

// TestTargetListEcho pins which lists keep their text: a list keeps it
// only when every token is canonical and nothing separates them but
// commas.
func TestTargetListEcho(t *testing.T) {
	for _, tt := range []struct{ xs, echo string }{
		{`[1,-2,3.5,40]`, `1,-2,3.5,40`},
		{`[123.456,-0.001]`, `123.456,-0.001`},
		{`[1, 2]`, ``},
		{`[1,2.50]`, ``},
		{`[1e3]`, ``},
	} {
		var xs targetList
		if err := json.Unmarshal([]byte(tt.xs), &xs); err != nil {
			t.Fatal(err)
		}
		if xs.echo != tt.echo {
			t.Errorf("%s: echo %q, want %q", tt.xs, xs.echo, tt.echo)
		}
	}
	for _, tt := range []struct{ raw, echo string }{
		{"1,-2,3.5,40", "1,-2,3.5,40"},
		{"1, 2", ""},
		{"1,2.50", ""},
	} {
		xs, err := parseTargets(tt.raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if xs.echo != tt.echo {
			t.Errorf("%q: echo %q, want %q", tt.raw, xs.echo, tt.echo)
		}
	}
}

// TestSearchTimesAnswerMatchesStructEncoding sends searchtimes GETs
// with echoed, formatted and mixed target lists and holds each answer
// to its struct encoding.
func TestSearchTimesAnswerMatchesStructEncoding(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	var targets []string
	for _, req := range goldenRequests {
		if strings.HasPrefix(req.target, "/v1/searchtimes?") {
			targets = append(targets, req.target)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	forms := []func(x float64) string{
		func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) },
		func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) },
		func(x float64) string { return strconv.FormatFloat(x, 'e', 3, 64) },
		func(x float64) string { // a trailing zero
			s := strconv.FormatFloat(x, 'f', -1, 64)
			if !strings.Contains(s, ".") {
				s += "."
			}
			return s + "0"
		},
		func(x float64) string { b, _ := json.Marshal(x); return string(b) },
	}
	for range 40 {
		toks := make([]string, 1+rng.IntN(30))
		form := rng.IntN(len(forms) + 1) // len(forms): a form per token
		for i := range toks {
			// |x| from 1e-7 to 1e24, across both plain-notation edges.
			x := math.Pow(10, -7+31*rng.Float64())
			if rng.IntN(2) == 0 {
				x = -x
			}
			fi := form
			if fi == len(forms) {
				fi = rng.IntN(len(forms))
			}
			toks[i] = forms[fi](x)
		}
		targets = append(targets, "/v1/searchtimes?n=5&f=2&mindist=0.0000001&xs="+url.QueryEscape(strings.Join(toks, ",")))
	}
	for _, target := range targets {
		u, err := url.Parse(target)
		if err != nil {
			t.Fatal(err)
		}
		var xs []float64
		for _, tok := range strings.Split(u.Query().Get("xs"), ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, x)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", target, w.Code, w.Body)
		}
		body := w.Body.Bytes()
		if !bytes.HasSuffix(body, newline) {
			t.Fatalf("%s: answer does not end in a newline", target)
		}
		checkSearchTimesAnswer(t, xs, bytes.TrimSuffix(body, newline))
	}
}

// TestTargetLimitBeforeParsing sends 10,001 targets, one of them not a
// number: the GET and the batch item both report the limit, which is
// found from the commas before any token is parsed.
func TestTargetLimitBeforeParsing(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	toks := strings.Split(strings.Repeat("1,", maxBatchTargets)+"zzz", ",")
	const want = "xs lists 10001 targets, the limit is 10000"

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/searchtimes?n=3&f=1&xs="+strings.Join(toks, ","), nil))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), want) {
		t.Errorf("GET: %d %s, want 400 %q", w.Code, w.Body, want)
	}
	toks[len(toks)-1] = "1e400" // out of range: counted, not parsed
	w = postBatch(h, `{"queries":[{"op":"searchtimes","n":3,"f":1,"xs":[`+strings.Join(toks, ",")+`]}]}`)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok":false,"error":"`+want+`"`) {
		t.Errorf("batch: %d %s, want a failed item %q", w.Code, w.Body, want)
	}
}
