package service

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// curveBatchBody is a 64-item batch shaped like perfbench's curve-batch
// POSTs: six warm proportional plans with n from 21 to 41, and per ten
// items about five searchtime, two plan, one lowerbound and two
// 16-target searchtimes queries, with 3-decimal targets, in the field
// order and spelling a client marshalling a struct writes.
func curveBatchBody(seed uint64) []byte {
	type item struct {
		Op      string    `json:"op"`
		N       int       `json:"n"`
		F       int       `json:"f"`
		MinDist float64   `json:"mindist,omitempty"`
		X       float64   `json:"x,omitempty"`
		Xs      []float64 `json:"xs,omitempty"`
	}
	keys := [][2]int{{21, 10}, {21, 14}, {31, 16}, {31, 24}, {41, 21}, {41, 30}}
	rng := rand.New(rand.NewPCG(seed, seed))
	target := func(scale float64) float64 {
		x := math.Round((1+scale*rng.Float64())*1000) / 1000
		if rng.IntN(2) == 0 {
			x = -x
		}
		return x
	}
	items := make([]item, 64)
	for i := range items {
		k := keys[rng.IntN(len(keys))]
		it := item{N: k[0], F: k[1], MinDist: 1}
		switch u := rng.Float64(); {
		case u < 0.5:
			it.Op, it.X = OpSearchTime, target(99)
		case u < 0.7:
			it.Op = OpPlan
		case u < 0.8:
			it.Op = OpLowerBound
		default:
			it.Op = OpSearchTimes
			it.Xs = make([]float64, 16)
			for j := range it.Xs {
				it.Xs[j] = target(999)
			}
			slices.Sort(it.Xs)
		}
		items[i] = it
	}
	body, err := json.Marshal(struct {
		Queries []item `json:"queries"`
	}{items})
	if err != nil {
		panic(err)
	}
	return body
}

// sameQueries reports whether a and b hold the same queries, field for
// field: nil and empty slices differ, and so do 0 and -0.
func sameQueries(a, b []Query) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b) && fmt.Sprint(a) == fmt.Sprint(b))
}

// FuzzDecodeBatch requires decodeBatch, whose one-pass scanner reads
// the bodies it can, to agree with decodeBatchJSON on every body: the
// same error text, or the same queries field by field (the target
// list's values, echo and count included), decoding into a fresh
// request and into one reused from a body that set every field.
func FuzzDecodeBatch(f *testing.F) {
	for _, req := range goldenRequests {
		if req.method == http.MethodPost {
			f.Add([]byte(req.body))
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		f.Add(curveBatchBody(seed))
	}
	f.Add(benchBatchBody)
	for _, body := range []string{
		staleBatch, bareBatch, echoedBatch, formattedBatch,
		// Keys encoding/json matches case-insensitively, a key given
		// twice, null fields, escaped strings and a non-ASCII strategy.
		`{"queries":[{"op":"searchtimes","n":5,"f":2,"XS":[1,2]}]}`,
		`{"queries":[{"Op":"plan","n":5,"f":2}]}`,
		`{"QUERIES":[{"op":"plan","n":5,"f":2}]}`,
		`{"queries":[{"op":"plan","n":5,"f":2,"n":6}]}`,
		`{"queries":[{"op":"timeline","n":5,"f":2,"x":3,"faulty":null,"strategy":null,"xs":null}]}`,
		`{"queries":null}`,
		`{"queries":[{"op":"plan","n":5,"f":2,"strategy":"doub\"ling"}]}`,
		`{"queries":[{"op":"plan","n":5,"f":2,"strategy":"dóubling"}]}`,
		// Numbers at the edges of the int and float fields.
		`{"queries":[{"op":"plan","n":1.0,"f":2}]}`,
		`{"queries":[{"op":"plan","n":1e2,"f":2}]}`,
		`{"queries":[{"op":"plan","n":-0,"f":2,"mindist":-0}]}`,
		`{"queries":[{"op":"plan","n":12345678901234567890,"f":2}]}`,
		`{"queries":[{"op":"searchtime","n":5,"f":2,"x":1e400}]}`,
		`{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[1,1e400]}]}`,
		`{"queries":[{"op":"searchtime","n":5,"f":2,"x":01}]}`,
		// Arrays: empty, spaced, and of the wrong element type.
		`{"queries":[{"op":"timeline","n":5,"f":2,"x":3,"faulty":[],"liars":[ ],"speeds":[]}]}`,
		`{"queries":[{"op":"timeline","n":5,"f":2,"x":3,"faulty":[0, 1],"liars":[2],"speeds":[1.5,2]}]}`,
		`{"queries":[{"op":"timeline","n":5,"f":2,"x":3,"faulty":[0.5]}]}`,
		`{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[]}]}`,
		`{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[ 1 , -2.50 ]}]}`,
		// Trailing data, a nested unknown field, no queries at all.
		`{"queries":[{"op":"lowerbound","n":5,"f":2}]} garbage`,
		`{"queries":[{"op":"lowerbound","n":5,"f":2}]}` + "\n\t ",
		`{"queries":[{"op":"lowerbound","n":5,"f":2,"extra":{"a":[1]}}]}`,
		`{"queries":[]}`,
		`{}`,
		` {"queries" : [ { } , {"op":"plan"} ] } `,
	} {
		f.Add([]byte(body))
	}
	// Requests reused from a body that set every field, one read by
	// the scanner and one left to encoding/json.
	prev := [][]byte{[]byte(staleBatch), []byte(slowBody(staleBatch))}
	f.Fuzz(func(t *testing.T, body []byte) {
		check := func(what string, got, want *BatchRequest) {
			gotErr, wantErr := decodeBatch(body, got), decodeBatchJSON(body, want)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, encoding/json gives %v\nbody %q", what, gotErr, wantErr, body)
			}
			if gotErr == nil && !sameQueries(got.Queries, want.Queries) {
				t.Fatalf("%s: queries\n %+v\nencoding/json gives\n %+v\nbody %q", what, got.Queries, want.Queries, body)
			}
		}
		check("fresh", new(BatchRequest), new(BatchRequest))
		for _, p := range prev {
			var got, want BatchRequest
			if err := decodeBatch(p, &got); err != nil {
				t.Fatal(err)
			}
			if err := decodeBatchJSON(p, &want); err != nil {
				t.Fatal(err)
			}
			check("reused", &got, &want)
		}
	})
}

// TestScanBatchReadsClientBodies pins which bodies take the one-pass
// path: those a client marshalling a struct sends, and none spelling a
// key in another case.
func TestScanBatchReadsClientBodies(t *testing.T) {
	for _, body := range [][]byte{curveBatchBody(1), benchBatchBody, []byte(staleBatch), []byte(bareBatch)} {
		if !scanBatch(body, new(BatchRequest)) {
			t.Errorf("scanBatch refused %.80s…", body)
		}
	}
	for _, body := range []string{
		`{"queries":[{"op":"plan","N":5,"f":2}]}`,
		`{"Queries":[{"op":"plan","n":5,"f":2}]}`,
		`{"queries":[{"op":"timeline","n":5,"f":2,"x":3,"faulty":null}]}`,
	} {
		if scanBatch([]byte(body), new(BatchRequest)) {
			t.Errorf("scanBatch read %s", body)
		}
	}
	var req BatchRequest
	if err := decodeBatch([]byte(`{"queries":[{"op":"timeline","faulty":[],"liars":[1],"speeds":[]}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if q := req.Queries[0]; q.Faulty == nil || len(q.Faulty) != 0 || q.Speeds == nil || len(q.Speeds) != 0 {
		t.Errorf("[] decoded as %#v and %#v, want empty non-nil slices", q.Faulty, q.Speeds)
	}
	if got := strings.Join(queryFields[:], ","); got != strings.Join(queryTags(), ",") {
		t.Errorf("queryFields %s, Query's tags %s", got, strings.Join(queryTags(), ","))
	}
}

// queryTags lists Query's JSON names in field order.
func queryTags() []string {
	var tags []string
	typ := reflect.TypeOf(Query{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		tags = append(tags, name)
	}
	return tags
}

// benchBatchBody is BenchmarkBatch's body: map keys, which
// encoding/json sorts.
var benchBatchBody = func() []byte {
	var queries []map[string]any
	for i := 0; i < 64; i++ {
		n, f := 3+i%5, 1+i%2
		if n <= 2*f {
			f = 1
		}
		q := map[string]any{"n": n, "f": f}
		switch i % 3 {
		case 0:
			q["op"] = OpPlan
		case 1:
			q["op"], q["x"] = OpSearchTime, 2.0+float64(i)
		case 2:
			q["op"] = OpLowerBound
		}
		queries = append(queries, q)
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		panic(err)
	}
	return body
}()

// BenchmarkDecodeBatch measures decodeBatch alone on a 64-item body
// shaped like perfbench's curve-batch POSTs, into a reused request.
func BenchmarkDecodeBatch(b *testing.B) {
	body := curveBatchBody(1)
	var req BatchRequest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := decodeBatch(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}
