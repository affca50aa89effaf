package service

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRequests covers every GET op under both fault models (the
// Byzantine one with and without an explicit vote threshold), searchtime
// at non-unit speeds, /v1/plan
// at the default horizon (implicit and spelled out) and at explicit
// ones, a few rejected queries, and one mixed batch. The batch comes
// after the GETs, so its plan items embed answers for keys the GETs
// already cached, next to one key it builds itself. Target lists are
// pinned in the forms the answer echoes and in the forms it formats.
var goldenRequests = []struct{ method, target, body string }{
	{"GET", "/v1/plan?n=3&f=1", ""},
	{"GET", "/v1/plan?n=3&f=1&horizon=50", ""},
	{"GET", "/v1/plan?n=3&f=1&model=crash", ""},
	{"GET", "/v1/plan?n=3&f=1&horizon=20", ""},
	{"GET", "/v1/plan?n=7&f=3", ""},
	{"GET", "/v1/plan?n=5&f=2&mindist=0.5", ""},
	{"GET", "/v1/plan?n=5&f=2&mindist=0.5&horizon=7.25", ""},
	{"GET", "/v1/plan?n=4&f=1&strategy=doubling", ""},
	{"GET", "/v1/plan?n=5&f=1&model=byzantine", ""},
	{"GET", "/v1/plan?n=5&f=1&model=byzantine&votes=3", ""},
	{"GET", "/v1/plan?n=5&f=1&model=byzantine&votes=3&horizon=30", ""},
	{"GET", "/v1/plan?n=2&f=2", ""},
	{"GET", "/v1/plan?n=3&f=1&bogus=1", ""},
	// Plans of every tail kind and cone shape; one cut at 256 points
	// per robot; horizons at the 1e5*mindist cap and just past it;
	// points in e notation; and points past float64's range, which
	// encoding/json refuses (a 500).
	{"GET", "/v1/plan?n=7&f=3&strategy=uniform:1.5", ""},
	{"GET", "/v1/plan?n=5&f=2&strategy=cone:2.5", ""},
	{"GET", "/v1/plan?n=6&f=1&strategy=twogroup", ""},
	{"GET", "/v1/plan?n=5&f=2&strategy=pfaulty", ""},
	{"GET", "/v1/plan?n=2&f=1&strategy=cone:100&horizon=100000", ""},
	{"GET", "/v1/plan?n=3&f=1&horizon=100000", ""},
	{"GET", "/v1/plan?n=3&f=1&horizon=100000.00000000001", ""},
	{"GET", "/v1/plan?n=3&f=1&mindist=0.0000001", ""},
	{"GET", "/v1/plan?n=2&f=1&strategy=cone:1.000001&mindist=1e300&horizon=1e305", ""},
	{"GET", "/v1/plan?n=3&f=1&strategy=cone:1.0001&mindist=1e300&horizon=1e305", ""},
	// A mindist whose default horizon, 50*mindist, overflows: the
	// client's input is refused (a 400), on the miss and on the hit.
	{"GET", "/v1/plan?n=3&f=1&mindist=1e307", ""},
	{"GET", "/v1/searchtime?n=3&f=1&x=7.5", ""},
	{"GET", "/v1/searchtime?n=7&f=3&x=-12.25&k=2", ""},
	{"GET", "/v1/searchtime?n=3&f=1&x=7.5&objective=expected&p=0.25", ""},
	// The expected series at a broadcast speed and at a full vector that
	// reorders the arrivals (so the crash set changes), on pfaulty at
	// the family's own p (p=0), on a doubling fleet whose visits tie,
	// and at a target on robot 1's turning point, whose twin contact
	// counts once.
	{"GET", "/v1/searchtime?n=3&f=1&x=7.5&objective=expected&p=0.25&speeds=2", ""},
	{"GET", "/v1/searchtime?n=3&f=1&x=7.5&objective=expected&p=0.25&speeds=1,0.25,4", ""},
	{"GET", "/v1/searchtime?n=5&f=2&strategy=pfaulty&x=9&objective=expected&p=0", ""},
	{"GET", "/v1/searchtime?n=4&f=1&strategy=doubling&x=3&objective=expected&p=0.25", ""},
	{"GET", "/v1/searchtime?n=3&f=1&x=2.5198420997897464&objective=expected&p=0.25", ""},
	{"GET", "/v1/searchtime?n=5&f=1&x=7&model=byzantine", ""},
	{"GET", "/v1/searchtime?n=5&f=1&x=7&model=byzantine&votes=3", ""},
	// Speeds: one broadcast entry, a full vector that reorders the
	// arrivals (robot 2 overtakes robot 1), and a vector on a fleet
	// whose first visits tie.
	{"GET", "/v1/searchtime?n=3&f=1&x=7.5&speeds=2", ""},
	{"GET", "/v1/searchtime?n=3&f=1&x=7.5&speeds=1,0.25,4", ""},
	{"GET", "/v1/searchtime?n=4&f=1&strategy=twogroup&x=-3&speeds=0.5,4,2,2", ""},
	{"GET", "/v1/searchtimes?n=5&f=2&xs=1,-2,3.5,40", ""},
	{"GET", "/v1/searchtimes?n=5&f=1&xs=1,-2,3.5&model=byzantine&votes=3", ""},
	// Targets whose tokens are not the form encoding/json writes, so
	// the answer formats them; then canonical and non-canonical tokens
	// mixed; then tokens at the edges of the plain-decimal form.
	{"GET", "/v1/searchtimes?n=5&f=2&xs=1.50,%2B2,1e3,0x1p3,007,%203,12345678901234567890,2.000", ""},
	{"GET", "/v1/searchtimes?n=5&f=2&xs=1,2.50,-3,1e2,40", ""},
	{"GET", "/v1/searchtimes?n=3&f=1&mindist=0.0000001&xs=0.000001,-0.000001,0.0000001,0.123456789012345,-123456789012345,100000000000000000000,1234567890123456", ""},
	{"GET", "/v1/searchtimes?n=3&f=1&mindist=0.0000001&xs=0.000001,-0.000001,0.123456789012345,-123456789012345,999999999999999", ""},
	{"GET", "/v1/timeline?n=3&f=1&x=2&faulty=0", ""},
	{"GET", "/v1/timeline?n=5&f=1&x=7&model=byzantine&liars=0&tmax=500", ""},
	{"GET", "/v1/timeline?n=5&f=1&x=-3&model=byzantine&votes=3", ""},
	// The adversary's default fault set on crash fleets whose first
	// visits tie: the earliest visitor of lowest index is corrupted.
	{"GET", "/v1/timeline?n=4&f=1&strategy=twogroup&x=3", ""},
	{"GET", "/v1/timeline?n=4&f=1&strategy=doubling&x=3", ""},
	// Timelines on a wide fleet, on pfaulty's half-line zig-zag tails,
	// on a uniform cone, and at a horizon that cuts robots mid-leg.
	{"GET", "/v1/timeline?n=33&f=16&x=7", ""},
	{"GET", "/v1/timeline?n=5&f=2&strategy=pfaulty&x=9", ""},
	{"GET", "/v1/timeline?n=7&f=3&strategy=uniform:1.5&x=-5", ""},
	{"GET", "/v1/timeline?n=3&f=1&x=2&faulty=0&tmax=13.7", ""},
	{"GET", "/v1/lowerbound?n=5&f=2", ""},
	{"GET", "/v1/lowerbound?n=11&f=5", ""},
	{"GET", "/v1/lowerbound?n=2&f=2", ""},
	{"POST", "/v1/batch", `{"queries":[` +
		`{"op":"plan","n":3,"f":1},` +
		`{"op":"plan","n":3,"f":1,"horizon":20},` +
		`{"op":"plan","n":9,"f":4},` +
		`{"op":"plan","n":5,"f":1,"model":"byzantine","votes":3},` +
		`{"op":"searchtime","n":3,"f":1,"x":7.5},` +
		`{"op":"searchtimes","n":5,"f":2,"xs":[1,-2]},` +
		`{"op":"timeline","n":3,"f":1,"x":2,"faulty":[0]},` +
		`{"op":"lowerbound","n":5,"f":2},` +
		`{"op":"plan","n":2,"f":2}]}`},
	// The plan pins above as batch items, the first pass building what
	// the GETs left uncached; then a batch whose plan cannot be encoded.
	{"POST", "/v1/batch", `{"queries":[` +
		`{"op":"plan","n":7,"f":3,"strategy":"uniform:1.5"},` +
		`{"op":"plan","n":5,"f":2,"strategy":"cone:2.5"},` +
		`{"op":"plan","n":6,"f":1,"strategy":"twogroup"},` +
		`{"op":"plan","n":5,"f":2,"strategy":"pfaulty"},` +
		`{"op":"plan","n":2,"f":1,"strategy":"cone:100","horizon":100000},` +
		`{"op":"plan","n":3,"f":1,"horizon":100000},` +
		`{"op":"plan","n":3,"f":1,"horizon":100000.00000000001},` +
		`{"op":"plan","n":3,"f":1,"mindist":1e-7},` +
		`{"op":"plan","n":3,"f":1,"mindist":1e-7,"horizon":5e-6},` +
		`{"op":"plan","n":2,"f":1,"strategy":"cone:1.000001","mindist":1e300,"horizon":1e305}]}`},
	{"POST", "/v1/batch", `{"queries":[{"op":"plan","n":3,"f":1,"strategy":"cone:1.0001","mindist":1e300,"horizon":1e305}]}`},
	// Timelines and expected times as batch items: the GETs' keys and
	// keys the first pass builds, a liar, a cut horizon and a reordering
	// speed vector.
	{"POST", "/v1/batch", `{"queries":[` +
		`{"op":"timeline","n":5,"f":2,"strategy":"pfaulty","x":9},` +
		`{"op":"timeline","n":7,"f":3,"strategy":"uniform:1.5","x":-5,"tmax":40},` +
		`{"op":"timeline","n":7,"f":2,"x":-7,"model":"byzantine","liars":[3],"faulty":[1],"tmax":300},` +
		`{"op":"timeline","n":5,"f":1,"x":-7,"model":"byzantine","liars":[3],"faulty":[1],"tmax":300},` +
		`{"op":"timeline","n":9,"f":2,"model":"byzantine","x":4.5,"liars":[0,8]},` +
		`{"op":"timeline","n":6,"f":2,"strategy":"doubling","x":-4,"tmax":21.5},` +
		`{"op":"searchtime","n":3,"f":1,"x":-7.5,"objective":"expected","p":0.25,"speeds":[1,0.25,4]},` +
		`{"op":"searchtime","n":5,"f":2,"strategy":"pfaulty","x":9,"objective":"expected"},` +
		`{"op":"searchtime","n":4,"f":1,"strategy":"doubling","x":4,"objective":"expected","p":0.5,"speeds":[2]},` +
		`{"op":"searchtime","n":6,"f":2,"strategy":"twogroup","x":-3,"objective":"expected","p":0.1,"speeds":[0.5,4,2,2,1,1]}]}`},
	// The overflowing default horizon as batch items: the GET's key,
	// and a key the first pass builds.
	{"POST", "/v1/batch", `{"queries":[{"op":"plan","n":3,"f":1,"mindist":1e307},{"op":"plan","n":3,"f":1,"mindist":4e306},{"op":"plan","n":3,"f":1}]}`},
	// Target lists that are formatted, not echoed, and target lists
	// that the batch decoder rejects.
	{"POST", "/v1/batch", `{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[1.0, 1E3,` + "\n\t" + `-2.50 , 4]}]}`},
	{"POST", "/v1/batch", `{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[1,"2"]}]}`},
	{"POST", "/v1/batch", `{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":{}}]}`},
	{"POST", "/v1/batch", `{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":[1e400]}]}`},
	{"POST", "/v1/batch", `{"queries":[{"op":"searchtimes","n":5,"f":2,"xs":null}]}`},
}

// TestResponsesGolden pins the status, Content-Type and body of every
// golden request, each sent twice so that both the cache-miss and the
// cache-hit path are pinned. Regenerate with -update and review the
// diff: a changed byte is a wire-format change.
func TestResponsesGolden(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	var buf bytes.Buffer
	for _, req := range goldenRequests {
		for pass := 1; pass <= 2; pass++ {
			r := httptest.NewRequest(req.method, req.target, strings.NewReader(req.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			fmt.Fprintf(&buf, "=== %s %s (pass %d)\n", req.method, req.target, pass)
			fmt.Fprintf(&buf, "status: %d\ncontent-type: %s\n", w.Code, w.Header().Get("Content-Type"))
			buf.Write(w.Body.Bytes())
		}
	}
	path := filepath.Join("testdata", "responses.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("responses differ from golden %s (regenerate with -update and review):\ngot:\n%s", path, buf.String())
	}
}
