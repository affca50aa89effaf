package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// batchOps lists every op a batch item can name.
var batchOps = []string{OpPlan, OpSearchTime, OpSearchTimes, OpTimeline, OpLowerBound}

// staleBatch sets every optional Query field on one item per op, so a
// reused query list that kept them would carry them into a later batch
// that omits them.
var staleBatch = func() string {
	items := make([]string, len(batchOps))
	for i, op := range batchOps {
		items[i] = fmt.Sprintf(`{"op":%q,"n":4,"f":1,"strategy":"doubling","mindist":2,"x":3,`+
			`"xs":[1,-2],"k":2,"faulty":[0],"tmax":50,"horizon":9,"model":"byzantine","votes":2,`+
			`"liars":[1],"objective":"expected","p":0.25,"speeds":[1,2]}`, op)
	}
	return `{"queries":[` + strings.Join(items, ",") + `]}`
}()

// bareBatch names the same ops with no optional field.
var bareBatch = func() string {
	items := make([]string, len(batchOps))
	for i, op := range batchOps {
		items[i] = fmt.Sprintf(`{"op":%q,"n":4,"f":1}`, op)
	}
	return `{"queries":[` + strings.Join(items, ",") + `]}`
}()

func postBatch(h http.Handler, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
	return w
}

// TestBatchReuseLeavesNoStaleFields decodes a batch that omits every
// optional field into a query list that held one setting them all, and
// requires the queries and the answer a fresh decode and a fresh
// service give.
func TestBatchReuseLeavesNoStaleFields(t *testing.T) {
	var reused, fresh BatchRequest
	if err := decodeBatch([]byte(staleBatch), &reused); err != nil {
		t.Fatal(err)
	}
	if err := decodeBatch([]byte(bareBatch), &reused); err != nil {
		t.Fatal(err)
	}
	if err := decodeBatch([]byte(bareBatch), &fresh); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("reused decode kept stale fields:\n got %+v\nwant %+v", reused.Queries, fresh.Queries)
	}

	h := newTestService(t, Config{}).Handler()
	if w := postBatch(h, staleBatch); w.Code != http.StatusOK {
		t.Fatalf("stale batch: %d %s", w.Code, w.Body)
	}
	got := postBatch(h, bareBatch)
	want := postBatch(newTestService(t, Config{}).Handler(), bareBatch)
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("answer after a stale batch:\n got %d %s\nwant %d %s", got.Code, got.Body, want.Code, want.Body)
	}
}
