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

// echoedBatch lists targets in the form an answer echoes, and
// formattedBatch other targets in forms an answer must format, so an
// echo kept from the first would show in the second's answer.
const (
	echoedBatch    = `{"queries":[{"op":"searchtimes","n":4,"f":1,"xs":[1.5,-2,30]}]}`
	formattedBatch = `{"queries":[{"op":"searchtimes","n":4,"f":1,"xs":[2.50,-3.0,4e1]}]}`
)

// TestBatchReuseLeavesNoStaleFields decodes a batch that omits every
// optional field into a query list that held one setting them all, and
// a batch of formatted targets into one that held echoed targets, and
// requires the queries and the answers a fresh decode and a fresh
// service give.
func TestBatchReuseLeavesNoStaleFields(t *testing.T) {
	for _, pair := range [][2]string{{staleBatch, bareBatch}, {echoedBatch, formattedBatch}} {
		first, second := pair[0], pair[1]
		var reused, fresh BatchRequest
		if err := decodeBatch([]byte(first), &reused); err != nil {
			t.Fatal(err)
		}
		if err := decodeBatch([]byte(second), &reused); err != nil {
			t.Fatal(err)
		}
		if err := decodeBatch([]byte(second), &fresh); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Errorf("reused decode kept stale fields:\n got %+v\nwant %+v", reused.Queries, fresh.Queries)
		}

		h := newTestService(t, Config{}).Handler()
		if w := postBatch(h, first); w.Code != http.StatusOK {
			t.Fatalf("first batch: %d %s", w.Code, w.Body)
		}
		got := postBatch(h, second)
		want := postBatch(newTestService(t, Config{}).Handler(), second)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("answer after another batch:\n got %d %s\nwant %d %s", got.Code, got.Body, want.Code, want.Body)
		}
	}
}
