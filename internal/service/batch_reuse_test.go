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

// slowBody rewrites a body so that scanBatch refuses it and the
// encoding/json path decodes it to the same queries: "f" spelled "F",
// which encoding/json matches case-insensitively.
func slowBody(body string) string { return strings.ReplaceAll(body, `"f":`, `"F":`) }

// TestBatchReuseLeavesNoStaleFields decodes batches that omit every
// optional field into a request that held a batch setting them all,
// and batches of formatted targets into one that held echoed targets,
// alternating bodies scanBatch reads with bodies it leaves to
// encoding/json. Each decode must give the queries a fresh request
// gives, and each answer the answer a fresh service gives.
func TestBatchReuseLeavesNoStaleFields(t *testing.T) {
	seq := []string{
		staleBatch, bareBatch, slowBody(staleBatch), slowBody(bareBatch),
		staleBatch, slowBody(bareBatch), slowBody(staleBatch), bareBatch,
		echoedBatch, formattedBatch, slowBody(echoedBatch), slowBody(formattedBatch),
		echoedBatch, slowBody(formattedBatch), slowBody(echoedBatch), formattedBatch,
	}
	var reused BatchRequest
	h := newTestService(t, Config{}).Handler()
	for i, body := range seq {
		if fast := scanBatch([]byte(body), new(BatchRequest)); fast == strings.Contains(body, `"F":`) {
			t.Fatalf("body %d: scanBatch read it = %v", i, fast)
		}
		var fresh BatchRequest
		if err := decodeBatch([]byte(body), &reused); err != nil {
			t.Fatal(err)
		}
		if err := decodeBatch([]byte(body), &fresh); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused.Queries, fresh.Queries) {
			t.Errorf("body %d: reused decode kept stale fields:\n got %+v\nwant %+v", i, reused.Queries, fresh.Queries)
		}

		got := postBatch(h, body)
		want := postBatch(newTestService(t, Config{}).Handler(), body)
		if got.Code != http.StatusOK || got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("body %d: answer after other batches:\n got %d %s\nwant %d %s", i, got.Code, got.Body, want.Code, want.Body)
		}
	}
}
