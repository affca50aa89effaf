package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// untimed returns s with every timing zeroed, after checking that each
// is non-negative and that a child ends no later than its trace.
func untimed(t *testing.T, s SpanSnapshot, traceDur float64) SpanSnapshot {
	t.Helper()
	if s.StartOffsetSeconds < 0 || s.DurationSeconds < 0 ||
		s.StartOffsetSeconds+s.DurationSeconds > traceDur+1e-9 {
		t.Errorf("span %q timing: offset %v duration %v in a %v trace",
			s.Name, s.StartOffsetSeconds, s.DurationSeconds, traceDur)
	}
	s.StartOffsetSeconds, s.DurationSeconds = 0, 0
	for i, c := range s.Children {
		s.Children[i] = untimed(t, c, traceDur)
	}
	return s
}

// TestSnapshotMatchesRecordedTree renders a trace that exercises the
// whole recorded tree: nesting in start order, the four attribute
// kinds with their dynamic types, attributes past the inline ones, a
// duplicate key (the last write wins), the span cap, and a child still
// running at root end. Mutating the trace after the root ended must
// leave its snapshot unchanged.
func TestSnapshotMatchesRecordedTree(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	tr.maxSpans = 5
	ctx, root := tr.StartRequest(context.Background(), "root", "")
	root.SetStr("s", "v")
	root.SetInt("i", -7)
	root.SetFloat("f", 2.5)
	root.SetBool("yes", true)
	root.SetBool("no", false)
	root.SetInt("i", 42)
	ctxA, a := StartSpan(ctx, "a")
	_, a1 := StartSpan(ctxA, "a1")
	a1.SetFloat("x", -0.5)
	a1.End()
	_, a2 := StartSpan(ctxA, "a2")
	a2.End()
	a.End()
	ctxB, b := StartSpan(ctx, "b") // left running: truncated at root end
	b.SetStr("s", "first")
	b.SetStr("s", "last")
	if _, over := StartSpan(ctxB, "over the cap"); over != nil {
		t.Fatal("a span over the cap was created")
	}
	time.Sleep(time.Millisecond)
	root.End()

	first := tr.Traces()
	if len(first) != 1 {
		t.Fatalf("traces = %d, want 1", len(first))
	}
	got := first[0]
	if got.Name != "root" || got.SpanCount != 5 || got.DroppedSpans != 1 {
		t.Errorf("trace header = %q, %d spans, %d dropped; want root, 5, 1", got.Name, got.SpanCount, got.DroppedSpans)
	}
	if st := tr.Stats(); st.SpansDropped != 1 || st.TruncatedTraces != 1 || st.Finished != 1 {
		t.Errorf("stats = %+v", st)
	}
	bSnap := got.Root.Children[1]
	if want := got.DurationSeconds - bSnap.StartOffsetSeconds; math.Abs(bSnap.DurationSeconds-want) > 1e-9 {
		t.Errorf("running child duration = %v, want the rest of the root's %v", bSnap.DurationSeconds, want)
	}
	want := SpanSnapshot{
		Name:  "root",
		Attrs: map[string]any{"s": "v", "i": int64(42), "f": 2.5, "yes": true, "no": false},
		Children: []SpanSnapshot{
			{Name: "a", Children: []SpanSnapshot{{Name: "a1", Attrs: map[string]any{"x": -0.5}}, {Name: "a2"}}},
			{Name: "b", Attrs: map[string]any{"s": "last"}},
		},
	}
	if root := untimed(t, got.Root, got.DurationSeconds); !reflect.DeepEqual(root, want) {
		t.Errorf("rendered tree:\n got %#v\nwant %#v", root, want)
	}

	// After the root ended every mutation is a no-op.
	if _, late := StartSpan(ctx, "late"); late != nil {
		t.Error("StartSpan after root end returned a span")
	}
	b.SetStr("late", "x")
	b.SetInt("i", 1)
	b.End()
	a.SetBool("late", true)
	root.SetFloat("late", 1)
	root.End()
	again := tr.Traces()
	if len(again) != 1 || again[0].DurationSeconds != got.DurationSeconds ||
		again[0].Root.Children[1].DurationSeconds != bSnap.DurationSeconds ||
		again[0].SpanCount != 5 || again[0].DroppedSpans != 1 {
		t.Errorf("late mutations changed the trace: %+v", again)
	}
	if root := untimed(t, again[0].Root, again[0].DurationSeconds); !reflect.DeepEqual(root, want) {
		t.Errorf("tree after late mutations:\n got %#v\nwant %#v", root, want)
	}
	if st := tr.Stats(); st.SpansDropped != 1 || st.Finished != 1 {
		t.Errorf("stats after late mutations = %+v", st)
	}
}

// TestDetachedSpanOutlivesRoot has a detached goroutine hold a child
// span the way PlanCache.get hands its build span to `go c.fill`: the
// goroutine annotates and ends the child after the root ended, while
// readers render the ring. Under -race this proves the late mutations
// never write what a reader reads; every render must show the child
// truncated at root end and without its late attribute.
func TestDetachedSpanOutlivesRoot(t *testing.T) {
	tr := New(Config{SampleRate: 1, Capacity: 16})
	stop := make(chan struct{})
	var readers, builds sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tc := range tr.Traces() {
					build := tc.Root.Children[0]
					if build.Attrs["error"] != nil || len(build.Children) != 0 {
						t.Errorf("a late mutation reached a snapshot: %+v", build)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		ctx, root := tr.StartRequest(context.Background(), "req", "")
		ctx, build := StartSpan(ctx, "plan.build")
		ended := make(chan struct{})
		builds.Add(1)
		go func() {
			defer builds.Done()
			build.SetStr("plan", "A(3,1)")
			<-ended
			build.SetStr("error", "late")
			_, child := StartSpan(ctx, "late child")
			child.End()
			build.End()
		}()
		root.End()
		close(ended)
	}
	builds.Wait()
	close(stop)
	readers.Wait()
	for _, tc := range tr.Traces() {
		build := tc.Root.Children[0]
		if math.Abs(build.StartOffsetSeconds+build.DurationSeconds-tc.DurationSeconds) > 1e-9 {
			t.Errorf("build span %+v not truncated at root end %v", build, tc.DurationSeconds)
		}
	}
}

// TestTracedRequestAllocs pins the sampled path's cost for a GET-shaped
// trace: the trace, which holds its first spans and their contexts and
// attributes, and the trace ID.
func TestTracedRequestAllocs(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		ctx2, root := tr.StartRequest(ctx, "/v1/plan", "")
		root.SetStr("method", "GET")
		root.SetStr("path", "/v1/plan")
		ctx3, eval := StartSpan(ctx2, "eval")
		eval.SetStr("op", "plan")
		eval.SetBool("cache_hit", true)
		_, geom := StartSpan(ctx3, "plan.geometry")
		geom.SetInt("robots", 3)
		geom.End()
		eval.End()
		root.SetInt("status", 200)
		root.End()
	})
	// The race detector moves rand.Read's buffer to the heap.
	want := 2 + testing.AllocsPerRun(10, func() {
		var b [16]byte
		rand.Read(b[:])
	})
	if allocs > want {
		t.Errorf("a 3-span traced request allocates %v times, want at most %v", allocs, want)
	}
}

// TestTracesHandlerRendersTheCut fills the ring and checks that the
// handler, which sorts and cuts on the roots before rendering, answers
// what sorting and cutting every rendered trace answers.
func TestTracesHandlerRendersTheCut(t *testing.T) {
	tr := New(Config{SampleRate: 1, Capacity: 16})
	for i := 0; i < 40; i++ {
		ctx, root := tr.StartRequest(context.Background(), "req", "")
		root.SetInt("i", int64(i))
		_, s := StartSpan(ctx, "stage")
		if i%3 == 0 {
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		}
		s.End()
		root.End()
	}
	all := tr.Traces()
	if len(all) != 16 {
		t.Fatalf("ring holds %d traces, want 16", len(all))
	}
	eager := map[string]func(i, j int) bool{
		"recent": func(i, j int) bool { return all[i].Start.After(all[j].Start) },
		"slowest": func(i, j int) bool {
			if all[i].DurationSeconds != all[j].DurationSeconds {
				return all[i].DurationSeconds > all[j].DurationSeconds
			}
			return all[i].Start.After(all[j].Start)
		},
	}
	for _, c := range []struct {
		query, order string
		n            int
	}{{"?n=1&sort=slowest", "slowest", 1}, {"?n=3&sort=recent", "recent", 3}} {
		all = tr.Traces()
		sort.Slice(all, eager[c.order])
		want, _ := json.Marshal(TracesResponse{Count: 16, Sort: c.order, Traces: all[:c.n]})
		w := httptest.NewRecorder()
		TracesHandler(tr)(w, httptest.NewRequest("GET", "/debug/traces"+c.query, nil))
		if got := w.Body.Bytes(); string(got) != string(want)+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", c.query, got, want)
		}
	}
}
