package telemetry

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestRingEvictsOldestPerStripe(t *testing.T) {
	r := NewStripedRing[TraceSnapshot](ringStripes) // one slot per stripe
	for i := 0; i < 3*ringStripes; i++ {
		r.Add(TraceSnapshot{TraceID: fmt.Sprint(i)})
	}
	evicted, buffered := r.Stats()
	if buffered != ringStripes {
		t.Errorf("buffered = %d, want %d", buffered, ringStripes)
	}
	if evicted != 2*ringStripes {
		t.Errorf("evicted = %d, want %d", evicted, 2*ringStripes)
	}
	if got := len(r.Snapshot()); got != ringStripes {
		t.Errorf("snapshot length = %d", got)
	}
}

// TestRingConcurrent hammers the ring from many goroutines while
// readers snapshot it; run under -race this is the data-race proof for
// the lock striping.
func TestRingConcurrent(t *testing.T) {
	tr := New(Config{SampleRate: 1, Capacity: 64})
	const writers, perWriter, readers = 8, 200, 4

	var writeWG, readWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func() {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				ctx, root := tr.StartRequest(context.Background(), "load", "")
				_, child := StartSpan(ctx, "stage")
				child.SetInt("i", int64(i))
				child.End()
				root.End()
			}
		}()
	}
	stop := make(chan struct{})
	for rdr := 0; rdr < readers; rdr++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, snap := range tr.Traces() {
					if snap.SpanCount < 1 || snap.TraceID == "" {
						t.Error("reader observed a torn trace")
						return
					}
				}
				tr.Stats()
			}
		}()
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	st := tr.Stats()
	if st.Finished != writers*perWriter {
		t.Errorf("finished = %d, want %d", st.Finished, writers*perWriter)
	}
	if st.Buffered > 64+ringStripes {
		t.Errorf("buffered = %d exceeds capacity", st.Buffered)
	}
	if st.Buffered+int(st.Evicted) != writers*perWriter {
		t.Errorf("buffered %d + evicted %d != %d traces", st.Buffered, st.Evicted, writers*perWriter)
	}
}

// TestConcurrentSpansOneTrace exercises concurrent span creation and
// annotation within a single trace (the batch fan-out shape) under
// -race.
func TestConcurrentSpansOneTrace(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	tr.maxSpans = 4096
	ctx, root := tr.StartRequest(context.Background(), "batch", "")
	var wg sync.WaitGroup
	const workers, items = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				_, s := StartSpan(ctx, "eval")
				s.SetInt("i", int64(i))
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	if got := traces[0].SpanCount; got != workers*items+1 {
		t.Errorf("span count = %d, want %d", got, workers*items+1)
	}
	if got := len(traces[0].Root.Children); got != workers*items {
		t.Errorf("children = %d, want %d", got, workers*items)
	}
}
