package numeric

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChunkedIdenticalAcrossWorkers: items that write only their own
// slot produce the same output at every worker count, including more
// workers than items and a count below 1 (which runs inline), and every
// index is visited exactly once.
func TestChunkedIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1001} {
		var want []int
		for _, workers := range []int{-1, 0, 1, 3, 64} {
			out := make([]int, n)
			visits := make([]atomic.Int32, n)
			err := ForEach(context.Background(), n, workers, func(w, i int) error {
				if w < 0 || w >= max(workers, 1) {
					t.Errorf("n=%d workers=%d: worker index %d out of range", n, workers, w)
				}
				visits[i].Add(1)
				out[i] = i*i + 1
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
			if want == nil {
				want = out
			} else if !slices.Equal(out, want) {
				t.Errorf("n=%d workers=%d: %v, want %v", n, workers, out, want)
			}
		}
	}
}

// TestChunkedHandsOutWorkOnDemand: item 0 blocks until every other
// index has run. A pool that split the range into fixed chunks would
// strand the rest of item 0's chunk behind it; handing out indices on
// demand lets the other worker run them all.
func TestChunkedHandsOutWorkOnDemand(t *testing.T) {
	const n, workers = 10, 2
	var others sync.WaitGroup
	others.Add(n - 1)
	allRan := make(chan struct{})
	go func() { others.Wait(); close(allRan) }()
	err := ForEach(context.Background(), n, workers, func(_, i int) error {
		if i != 0 {
			others.Done()
			return nil
		}
		select {
		case <-allRan:
			return nil
		case <-time.After(5 * time.Second):
			return errors.New("item 0 waited 5s for the other items: work is not handed out on demand")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChunkedInlineStopsAtFirstError: with one worker the items run in
// index order on the caller's goroutine and the first error ends the
// loop.
func TestChunkedInlineStopsAtFirstError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var ran []int
	err := ForEach(context.Background(), 10, 1, func(_, i int) error {
		ran = append(ran, i)
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Errorf("error %v, want %v", err, errA)
	}
	if want := []int{0, 1, 2, 3}; !slices.Equal(ran, want) {
		t.Errorf("ran %v, want %v", ran, want)
	}
}

// TestChunkedFirstErrorWins: worker 0 fails as soon as every other
// worker is inside its first item. Those in-flight items finish (one of
// them with a later error of its own), but the earlier error is the one
// returned and no worker starts a second item.
func TestChunkedFirstErrorWins(t *testing.T) {
	const n, workers = 40, 4
	errFirst, errLate := errors.New("first"), errors.New("late")
	var inFlight sync.WaitGroup
	inFlight.Add(workers - 1)
	failed := make(chan struct{})
	var started atomic.Int32
	base := runtime.NumGoroutine()
	err := ForEach(context.Background(), n, workers, func(w, i int) error {
		started.Add(1)
		if w == 0 {
			inFlight.Wait()
			close(failed)
			return errFirst
		}
		inFlight.Done()
		<-failed
		// Worker 0 records its error before its goroutine exits; wait
		// for that exit.
		for runtime.NumGoroutine() > base+workers-1 {
			runtime.Gosched()
		}
		if w == 1 {
			return errLate
		}
		return nil
	})
	if err != errFirst {
		t.Errorf("error %v, want %v", err, errFirst)
	}
	if got := started.Load(); got != workers {
		t.Errorf("%d items started, want %d (one per worker)", got, workers)
	}
}

// TestChunkedBoundsConcurrency: no more than workers items run at once.
func TestChunkedBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 50, workers, func(_, _ int) error {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent items, limit %d", got, workers)
	}
}

// TestChunkedProcessesEverything: with more items than workers, every
// item's result lands.
func TestChunkedProcessesEverything(t *testing.T) {
	const n = 100
	out := make([]int, n)
	if err := ForEach(context.Background(), n, 7, func(_, i int) error { out[i] = i * i; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestChunkedZeroItems: n = 0 calls nothing and reports no error.
func TestChunkedZeroItems(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, func(_, _ int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedWorkerFloor: a worker count below 1 still runs every item.
func TestChunkedWorkerFloor(t *testing.T) {
	for _, workers := range []int{0, -3} {
		var count atomic.Int64
		if err := ForEach(context.Background(), 5, workers, func(_, _ int) error { count.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		if count.Load() != 5 {
			t.Errorf("workers=%d: processed %d of 5", workers, count.Load())
		}
	}
}

// TestChunkedCancellation: once ctx is done no item starts, items in
// flight finish, and ForEach reports ctx.Err() because some item did
// not run. Inline, the item that cancels is the last to run; with
// workers, worker 0 cancels once every other worker is inside its
// first item, so exactly one item per worker runs. A cancel after the
// last item has started is not reported: every item ran.
func TestChunkedCancellation(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran []int
		err := ForEach(ctx, 1000, 1, func(_, i int) error {
			ran = append(ran, i)
			if i == 2 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v, want %v", err, context.Canceled)
		}
		if want := []int{0, 1, 2}; !slices.Equal(ran, want) {
			t.Errorf("ran %v, want %v", ran, want)
		}
	})
	t.Run("workers", func(t *testing.T) {
		const n, workers = 40, 4
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var inFlight sync.WaitGroup
		inFlight.Add(workers - 1)
		var started atomic.Int32
		err := ForEach(ctx, n, workers, func(w, _ int) error {
			started.Add(1)
			if w == 0 {
				inFlight.Wait()
				cancel()
				return nil
			}
			inFlight.Done()
			<-ctx.Done()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v, want %v", err, context.Canceled)
		}
		if got := started.Load(); got != workers {
			t.Errorf("%d items started, want %d (one per worker)", got, workers)
		}
	})
	t.Run("after the last item started", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := ForEach(ctx, 3, 1, func(_, i int) error {
			if i == 2 {
				cancel()
			}
			return nil
		})
		if err != nil {
			t.Errorf("error %v after every item ran, want nil", err)
		}
	})
}
