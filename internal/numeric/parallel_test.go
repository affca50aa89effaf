package numeric

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunkedIdenticalAcrossWorkers: items that write only their own
// slot produce the same output at every worker count, including more
// workers than items, and every index is visited exactly once.
func TestChunkedIdenticalAcrossWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		var want []int
		for _, workers := range []int{1, 3, 64} {
			out := make([]int, n)
			visits := make([]atomic.Int32, n)
			err := Chunked(n, workers, func(w, i int) error {
				if w < 0 || w >= workers {
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

// TestChunkedChunksAreContiguous pins the static split: worker w owns
// the w-th block of ceil(n/workers) indices.
func TestChunkedChunksAreContiguous(t *testing.T) {
	owner := make([]int, 10)
	if err := Chunked(10, 4, func(w, i int) error { owner[i] = w; return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}; !slices.Equal(owner, want) {
		t.Errorf("owners %v, want %v", owner, want)
	}
}

// TestChunkedInlineStopsAtFirstError: with one worker the items run in
// index order on the caller's goroutine and the first error ends the
// loop.
func TestChunkedInlineStopsAtFirstError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var ran []int
	err := Chunked(10, 1, func(_, i int) error {
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
	err := Chunked(n, workers, func(w, i int) error {
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
