package numeric

import (
	"context"
	"sync"
	"sync/atomic"
)

// Chunked calls item(w, i) for every index i in [0, n). The indices are
// split statically into contiguous chunks of ceil(n/workers), one
// goroutine per chunk, and w (0 <= w < workers) numbers the chunk, so a
// caller can keep per-worker scratch state in a slice of length
// workers. Which worker sees which index depends only on (n, workers);
// an item that writes only its own slot therefore gives output
// independent of the worker count. With one worker (or n <= 1) the loop
// runs inline on the caller's goroutine.
//
// The first error wins: either one returned by an item, or ctx.Err()
// when a worker finds ctx done before starting its next item. Chunked
// returns it once every worker has stopped, and no worker starts a new
// item after it. So Chunked returns ctx.Err() only when some item did
// not run; items already running when ctx ends are left to finish.
func Chunked(ctx context.Context, n, workers int, item func(w, i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := item(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		once     sync.Once
		stopped  atomic.Bool
		firstErr error
	)
	chunk := (n + workers - 1) / workers
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi && !stopped.Load(); i++ {
				err := ctx.Err()
				if err == nil {
					err = item(w, i)
				}
				if err != nil {
					once.Do(func() {
						firstErr = err
						stopped.Store(true)
					})
					return
				}
			}
		}(w, lo, min(lo+chunk, n))
	}
	wg.Wait()
	return firstErr
}
