package numeric

import (
	"context"
	"sync"
	"sync/atomic"
)

// blocksPerWorker is how many blocks of indices ForEach aims to hand
// each worker. Blocks are one index until n exceeds blocksPerWorker
// per worker.
const blocksPerWorker = 64

// ForEach calls item(w, i) for every index i in [0, n) on at most
// workers goroutines. Work is handed out on demand: whichever worker
// is free claims the next block of indices from one shared counter, so
// an item that is slow (or blocks) strands at most the rest of its own
// block. A block is max(1, n/(workers*blocksPerWorker)) indices: one
// index for small n (a sweep's cells, a batch), a contiguous run for
// many cheap items (CR candidates), so those pay one counter update per
// block and neighbouring slots are written by the same worker. w
// (0 <= w < workers) numbers the worker running the item, so a caller
// can keep per-worker scratch state in a slice of length workers.
// Which worker sees which index varies from run to run; an item that
// writes only its own slot therefore gives output independent of the
// worker count and of scheduling. With one worker (or n <= 1) the loop
// runs inline on the caller's goroutine, in index order.
//
// The first error wins: either one returned by an item, or ctx.Err()
// when a worker finds ctx done before starting its next item. ForEach
// returns it once every worker has stopped, and no worker starts a new
// item after it. So ForEach returns ctx.Err() only when some item did
// not run; items already running when ctx ends are left to finish.
func ForEach(ctx context.Context, n, workers int, item func(w, i int) error) error {
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
	block := max(1, n/(workers*blocksPerWorker))
	var (
		wg       sync.WaitGroup
		once     sync.Once
		next     atomic.Int64
		stopped  atomic.Bool
		firstErr error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				start := int(next.Add(int64(block))) - block
				for i := start; i < min(start+block, n); i++ {
					if stopped.Load() {
						return
					}
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
				if start+block >= n {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
