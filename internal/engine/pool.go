package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on a bounded worker pool and
// blocks until all calls return. workers <= 0 selects GOMAXPROCS. Work is
// dealt to workers in contiguous shards claimed off an atomic cursor, so
// there is exactly one goroutine per worker (not per item) and neighboring
// items — which in a sweep usually share a generator and size — tend to
// stay on one worker's cache.
//
// This is the repository's single fan-out primitive: experiment drivers and
// the scenario engine both build on it instead of hand-rolling
// sync.WaitGroup pools.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// Each worker gets several shards for load balance while cursor
	// contention stays negligible.
	shardSize := max(n/(workers*8), 1)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(shardSize))) - shardSize
				if lo >= n {
					return
				}
				hi := lo + shardSize
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
