package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEachProgress runs fn(i) for every i in [0, n) on up to workers
// goroutines (GOMAXPROCS when workers <= 0). Each index is processed
// exactly once; fn must write only to index-local state so the overall
// result stays deterministic regardless of scheduling. It is the harness
// the experiment engine fans a figure's independent cells across cores
// with. After each index finishes, done (unless nil) is called with the
// running count of completed indices (1..n). done may be invoked from
// any worker goroutine, so it must be safe for concurrent use; it exists
// for progress/ETA reporting and must not influence results — the
// experiment engine feeds it a stderr ticker, never a table.
func ForEachProgress(n, workers int, fn func(i int), done func(completed int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
			if done != nil {
				done(i + 1)
			}
		}
		return
	}
	var wg sync.WaitGroup
	var completed atomic.Int64
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
				if done != nil {
					done(int(completed.Add(1)))
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
