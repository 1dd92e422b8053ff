// Package par is the tree's one fan-out primitive: run a function over the
// indices 0..n-1 on a bounded number of goroutines.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on at most workers goroutines, the
// caller's included, and returns once every call has finished. With
// workers <= 1 the calls run serially on the caller's goroutine, in index
// order.
//
// Workers pull the next index off a shared atomic counter, so which
// goroutine runs which index, and the order calls complete in, depend on
// timing. Callers keep fn's effects a pure function of i (write slot i, never
// append to a shared slice) so neither is observable. Dynamic pull beats
// static striding when call durations are uneven: striding pins the slow
// calls to whichever stripe drew them, and the caller waits on that
// stripe's unlucky sum.
func For(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
