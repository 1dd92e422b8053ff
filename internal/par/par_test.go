package par

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tripwire/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestForCoversEveryIndexOnce runs For over a grid of worker and task
// counts, including workers above n and the serial edge cases, and checks
// every index is visited exactly once.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				hits := make([]atomic.Int32, n)
				For(workers, n, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("index %d visited %d times", i, got)
					}
				}
			})
		}
	}
}

// TestForSerialOrder pins the serial path: workers <= 1 runs in index order
// on the caller's goroutine, so a plain slice append is safe there.
func TestForSerialOrder(t *testing.T) {
	var order []int
	For(1, 5, func(i int) { order = append(order, i) })
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("serial order = %v", order)
	}
}

// TestForBoundsConcurrency asserts no more than workers calls are ever in
// flight, and that slow calls actually overlap.
func TestForBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	For(workers, 24, func(int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > workers || p < 2 {
		t.Fatalf("peak concurrency = %d, want 2..%d", p, workers)
	}
}

// TestForWaitsForEveryCall asserts For returns only after every call has
// finished, not merely once every index has been claimed. Calls finish
// staggered, so a For that returned with its own last call would leave
// slower ones running.
func TestForWaitsForEveryCall(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		var done atomic.Int32
		For(4, 4, func(i int) {
			time.Sleep(time.Duration(i) * 2 * time.Millisecond)
			done.Add(1)
		})
		if got := done.Load(); got != 4 {
			t.Fatalf("trial %d: For returned with %d of 4 calls finished", trial, got)
		}
	}
}
