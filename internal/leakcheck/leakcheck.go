// Package leakcheck fails a package's tests when goroutines they started
// outlive them. It is stdlib-only and meant to be a package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settleTime bounds how long goroutines may take to exit after the last
// test returns (pool helpers wind down asynchronously after Close).
const settleTime = time.Second

// Main runs the tests and exits non-zero if they failed, or if within
// settleTime afterwards runtime.NumGoroutine has not fallen back to its
// count from before the tests started. A leak report carries every
// goroutine's stack.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settle(before); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func settle(want int) error {
	deadline := time.Now().Add(settleTime)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leakcheck: %d goroutines running %v after the tests, %d before them:\n%s", n, settleTime, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
