// Package leakcheck fails a package's tests when goroutines they started
// outlive them. It is stdlib-only and meant to be a package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"bytes"
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
// settleTime afterwards more goroutines are running than before the tests
// started. Goroutines parked in os/signal are not counted: the loop that
// signal.Notify starts (the fuzz engine calls it) lives as long as the
// process. A leak report carries every goroutine's stack.
func Main(m *testing.M) {
	before, _ := running()
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
		n, stacks := running()
		if n <= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leakcheck: %d goroutines running %v after the tests, %d before them:\n%s", n, settleTime, want, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// running returns how many goroutines count against the tests, and the
// stacks of all of them. A stack dump that fills the buffer holds far more
// goroutines than a package starts with, so truncation never hides a leak.
func running() (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if counts(g) {
			n++
		}
	}
	return n, buf
}

// counts reports whether the goroutine with stack record g counts against
// the tests: all do but those with a frame in os/signal.
func counts(g []byte) bool { return !bytes.Contains(g, []byte("\nos/signal.")) }
