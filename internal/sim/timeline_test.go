package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"tripwire/internal/obs"
	"tripwire/internal/report"
	"tripwire/internal/sim"
)

// runWorkersPilot runs a small pilot on the given worker count with a live
// metrics registry, so the invariance covers the instrumented crawl and
// epoch paths too (telemetry must be observation-only).
func runWorkersPilot(workers int) *sim.Pilot {
	cfg := sim.SmallConfig()
	cfg.Workers = workers
	cfg.Metrics = obs.New()
	return sim.NewPilot(cfg).Run()
}

// comparePilots asserts two pilot runs are bit-identical: same attempts in
// the same order, same detections and detection times, byte-identical
// Table 1 and Table 2 renderings, and a byte-identical provider login log
// (the most interleaving-sensitive artifact: every stuffing login in
// order, with IP and method).
func comparePilots(t *testing.T, serial, par *sim.Pilot, label string) {
	t.Helper()
	if !reflect.DeepEqual(serial.Attempts, par.Attempts) {
		t.Fatalf("Attempts diverge between baseline and %s", label)
	}
	ds, dp := serial.Monitor.Detections(), par.Monitor.Detections()
	if len(ds) != len(dp) {
		t.Fatalf("detection counts differ: %d (baseline) vs %d (%s)", len(ds), len(dp), label)
	}
	for i := range ds {
		if ds[i].Domain != dp[i].Domain || !ds[i].FirstSeen.Equal(dp[i].FirstSeen) ||
			ds[i].AccountsAccessed != dp[i].AccountsAccessed ||
			ds[i].AccountsRegistered != dp[i].AccountsRegistered {
			t.Fatalf("detection %d differs between baseline and %s: %+v vs %+v", i, label, ds[i], dp[i])
		}
	}
	if !reflect.DeepEqual(serial.DetectionTimes, par.DetectionTimes) {
		t.Fatalf("DetectionTimes diverge between baseline and %s:\nbase: %v\n%s: %v",
			label, serial.DetectionTimes, label, par.DetectionTimes)
	}
	if a, b := report.RenderTable1(report.Table1(serial.ValidateAll())), report.RenderTable1(report.Table1(par.ValidateAll())); a != b {
		t.Fatalf("Table 1 differs between baseline and %s:\n--- baseline ---\n%s\n--- %s ---\n%s", label, a, label, b)
	}
	if a, b := report.RenderTable2(report.Table2(serial)), report.RenderTable2(report.Table2(par)); a != b {
		t.Fatalf("Table 2 differs between baseline and %s:\n--- baseline ---\n%s\n--- %s ---\n%s", label, a, label, b)
	}
	serialLogins := serial.Provider.AllLogins()
	logins := par.Provider.AllLogins()
	if len(logins) != len(serialLogins) {
		t.Fatalf("login counts differ: %d (baseline) vs %d (%s)",
			len(serialLogins), len(logins), label)
	}
	for i := range logins {
		if logins[i] != serialLogins[i] {
			t.Fatalf("login %d diverges between baseline and %s:\nbase: %+v\n%s: %+v",
				i, label, serialLogins[i], label, logins[i])
		}
	}
}

// TestTimelineWorkerInvariance asserts the pilot's determinism contract
// over its one concurrency knob: a run with Config.Workers 2, 4, 8 or 16
// (sharding both the crawl waves and the timeline epochs) is bit-identical
// to the serial run. The per-count subtests let CI smoke a single worker
// count under -race.
func TestTimelineWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("five full pilots in -short mode")
	}
	serial := runWorkersPilot(1)
	if len(serial.Provider.AllLogins()) == 0 {
		t.Fatal("serial pilot produced no provider logins; the fixture exercises nothing")
	}
	if len(serial.Monitor.Detections()) == 0 {
		t.Fatal("serial pilot detected nothing; the fixture exercises nothing")
	}
	for _, workers := range []int{2, 4, 8, 16} {
		t.Run(testName("workers", workers), func(t *testing.T) {
			comparePilots(t, serial, runWorkersPilot(workers), testName("workers", workers))
		})
	}
}

func testName(prefix string, n int) string {
	return fmt.Sprintf("%s=%d", prefix, n)
}
