package sim_test

import (
	"testing"

	"tripwire/internal/obs"
	"tripwire/internal/report"
	"tripwire/internal/sim"
)

// TestWorkerCountInvariance asserts the parallel crawl engine's core
// contract: a pilot sharded over 8 workers is bit-identical to the
// same pilot run on 1 worker — same attempts in the same order, same
// detections, and byte-identical Table 1 and Table 2 renderings. Both runs
// carry a live metrics registry so the invariance covers the instrumented
// code paths (telemetry must be observation-only).
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pilots in -short mode")
	}
	run := func(workers int) *sim.Pilot {
		cfg := sim.SmallConfig()
		cfg.Workers = workers
		cfg.Metrics = obs.New()
		return sim.NewPilot(cfg).Run()
	}
	serial := run(1)
	parallel := run(8)

	if len(serial.Attempts) != len(parallel.Attempts) {
		t.Fatalf("attempt counts differ: %d (1 worker) vs %d (8 workers)",
			len(serial.Attempts), len(parallel.Attempts))
	}
	for i := range serial.Attempts {
		x, y := serial.Attempts[i], parallel.Attempts[i]
		if x != y {
			t.Fatalf("attempt %d differs:\n 1 worker: %+v\n 8 workers: %+v", i, x, y)
		}
	}

	ds, dp := serial.Monitor.Detections(), parallel.Monitor.Detections()
	if len(ds) != len(dp) {
		t.Fatalf("detection counts differ: %d vs %d", len(ds), len(dp))
	}
	for i := range ds {
		if ds[i].Domain != dp[i].Domain || !ds[i].FirstSeen.Equal(dp[i].FirstSeen) ||
			ds[i].AccountsAccessed != dp[i].AccountsAccessed ||
			ds[i].AccountsRegistered != dp[i].AccountsRegistered {
			t.Fatalf("detection %d differs: %+v vs %+v", i, ds[i], dp[i])
		}
	}

	if t1s, t1p := report.RenderTable1(report.Table1(serial.ValidateAll())), report.RenderTable1(report.Table1(parallel.ValidateAll())); t1s != t1p {
		t.Errorf("Table 1 differs across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", t1s, t1p)
	}
	if t2s, t2p := report.RenderTable2(report.Table2(serial)), report.RenderTable2(report.Table2(parallel)); t2s != t2p {
		t.Errorf("Table 2 differs across worker counts:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", t2s, t2p)
	}
}
