package distsweep_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tripwire"
	"tripwire/internal/distsweep"
	"tripwire/internal/obs"
	"tripwire/internal/sweep"
)

// testConfig is the quick study the distributed tests run per seed —
// small enough that a coordinator, workers, and a serial reference sweep
// all fit in one test, but still the full pipeline end to end.
func testConfig(seed int64) tripwire.Config {
	cfg := tripwire.SmallConfig()
	cfg.Seed = seed * 101
	cfg.Web.NumSites = 150
	cfg.NumUnused = 120
	return cfg
}

// zeroWall strips the wall-clock field, the single SeedResult field
// excluded from the byte-identity contract.
func zeroWall(rs []sweep.SeedResult) []sweep.SeedResult {
	out := make([]sweep.SeedResult, len(rs))
	copy(out, rs)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

func renderNormalized(oc *sweep.Outcome, label string) string {
	return (&sweep.Outcome{Results: zeroWall(oc.Results)}).Render(label)
}

// TestDistSweepByteIdentical is the core acceptance smoke: a coordinator
// plus two workers over loopback HTTP produce an aggregate byte-identical
// to serial sweep.Run over the same seeds. This is also the `make ci`
// distributed-sweep smoke.
func TestDistSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("several quick pilots in -short mode")
	}
	const n = 2
	serial := sweep.Run(sweep.Options{N: n, ConfigFor: testConfig})
	if err := serial.Failed(); err != nil {
		t.Fatalf("serial reference sweep failed: %v", err)
	}

	var progress bytes.Buffer
	reg := obs.New()
	coord, err := distsweep.NewCoordinator(distsweep.Options{
		N:        n,
		Scale:    "test",
		Secret:   "sweep-secret",
		Progress: &progress,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(distsweep.Handler(coord))
	defer srv.Close()

	client := &distsweep.Client{BaseURL: srv.URL, Secret: "sweep-secret"}
	spec, err := client.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.N != n || spec.Scale != "test" {
		t.Fatalf("spec handshake returned %+v", spec)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			w := &distsweep.Worker{Client: client, Name: name, ConfigFor: testConfig, Poll: 20 * time.Millisecond}
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}
	wg.Wait()
	select {
	case <-coord.Done():
	default:
		t.Fatal("workers exited but coordinator is not done")
	}

	dist := coord.Outcome()
	if err := dist.Failed(); err != nil {
		t.Fatalf("distributed sweep failed: %v", err)
	}
	a, b := renderNormalized(serial, "test"), renderNormalized(dist, "test")
	if a != b {
		t.Fatalf("distributed aggregate diverges from serial:\nserial:\n%s\ndistributed:\n%s", a, b)
	}
	if got := strings.Count(progress.String(), "\n"); got != n {
		t.Fatalf("coordinator progress stream has %d lines, want %d:\n%s", got, n, progress.String())
	}
	st := coord.Status()
	if st.Done != n || st.Reissued != 0 || st.Discarded != 0 {
		t.Fatalf("unexpected status after clean run: %+v", st)
	}
}

// TestDistSweepWorkerLossByteIdentical injects a worker crash mid-seed:
// the first worker leases seed 1, runs it partway, and dies without
// completing. The lease expires, the coordinator re-issues the seed, a
// healthy worker completes everything, and the late stale-generation
// completion from the dead worker is discarded — with the final aggregate
// still byte-identical to serial.
func TestDistSweepWorkerLossByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("several quick pilots in -short mode")
	}
	const n = 2
	serial := sweep.Run(sweep.Options{N: n, ConfigFor: testConfig})
	if err := serial.Failed(); err != nil {
		t.Fatalf("serial reference sweep failed: %v", err)
	}

	coord, err := distsweep.NewCoordinator(distsweep.Options{
		N:        n,
		Scale:    "test",
		LeaseTTL: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(distsweep.Handler(coord))
	defer srv.Close()
	client := &distsweep.Client{BaseURL: srv.URL}

	// The doomed worker: lease seed 1, run the study for a moment, then
	// die (context cancelled, no completion, no further renewals).
	lease, err := client.Lease("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if lease.SeedIndex != 1 || lease.Generation != 1 {
		t.Fatalf("first lease = %+v, want seed 1 generation 1", lease)
	}
	crashCtx, crash := context.WithCancel(context.Background())
	crashed := make(chan sweep.SeedResult, 1)
	go func() {
		crashed <- sweep.RunSeedContext(crashCtx, testConfig(int64(lease.SeedIndex)))
	}()
	time.Sleep(50 * time.Millisecond)
	crash() // the worker process dies mid-seed

	// A healthy worker drains the sweep: seed 2 immediately, then seed 1
	// again once the dead worker's lease expires and is re-issued.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &distsweep.Worker{Client: client, Name: "healthy", ConfigFor: testConfig, Poll: 25 * time.Millisecond}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	select {
	case <-coord.Done():
	case <-time.After(time.Minute):
		t.Fatal("sweep did not complete after worker loss")
	}

	// The dead worker's ghost reports in late with the superseded
	// generation; the fence must discard it.
	ghost := <-crashed
	err = client.Complete("doomed", 1, 1, distsweep.EncodeResult(ghost))
	if !errors.Is(err, distsweep.ErrLeaseLost) {
		t.Fatalf("stale-generation completion: got %v, want ErrLeaseLost", err)
	}

	st := coord.Status()
	if st.Reissued < 1 {
		t.Fatalf("coordinator never re-issued the lost seed: %+v", st)
	}
	if st.Discarded < 1 {
		t.Fatalf("stale completion was not counted discarded: %+v", st)
	}
	dist := coord.Outcome()
	if err := dist.Failed(); err != nil {
		t.Fatalf("distributed sweep failed: %v", err)
	}
	a, b := renderNormalized(serial, "test"), renderNormalized(dist, "test")
	if a != b {
		t.Fatalf("aggregate diverges from serial after worker loss:\nserial:\n%s\ndistributed:\n%s", a, b)
	}
}

// TestLeaseProtocol drives the lease state machine directly under a fake
// clock: issue, expiry, re-issue with a bumped generation, fencing of the
// old generation, and exactly-once completion.
func TestLeaseProtocol(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	coord, err := distsweep.NewCoordinator(distsweep.Options{
		N:        2,
		LeaseTTL: 10 * time.Second,
		Now:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	idx, gen, ok := coord.Lease("a")
	if !ok || idx != 1 || gen != 1 {
		t.Fatalf("first lease = (%d, %d, %v)", idx, gen, ok)
	}
	idx2, gen2, ok := coord.Lease("b")
	if !ok || idx2 != 2 || gen2 != 1 {
		t.Fatalf("second lease = (%d, %d, %v)", idx2, gen2, ok)
	}
	if _, _, ok := coord.Lease("c"); ok {
		t.Fatal("third lease succeeded with every task leased out")
	}

	// Worker a renews inside the TTL; worker b goes silent. Sixteen
	// seconds in, a's renewed lease holds (deadline 18s) while b's
	// original deadline (10s) has passed — so the next lease request gets
	// exactly seed 2, re-issued with the generation bumped.
	now = now.Add(8 * time.Second)
	if !coord.Renew("a", 1, 1) {
		t.Fatal("renew within TTL failed")
	}
	now = now.Add(8 * time.Second)
	idx3, gen3, ok := coord.Lease("c")
	if !ok || idx3 != 2 || gen3 != 2 {
		t.Fatalf("re-issued lease = (%d, %d, %v), want seed 2 generation 2 (and never seed 1, whose renewal holds)", idx3, gen3, ok)
	}
	if _, _, ok := coord.Lease("c"); ok {
		t.Fatal("renewed lease was stolen")
	}
	if coord.Renew("b", 2, 1) {
		t.Fatal("superseded generation renewed")
	}

	// b's late completion is fenced; c's lands.
	res := distsweep.EncodeResult(sweep.SeedResult{Seed: 202, Detections: 3})
	err = coord.Complete("b", 2, 1, res, distsweep.Digest(res))
	var ce *distsweep.CompleteError
	if !errors.As(err, &ce) {
		t.Fatalf("stale completion error = %v", err)
	}
	if err := coord.Complete("c", 2, 2, res, distsweep.Digest(res)); err != nil {
		t.Fatalf("valid completion rejected: %v", err)
	}
	// A duplicate after acceptance is discarded too.
	if err := coord.Complete("c", 2, 2, res, distsweep.Digest(res)); !errors.As(err, &ce) {
		t.Fatalf("duplicate completion error = %v", err)
	}
	// Corrupted payloads never enter the aggregate.
	res1 := distsweep.EncodeResult(sweep.SeedResult{Seed: 101})
	if err := coord.Complete("a", 1, 1, res1, distsweep.Digest(append(res1, ' '))); !errors.As(err, &ce) {
		t.Fatalf("digest mismatch error = %v", err)
	}
	if err := coord.Complete("a", 1, 1, res1, distsweep.Digest(res1)); err != nil {
		t.Fatalf("final completion rejected: %v", err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("coordinator not done after both seeds completed")
	}
	if got := coord.Outcome().Results[1].Detections; got != 3 {
		t.Fatalf("aggregated result lost data: detections = %d, want 3", got)
	}
}

// TestDistSweepAuth pins the control-plane authentication: with a secret
// configured, unsigned and mis-signed mutating requests are rejected and
// change nothing.
func TestDistSweepAuth(t *testing.T) {
	coord, err := distsweep.NewCoordinator(distsweep.Options{N: 1, Scale: "test", Secret: "right"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(distsweep.Handler(coord))
	defer srv.Close()

	for _, secret := range []string{"", "wrong"} {
		bad := &distsweep.Client{BaseURL: srv.URL, Secret: secret}
		if _, err := bad.Lease("intruder"); err == nil || errors.Is(err, distsweep.ErrNoTask) || errors.Is(err, distsweep.ErrSweepDone) {
			t.Fatalf("lease with secret %q succeeded: %v", secret, err)
		}
	}
	if st := coord.Status(); st.Leased != 0 {
		t.Fatalf("unauthenticated request leased a task: %+v", st)
	}
	// The spec handshake is read-only and stays open (workers need it to
	// discover the scale before they can sign anything meaningful).
	good := &distsweep.Client{BaseURL: srv.URL, Secret: "right"}
	if _, err := good.Spec(); err != nil {
		t.Fatalf("spec handshake: %v", err)
	}
	if _, err := good.Lease("worker"); err != nil {
		t.Fatalf("signed lease: %v", err)
	}
}

// TestDistSweepRateLimit: a coordinator given a Rate but no Burst still
// limits. Burst defaults to ⌈2×Rate⌉, so at Rate 1 two back-to-back
// requests pass and a burst of ten draws a 429.
func TestDistSweepRateLimit(t *testing.T) {
	coord, err := distsweep.NewCoordinator(distsweep.Options{N: 1, Scale: "test", Rate: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := distsweep.Handler(coord)
	var codes []int
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
		codes = append(codes, rec.Code)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("first two requests = %v, want 200s within the burst", codes[:2])
	}
	if !slices.Contains(codes, http.StatusTooManyRequests) {
		t.Fatalf("ten back-to-back requests at Rate 1 = %v, want a 429", codes)
	}
}

// TestDistSweepMetrics checks the tripwire_distsweep_* inventory moves:
// leases, completions, re-issues, and discards all count, and worker
// liveness tracks contact recency.
func TestDistSweepMetrics(t *testing.T) {
	now := time.Unix(5000, 0)
	reg := obs.New()
	coord, err := distsweep.NewCoordinator(distsweep.Options{
		N:        1,
		LeaseTTL: time.Second,
		Metrics:  reg,
		Now:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := coord.Lease("w"); !ok {
		t.Fatal("lease failed")
	}
	now = now.Add(2 * time.Second) // expire
	idx, gen, ok := coord.Lease("w")
	if !ok || idx != 1 || gen != 2 {
		t.Fatalf("re-lease = (%d, %d, %v)", idx, gen, ok)
	}
	res := distsweep.EncodeResult(sweep.SeedResult{Seed: 101})
	if err := coord.Complete("w", 1, 1, res, distsweep.Digest(res)); err == nil {
		t.Fatal("stale completion accepted")
	}
	if err := coord.Complete("w", 1, 2, res, distsweep.Digest(res)); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	snap := map[string]float64{}
	for name, v := range s.Counters {
		snap[name] = v
	}
	for name, v := range s.Gauges {
		snap[name] = v
	}
	want := map[string]float64{
		"tripwire_distsweep_tasks_leased_total":                                       2,
		"tripwire_distsweep_tasks_completed_total":                                    1,
		"tripwire_distsweep_tasks_reissued_total":                                     1,
		"tripwire_distsweep_completions_discarded_total{reason=\"stale_generation\"}": 1,
		"tripwire_distsweep_workers_live":                                             1,
	}
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %v, want %v (snapshot %v)", name, snap[name], v, snap)
		}
	}
}
