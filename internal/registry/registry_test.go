package registry

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"
)

// newTestRegistry returns a registry that is closed when the test ends.
func newTestRegistry(t *testing.T, opts Options) *Registry {
	t.Helper()
	reg := New(opts)
	t.Cleanup(reg.Close)
	return reg
}

// demoRequest is the lifecycle tests' study: seconds-long, several waves,
// several detections.
func demoRequest() SubmitRequest { return SubmitRequest{Scale: "demo"} }

// waitKind consumes h's stream from seq until an event of kind arrives,
// returning it.
func waitKind(t *testing.T, h *Handle, seq uint64, kind string) Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for ev := range h.EventsSince(ctx, seq) {
		if ev.Kind == kind {
			return ev
		}
	}
	t.Fatalf("stream ended without a %q event (state %s)", kind, h.State())
	return Event{}
}

// pause parks h, skipping the test if the study completed before the
// pause landed.
func pause(t *testing.T, h *Handle) {
	t.Helper()
	err := h.Pause()
	var te *TransitionError
	if errors.As(err, &te) && te.From == Done {
		t.Skip("study completed before the pause landed")
	}
	if err != nil {
		t.Fatalf("Pause: %v", err)
	}
}

// requireEmpty fails the test if anything was written under dir.
func requireEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("%s written under TMPDIR, want nothing", e.Name())
	}
}

// TestTransitionTable pins the full lifecycle machine: every State×State
// pair against the expected edge set.
func TestTransitionTable(t *testing.T) {
	states := []State{Pending, Running, Paused, Done, Cancelled, Failed}
	legal := map[[2]State]bool{
		{Pending, Running}:   true,
		{Pending, Cancelled}: true,
		{Running, Paused}:    true,
		{Running, Done}:      true,
		{Running, Cancelled}: true,
		{Running, Failed}:    true,
		{Paused, Running}:    true,
		{Paused, Cancelled}:  true,
	}
	for _, from := range states {
		for _, to := range states {
			if got, want := CanTransition(from, to), legal[[2]State{from, to}]; got != want {
				t.Errorf("CanTransition(%s, %s) = %v, want %v", from, to, got, want)
			}
		}
		if from.Terminal() != (len(transitions[from]) == 0) {
			t.Errorf("%s: Terminal()=%v but has %d outgoing edges", from, from.Terminal(), len(transitions[from]))
		}
	}
}

// TestRunToDone: the plain lifecycle — submitted, running, waves and
// detections, done — with a gapless 1-based sequence and a closed stream.
func TestRunToDone(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	h, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err := h.Wait(ctx); st != Done || err != nil {
		t.Fatalf("Wait = %s, %v", st, err)
	}

	var events []Event
	for ev := range h.EventsSince(context.Background(), 0) {
		events = append(events, ev)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("events[%d].Seq = %d, want %d (gapless 1-based)", i, ev.Seq, i+1)
		}
		if ev.Study != h.ID() {
			t.Fatalf("events[%d].Study = %q", i, ev.Study)
		}
	}
	if events[0].Kind != KindSubmitted || events[1].Kind != KindRunning {
		t.Fatalf("stream must open submitted,running; got %s,%s", events[0].Kind, events[1].Kind)
	}
	if last := events[len(events)-1]; last.Kind != KindDone || last.State != "done" {
		t.Fatalf("stream must end with study.done; got %+v", last)
	}
	waves, detections := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case KindWave:
			waves++
		case KindDetection:
			detections++
		}
	}
	if waves == 0 || detections == 0 {
		t.Fatalf("demo study produced %d waves, %d detections", waves, detections)
	}

	info := h.Info()
	if info.State != "done" || info.Status.Phase != "done" || info.Status.Detections != detections {
		t.Fatalf("info = %+v", info)
	}
	if info.Events != uint64(len(events)) {
		t.Fatalf("info.Events = %d, want %d", info.Events, len(events))
	}
}

// simEvents filters a stream down to the simulation payloads (wave and
// detection), dropping Seq — which legitimately shifts when lifecycle
// markers interleave differently across pause/resume — and the study ID,
// so streams of two studies over the same configuration compare equal.
func simEvents(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == KindWave || ev.Kind == KindDetection {
			ev.Seq = 0
			ev.Study = ""
			out = append(out, ev)
		}
	}
	return out
}

// TestPauseResume: pause after the first wave, check the parked state and
// that the pause wrote nothing, resume, and require (a) the final Status
// byte-identical to an uninterrupted run's, (b) the simulation event
// stream duplicate-free and identical to the uninterrupted stream, and
// (c) still nothing written under TMPDIR.
func TestPauseResume(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	reg := newTestRegistry(t, Options{})

	ref, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, _ := ref.Wait(ctx); st != Done {
		t.Fatalf("reference study ended %s", st)
	}

	h, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitKind(t, h, 0, KindWave)
	if err := h.Pause(); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if st := h.State(); st != Paused {
		t.Fatalf("state after Pause = %s", st)
	}
	if err := h.Pause(); err == nil {
		t.Fatal("second Pause succeeded")
	}
	requireEmpty(t, tmp)
	if last := h.Info(); last.State != "paused" {
		t.Fatalf("info.State = %s", last.State)
	}

	if err := h.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st, err := h.Wait(ctx); st != Done || err != nil {
		t.Fatalf("Wait after resume = %s, %v", st, err)
	}
	requireEmpty(t, tmp)
	if err := h.Resume(); err == nil {
		t.Fatal("Resume of a done study succeeded")
	}
	var te *TransitionError
	if err := h.Cancel(); !errors.As(err, &te) || te.From != Done {
		t.Fatalf("Cancel of a done study: %v", err)
	}

	// Byte-identical Status to the never-paused run (modulo the seed-
	// independent fields, which are identical anyway).
	got, _ := json.Marshal(h.Info().Status)
	want, _ := json.Marshal(ref.Info().Status)
	if string(got) != string(want) {
		t.Fatalf("paused+resumed status differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// The paused study's stream must carry the same simulation events,
	// exactly once each, with pause/resume markers in between.
	var events []Event
	for ev := range h.EventsSince(context.Background(), 0) {
		events = append(events, ev)
	}
	var refEvents []Event
	for ev := range ref.EventsSince(context.Background(), 0) {
		refEvents = append(refEvents, ev)
	}
	gotSim, _ := json.Marshal(simEvents(events))
	wantSim, _ := json.Marshal(simEvents(refEvents))
	if string(gotSim) != string(wantSim) {
		t.Fatalf("sim event stream differs across pause/resume:\n got %s\nwant %s", gotSim, wantSim)
	}
	kinds := make(map[string]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[KindPaused] != 1 || kinds[KindRunning] != 2 || kinds[KindDone] != 1 {
		t.Fatalf("lifecycle markers wrong: %v", kinds)
	}
}

// TestPauseAtStart: a study paused as soon as it starts, possibly before
// its first wave, parks at whatever epoch boundary the pause landed on.
// Resume replays it from the start and converges to the uninterrupted
// result.
func TestPauseAtStart(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	ref, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, _ := ref.Wait(ctx); st != Done {
		t.Fatalf("reference study ended %s", st)
	}

	h, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitKind(t, h, 0, KindRunning)
	pause(t, h)
	if err := h.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st, err := h.Wait(ctx); st != Done || err != nil {
		t.Fatalf("Wait = %s, %v", st, err)
	}
	got, _ := json.Marshal(h.Info().Status)
	want, _ := json.Marshal(ref.Info().Status)
	if string(got) != string(want) {
		t.Fatalf("status differs:\n got %s\nwant %s", got, want)
	}
}

// TestResumeAfterRestart: a registry started after another one closed
// numbers its studies from study-0001 again, and a study paused there must
// resume as itself. Registry A pauses a seed-1 study after its third wave
// and closes; registry B pauses its own study-0001, seeded 2, as soon as it
// runs, resumes it, and must finish with the status of an uninterrupted
// seed-2 study, having written nothing under TMPDIR.
func TestResumeAfterRestart(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	seeded := func(seed int64) SubmitRequest { return SubmitRequest{Scale: "demo", Seed: &seed} }
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Both registries are built by New with default options, as the
	// daemon builds its one.
	a := New(Options{})
	t.Cleanup(a.Close)
	old, err := a.Submit(seeded(1))
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for i := 0; i < 3; i++ {
		seq = waitKind(t, old, seq, KindWave).Seq
	}
	pause(t, old)
	a.Close()

	b := New(Options{})
	t.Cleanup(b.Close)
	h, err := b.Submit(seeded(2))
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() != old.ID() {
		t.Fatalf("the second registry's first study is %s, want %s", h.ID(), old.ID())
	}
	waitKind(t, h, 0, KindRunning)
	pause(t, h)
	ref, err := b.Submit(seeded(2))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := ref.Wait(ctx); st != Done || err != nil {
		t.Fatalf("reference study ended %s, %v", st, err)
	}
	if err := h.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st, err := h.Wait(ctx); st != Done || err != nil {
		t.Fatalf("resumed study ended %s, %v", st, err)
	}
	got, _ := json.Marshal(h.Info().Status)
	want, _ := json.Marshal(ref.Info().Status)
	if string(got) != string(want) {
		t.Fatalf("resumed study's status differs from an uninterrupted seed-2 run's:\n got %s\nwant %s", got, want)
	}
	requireEmpty(t, tmp)
}

// TestCancelRunning: cancel lands at an epoch boundary, the stream ends
// with study.cancelled, and no further transition is legal.
func TestCancelRunning(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	h, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitKind(t, h, 0, KindWave)
	if err := h.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st := h.State(); st != Cancelled {
		t.Fatalf("state = %s", st)
	}
	events := h.bus.Snapshot(0)
	if last := events[len(events)-1]; last.Kind != KindCancelled {
		t.Fatalf("last event %+v", last)
	}
	if err := h.Resume(); err == nil {
		t.Fatal("Resume of a cancelled study succeeded")
	}
	if info := h.Info(); info.State != "cancelled" || !info.Status.Interrupted {
		t.Fatalf("info = %+v", info)
	}
}

// TestCancelPaused: Paused → Cancelled is direct (no goroutine in
// flight) and closes the stream.
func TestCancelPaused(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	h, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitKind(t, h, 0, KindWave)
	if err := h.Pause(); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if err := h.Cancel(); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st := h.State(); st != Cancelled {
		t.Fatalf("state = %s", st)
	}
	if !h.bus.Closed() {
		t.Fatal("stream still open after cancel")
	}
}

// TestCancelQueued: with one active slot, a second submission parks in
// Pending; cancelling it must work without it ever running.
func TestCancelQueued(t *testing.T) {
	reg := newTestRegistry(t, Options{MaxActive: 1})
	a, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitKind(t, a, 0, KindWave) // a holds the only slot
	b, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st := b.State(); st != Pending {
		t.Skipf("study b already %s (slot freed early)", st)
	}
	if err := b.Cancel(); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	for _, ev := range b.bus.Snapshot(0) {
		if ev.Kind == KindRunning || ev.Kind == KindWave {
			t.Fatalf("cancelled-before-start study emitted %+v", ev)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, _ := a.Wait(ctx); st != Done {
		t.Fatalf("study a ended %s", st)
	}
}

// TestMaxActiveQueuesAndDrains: both studies complete even though only
// one may execute at a time.
func TestMaxActiveQueuesAndDrains(t *testing.T) {
	reg := newTestRegistry(t, Options{MaxActive: 1})
	a, _ := reg.Submit(demoRequest())
	b, _ := reg.Submit(demoRequest())
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if st, _ := a.Wait(ctx); st != Done {
		t.Fatalf("a ended %s", st)
	}
	if st, _ := b.Wait(ctx); st != Done {
		t.Fatalf("b ended %s", st)
	}
}

// TestSubmitValidation: bad requests leave no handle behind.
func TestSubmitValidation(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	if _, err := reg.Submit(SubmitRequest{Scale: "galactic"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	if got := len(reg.List()); got != 0 {
		t.Fatalf("%d handles after failed submits", got)
	}
}

// TestRegistryClose: close cancels live studies and rejects new work.
func TestRegistryClose(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	h, err := reg.Submit(demoRequest())
	if err != nil {
		t.Fatal(err)
	}
	waitKind(t, h, 0, KindWave)
	reg.Close()
	if st := h.State(); st != Cancelled && st != Done {
		t.Fatalf("state after Close = %s", st)
	}
	if _, err := reg.Submit(demoRequest()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
}

// TestListOrder: List returns submission order and Get round-trips IDs.
func TestListOrder(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	a, _ := reg.Submit(demoRequest())
	b, _ := reg.Submit(demoRequest())
	list := reg.List()
	if len(list) != 2 || list[0] != a || list[1] != b {
		t.Fatalf("List = %v", list)
	}
	if got, ok := reg.Get(a.ID()); !ok || got != a {
		t.Fatalf("Get(%s) = %v, %v", a.ID(), got, ok)
	}
	if _, ok := reg.Get("study-9999"); ok {
		t.Fatal("Get of unknown id succeeded")
	}
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedStudiesReleaseTheirPilots runs small studies to done and
// requires that the registry keeps each one's final status but not its
// pilot, so a long-running daemon does not grow with every study it has
// served. A finished small study's pilot holds about 4 MB of live heap.
func TestFinishedStudiesReleaseTheirPilots(t *testing.T) {
	const (
		studies   = 4
		perStudy  = 0.5e6 // bytes of live heap a finished study may keep
		waitLimit = 5 * time.Minute
	)
	reg := newTestRegistry(t, Options{})
	before := liveHeap()
	handles := make([]*Handle, studies)
	detections := make([]int, studies)
	for i := range handles {
		seed := int64(i + 1)
		h, err := reg.Submit(SubmitRequest{Scale: "small", Seed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), waitLimit)
		st, err := h.Wait(ctx)
		cancel()
		if st != Done || err != nil {
			t.Fatalf("study %d: Wait = %s, %v", i, st, err)
		}
		for ev := range h.EventsSince(context.Background(), 0) {
			if ev.Kind == KindDetection {
				detections[i]++
			}
		}
		handles[i] = h
	}
	after := liveHeap()
	if grown := float64(after) - float64(before); grown > studies*perStudy {
		t.Errorf("live heap grew %.2f MB over %d finished studies, want at most %.2f MB",
			grown/1e6, studies, studies*perStudy/1e6)
	}
	for i, h := range handles {
		info := h.Info()
		s := info.Status
		if info.State != "done" || s.Phase != "done" || s.Seed != int64(i+1) {
			t.Errorf("study %d: state %q, phase %q, seed %d", i, info.State, s.Phase, s.Seed)
		}
		if s.WavesTotal == 0 || s.WavesDone != s.WavesTotal || s.EpochsRun == 0 || !s.VirtualNow.Equal(s.End) {
			t.Errorf("study %d: progress %d/%d waves, %d epochs, at %s of %s",
				i, s.WavesDone, s.WavesTotal, s.EpochsRun, s.VirtualNow, s.End)
		}
		if s.Detections == 0 || s.Detections != detections[i] {
			t.Errorf("study %d: status reports %d detections, its stream carried %d", i, s.Detections, detections[i])
		}
	}
}
