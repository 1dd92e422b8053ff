package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tripwire"
	"tripwire/internal/evbus"
)

// State is a study's position in the registry lifecycle. It is the
// registry's view — coarser than tripwire.StudyStatus.Phase, which tracks
// the current simulation incarnation (a Paused handle's underlying study
// reports "interrupted"; the handle owns the fact that it will resume).
type State int

const (
	// Pending: submitted, waiting for an active-studies slot.
	Pending State = iota
	// Running: the simulation is executing (or re-acquiring its slot after
	// a resume).
	Running
	// Paused: stopped at an epoch boundary; Resume continues it by
	// replaying the study from its start.
	Paused
	// Done: ran to the configured end date.
	Done
	// Cancelled: stopped for good by the caller (or registry shutdown).
	Cancelled
	// Failed: the run returned an error other than cancellation.
	Failed
)

// String names the state in the lower-case form the HTTP API serves.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Done:
		return "done"
	case Cancelled:
		return "cancelled"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether no further transition can leave s.
func (s State) Terminal() bool { return s == Done || s == Cancelled || s == Failed }

// transitions is the full lifecycle machine. Terminal states have no
// outgoing edges; the table test walks every State×State pair against it.
var transitions = map[State][]State{
	Pending: {Running, Cancelled},
	Running: {Paused, Done, Cancelled, Failed},
	Paused:  {Running, Cancelled},
}

// CanTransition reports whether from→to is a legal lifecycle edge.
func CanTransition(from, to State) bool {
	for _, t := range transitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// TransitionError reports a lifecycle operation that is not legal from
// the study's current state; the HTTP layer maps it to 409 Conflict.
type TransitionError struct {
	Study    string
	From, To State
}

// Error renders the rejected edge.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("registry: %s: invalid transition %s -> %s", e.Study, e.From, e.To)
}

// intentNone marks "no stop requested"; the zero State (Pending) can never
// be a stop intent, so it doubles as the empty value.
const intentNone = Pending

// Handle is one study under registry management: the lifecycle state
// machine, the current simulation incarnation, and the study's
// sequence-numbered event stream. Pause cancels the run context, and the
// study stops at the next epoch boundary. Resume builds a fresh
// incarnation from the handle's own configuration and runs it from the
// start; a checkpoint would save no work, since resuming from one replays
// from time zero too. Because the simulation is bit-identical for its
// seed, the new incarnation replays the same event prefix the old one
// published; the handle skips the already-published prefix so the study's
// stream stays gapless and duplicate-free across any number of pauses.
type Handle struct {
	id    string
	label string
	scale string
	cfg   tripwire.Config
	reg   *Registry

	bus   *evbus.Hub[Event]
	pubMu sync.Mutex // serializes Seq assignment with Append
	// simSeen counts simulation events (wave/detection) published to bus;
	// a new incarnation's pump starts after this prefix.
	simSeen atomic.Uint64

	mu    sync.Mutex
	state State
	// study is the current incarnation until it settles; then final keeps
	// its last status and study is nil, so a settled handle does not pin
	// the incarnation's pilot. Resume builds a new study from cfg.
	study  *tripwire.Study
	final  tripwire.StudyStatus
	gen    int // incarnation counter, guards stale goroutines
	cancel context.CancelFunc
	done   chan struct{} // closed when the current run goroutine finishes
	intent State         // Paused or Cancelled while a stop is in flight
	err    error         // terminal run error (Failed)
}

// ID returns the registry-assigned study ID.
func (h *Handle) ID() string { return h.id }

// State returns the current lifecycle state.
func (h *Handle) State() State {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Err returns the run error of a Failed study, else nil.
func (h *Handle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Info is the control plane's study record: GET /studies/{id} serves it.
// Status is the underlying study's structured progress, embedded verbatim.
type Info struct {
	ID     string               `json:"id"`
	Label  string               `json:"label,omitempty"`
	Scale  string               `json:"scale"`
	State  string               `json:"state"`
	Events uint64               `json:"events"` // stream high-water mark
	Error  string               `json:"error,omitempty"`
	Status tripwire.StudyStatus `json:"status"`
}

// Info snapshots the handle for the HTTP API.
func (h *Handle) Info() Info {
	h.mu.Lock()
	st, study, status, err := h.state, h.study, h.final, h.err
	h.mu.Unlock()
	if study != nil {
		status = study.Status()
	}
	info := Info{
		ID:     h.id,
		Label:  h.label,
		Scale:  h.scale,
		State:  st.String(),
		Events: h.bus.Len(),
		Status: status,
	}
	if err != nil {
		info.Error = err.Error()
	}
	return info
}

// EventsSince subscribes to the study's stream after seq (0 replays from
// the start); the channel closes when the stream ends or ctx is done.
// This is the SSE Last-Event-ID contract: Event.Seq is gapless and
// 1-based, so a client that saw seq n resumes with EventsSince(ctx, n).
func (h *Handle) EventsSince(ctx context.Context, seq uint64) <-chan Event {
	return h.bus.SinceCtx(ctx, seq)
}

// EventSeq returns the stream's high-water sequence number.
func (h *Handle) EventSeq() uint64 { return h.bus.Len() }

// Wait blocks until the study reaches a terminal state (returning it and
// the Failed error, if any) or ctx is done (returning the current state
// and ctx's error).
func (h *Handle) Wait(ctx context.Context) (State, error) {
	for range h.bus.SinceCtx(ctx, h.bus.Len()) {
	}
	st := h.State()
	if st.Terminal() {
		return st, h.Err()
	}
	return st, ctx.Err()
}

// Pause stops a Running study at the next epoch boundary and parks it
// Paused. It only cancels: nothing is written, because Resume replays the
// study from its start. It blocks until the stop lands. If the study
// reaches a terminal state before the pause takes effect, a
// TransitionError naming that state is returned.
func (h *Handle) Pause() error {
	h.mu.Lock()
	if h.state != Running {
		defer h.mu.Unlock()
		return &TransitionError{Study: h.id, From: h.state, To: Paused}
	}
	h.intent = Paused
	cancel, done := h.cancel, h.done
	h.mu.Unlock()
	cancel()
	<-done
	if st := h.State(); st != Paused {
		return &TransitionError{Study: h.id, From: st, To: Paused}
	}
	return nil
}

// Resume continues a Paused study. The new incarnation is built from the
// handle's configuration, deterministically replays the completed prefix
// and runs on; its final results are byte-identical to a never-paused
// run's.
func (h *Handle) Resume() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state != Paused {
		return &TransitionError{Study: h.id, From: h.state, To: Running}
	}
	// Submit validated h.cfg, so the new incarnation has no error.
	study := tripwire.New(tripwire.WithConfig(h.cfg))
	h.study = study
	h.gen++
	h.state = Running
	h.intent = intentNone
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.done = make(chan struct{})
	go h.run(study, h.gen, ctx, h.done, h.simSeen.Load())
	return nil
}

// Cancel stops the study for good: a queued or running study is cancelled
// at the next epoch boundary (blocking until the stop lands), a paused one
// immediately. If a racing completion wins, a TransitionError naming the
// terminal state is returned.
func (h *Handle) Cancel() error {
	h.mu.Lock()
	switch h.state {
	case Paused:
		h.state = Cancelled
		at := h.final.VirtualNow
		h.mu.Unlock()
		h.publish(Event{Kind: KindCancelled, At: at, State: Cancelled.String()})
		h.bus.Close()
		return nil
	case Pending, Running:
		h.intent = Cancelled
		cancel, done := h.cancel, h.done
		h.mu.Unlock()
		cancel()
		<-done
		if st := h.State(); st != Cancelled {
			return &TransitionError{Study: h.id, From: st, To: Cancelled}
		}
		return nil
	default:
		defer h.mu.Unlock()
		return &TransitionError{Study: h.id, From: h.state, To: Cancelled}
	}
}

// run is one incarnation's driver goroutine: acquire an active slot, pump
// the simulation's event stream onto the study stream (skipping the
// fromSeq prefix an earlier incarnation already published), execute, and
// settle the resulting lifecycle transition.
func (h *Handle) run(study *tripwire.Study, gen int, ctx context.Context, done chan struct{}, fromSeq uint64) {
	defer close(done)

	pumpCtx, pumpCancel := context.WithCancel(context.Background())
	defer pumpCancel()
	pumpDone := make(chan struct{})
	go func() {
		defer close(pumpDone)
		// Subscribe from 0, not fromSeq: the incarnation's own stream is
		// empty until the replay runs, and evbus clamps a cursor beyond
		// the high-water mark back down — the skip must be counted here.
		skip := fromSeq
		for ev := range study.EventsSinceContext(pumpCtx, 0) {
			if skip > 0 {
				skip--
				continue
			}
			h.publishSim(ev)
		}
	}()

	ran := false
	select {
	case h.reg.sem <- struct{}{}:
		ran = true
		h.markRunning(gen, study)
		// RunContext closes the study's event hub on every exit path, so
		// the pump below drains the full stream and ends on its own.
		_ = study.RunContext(ctx)
		<-h.reg.sem
	case <-ctx.Done():
		// Cancelled while queued; the study never started and its hub
		// never closes, so release the pump by context instead.
		pumpCancel()
	}
	<-pumpDone
	h.settle(study, gen, ran)
}

// markRunning records the Pending→Running edge (first incarnation only —
// Resume re-enters Running synchronously) and announces the (re)start.
func (h *Handle) markRunning(gen int, study *tripwire.Study) {
	h.mu.Lock()
	if h.gen != gen {
		h.mu.Unlock()
		return
	}
	if h.state == Pending {
		h.state = Running
	}
	h.mu.Unlock()
	h.publish(Event{Kind: KindRunning, At: study.Status().VirtualNow, State: Running.String()})
}

// settle applies the incarnation's outcome to the state machine and
// publishes the matching lifecycle event. It runs after the event pump
// has drained, so the lifecycle event is ordered after every simulation
// event of the incarnation.
func (h *Handle) settle(study *tripwire.Study, gen int, ran bool) {
	final := study.Status()
	h.mu.Lock()
	if h.gen != gen {
		h.mu.Unlock()
		return
	}
	var to State
	err := study.Err()
	switch {
	case ran && !study.Interrupted() && err == nil:
		to = Done
	case ran && !study.Interrupted() && err != nil:
		to = Failed
		h.err = err
	default:
		// Interrupted at an epoch boundary, or never ran: the stop intent
		// chose the destination. Registry shutdown cancels without intent.
		if h.intent == Paused {
			to = Paused
		} else {
			to = Cancelled
		}
	}
	h.state = to
	h.intent = intentNone
	h.final, h.study = final, nil
	h.mu.Unlock()

	ev := Event{Kind: lifecycleKind(to), At: final.VirtualNow, State: to.String()}
	if err != nil && to == Failed {
		ev.Error = err.Error()
	}
	h.publish(ev)
	if to.Terminal() {
		h.bus.Close()
	}
}

// lifecycleKind maps a settled state to its event kind.
func lifecycleKind(s State) string {
	switch s {
	case Running:
		return KindRunning
	case Paused:
		return KindPaused
	case Cancelled:
		return KindCancelled
	case Failed:
		return KindFailed
	default:
		return KindDone
	}
}

// publishSim forwards one simulation event onto the study stream.
func (h *Handle) publishSim(ev tripwire.Event) {
	h.simSeen.Add(1)
	h.publish(fromSim(ev))
}

// publish assigns the next sequence number and appends ev to the study
// stream, then hands it to the registry for webhook dispatch. pubMu makes
// the Len-then-Append pair atomic so Seq always matches the bus position.
func (h *Handle) publish(ev Event) {
	h.pubMu.Lock()
	ev.Study = h.id
	ev.Seq = h.bus.Len() + 1
	h.bus.Append(ev)
	h.pubMu.Unlock()
	h.reg.published(ev)
}
