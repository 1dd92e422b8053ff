package sim

import (
	"time"

	"tripwire/internal/obs"
	"tripwire/internal/simclock"
)

// pilotMetrics is the sim-layer view of the registry: wave and checkpoint
// spans, task throughput, worker utilization, and timeline-engine
// telemetry. A nil *pilotMetrics is a no-op.
type pilotMetrics struct {
	waveSpan    *obs.Span
	ckptSpan    *obs.Span
	waves       *obs.Counter
	tasks       *obs.Counter
	taskDur     *obs.Histogram
	utilization *obs.Gauge
	provisioned *obs.Counter

	tlEvents      *obs.Counter
	tlEpochs      *obs.Counter
	tlSegments    *obs.Counter
	tlWidth       *obs.Histogram
	tlPartitions  *obs.Histogram
	tlUtilization *obs.Gauge
}

// newPilotMetrics registers the sim metric families on r and exposes the
// configured worker count as a gauge.
func (p *Pilot) newPilotMetrics(r *obs.Registry) *pilotMetrics {
	if r == nil {
		return nil
	}
	m := &pilotMetrics{
		waveSpan:    r.Span("tripwire_sim_wave", "One crawl wave (both phases)", nil),
		ckptSpan:    r.Span("tripwire_sim_checkpoint", "One checkpoint: export, digest and write", nil),
		waves:       r.Counter("tripwire_sim_waves_total", "Crawl waves completed."),
		tasks:       r.Counter("tripwire_sim_crawl_tasks_total", "Crawl tasks executed across all waves."),
		taskDur:     r.Histogram("tripwire_sim_task_duration_seconds", "Wall-clock duration of one crawl task.", nil),
		utilization: r.Gauge("tripwire_sim_worker_utilization_percent", "Share of the last phase's worker-time spent crawling."),
		provisioned: r.Counter("tripwire_sim_identities_provisioned_total", "Honey identities provisioned at the provider."),

		tlEvents: r.Counter("tripwire_timeline_events_total", "Timeline events executed by the epoch engine."),
		tlEpochs: r.Counter("tripwire_timeline_epochs_total", "Timeline epochs executed."),
		// Count-shaped buckets: these histograms observe event/partition
		// counts, not durations (partitions cap at the 64-way key fold).
		tlWidth:       r.Histogram("tripwire_timeline_epoch_width", "Events per epoch (frontier width).", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		tlPartitions:  r.Histogram("tripwire_timeline_partitions", "Conflict partitions per epoch.", []float64{1, 2, 4, 8, 16, 32, 64}),
		tlUtilization: r.Gauge("tripwire_timeline_worker_utilization_percent", "Share of the last parallel epoch's worker-time spent executing events."),
		tlSegments:    r.Counter("tripwire_timeline_segments_total", "Parallel segments executed across all epochs."),
	}
	r.GaugeFunc("tripwire_sim_workers", "Configured crawl and timeline workers (0 meant GOMAXPROCS).", func() int64 {
		return int64(p.workers())
	})
	return m
}

// epochDone records one executed timeline epoch; it is the Epochs.Observe
// hook. Worker utilization is only meaningful for epochs that actually ran
// partitions in parallel, so serial epochs leave the gauge untouched.
func (m *pilotMetrics) epochDone(st simclock.EpochStats) {
	if m == nil {
		return
	}
	m.tlEvents.Add(uint64(st.Width))
	m.tlEpochs.Inc()
	m.tlSegments.Add(uint64(st.Segments))
	m.tlWidth.Observe(float64(st.Width))
	m.tlPartitions.Observe(float64(st.Partitions))
	if st.Workers > 1 && st.Elapsed > 0 {
		m.tlUtilization.Set(int64(100 * st.Busy / (st.Elapsed * time.Duration(st.Workers))))
	}
}

// waveStart opens the wave span; pair with waveDone.
func (m *pilotMetrics) waveStart() obs.SpanTimer {
	if m == nil {
		return obs.SpanTimer{}
	}
	return m.waveSpan.Start()
}

// checkpointStart opens the checkpoint span; End it once the file is
// written or has failed.
func (m *pilotMetrics) checkpointStart() obs.SpanTimer {
	if m == nil {
		return obs.SpanTimer{}
	}
	return m.ckptSpan.Start()
}

// waveDone closes the wave span and counts the wave.
func (m *pilotMetrics) waveDone(t obs.SpanTimer) {
	if m == nil {
		return
	}
	t.End()
	m.waves.Inc()
}

// phaseDone records one finished phase: per-task wall-clock durations were
// already observed by the workers; here the busy total is turned into a
// utilization percentage over the phase's span.
func (m *pilotMetrics) phaseDone(tasks int, busy, elapsed time.Duration, workers int) {
	if m == nil {
		return
	}
	m.tasks.Add(uint64(tasks))
	if elapsed > 0 && workers > 0 {
		m.utilization.Set(int64(100 * busy / (elapsed * time.Duration(workers))))
	}
}
