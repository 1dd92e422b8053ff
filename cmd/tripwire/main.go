// Command tripwire runs the full Tripwire pilot study end to end on the
// virtual July 2014 – February 2017 timeline and prints every table and
// figure of the paper.
//
// Usage:
//
//	tripwire [-scale small|paper] [-seed N] [-workers N]
//	         [-detections-only] [-metrics-addr HOST:PORT] [-metrics-out FILE]
//	         [-progress] [-checkpoint-dir DIR] [-resume FILE]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// The paper scale crawls 33,634 synthetic sites and monitors >100,000 honey
// accounts; small scale runs the same pipeline on a 1,200-site web in a few
// seconds.
//
// Observability: -metrics-addr serves /metrics (Prometheus text),
// /metrics.json and /healthz while the study runs; -metrics-out dumps the
// final registry at exit ("-" for stdout, *.prom for text, anything else
// JSON); -progress streams wave and detection events to stderr. Ctrl-C
// (or SIGTERM) stops the study at the next timeline epoch boundary,
// keeping every completed epoch's results (and the metrics dump) intact.
//
// Checkpoint/resume: with -checkpoint-dir, Ctrl-C also writes one
// resumable snapshot into DIR at the epoch where the study stopped, named
// checkpoint-NNNNNN.twsnap by completed-wave count; a run that reaches
// its end writes none. The snapshot stores the configuration and progress
// plus the length and SHA-256 of every subsystem's state, about a
// kilobyte at any scale. -resume FILE rebuilds the study from a snapshot,
// deterministically replays the completed prefix, verifies its state
// digests against the snapshot, and continues; the final output is
// identical to an uninterrupted run. Resume replays from the start, so it
// costs what rerunning the prefix costs. -scale and -seed are taken from
// the snapshot when resuming; -workers, -checkpoint-dir and the metrics
// flags, which the snapshot does not record, apply as given.
//
// Profiles: -cpuprofile records the whole run, setup through the printed
// report, and -memprofile writes a heap profile (live and allocated
// memory) once the report is printed, for go tool pprof.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tripwire"
	"tripwire/internal/obs"
	"tripwire/internal/runlog"
	"tripwire/internal/sim"
)

func main() { os.Exit(run()) }

// run is the command's body, returning its exit code so that deferred
// cleanups, the profiles' included, run before the process exits.
func run() (code int) {
	scale := flag.String("scale", "small", "study scale: small or paper")
	seed := flag.Int64("seed", 42, "simulation seed")
	detectionsOnly := flag.Bool("detections-only", false, "print only detected compromises")
	saveDir := flag.String("save", "", "write a results directory (summary, dataset, JSON records)")
	workers := flag.Int("workers", 0, "goroutines for crawl waves and timeline epochs (0 = GOMAXPROCS); any value yields identical output for a given seed")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /healthz on this address while running")
	metricsOut := flag.String("metrics-out", "", "dump the metrics registry here at exit (\"-\" = stdout, *.prom = Prometheus text, else JSON)")
	progress := flag.Bool("progress", false, "stream wave completions and detections to stderr")
	checkpointDir := flag.String("checkpoint-dir", "", "on Ctrl-C, write a resumable snapshot into this directory")
	resume := flag.String("resume", "", "resume from this checkpoint file; replays and verifies the completed prefix, then continues")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run and report to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile, taken after the report, to this file")
	flag.Parse()

	cfg, err := sim.ScaleConfig(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tripwire: %v\n", err)
		return 2
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tripwire: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "tripwire: %v\n", err)
			code = 1
		}
	}()

	opts := []tripwire.Option{tripwire.WithWorkers(*workers)}
	if *checkpointDir != "" {
		opts = append(opts, tripwire.WithCheckpoint(*checkpointDir, 0))
	}
	var reg *tripwire.Metrics
	if *metricsAddr != "" || *metricsOut != "" {
		reg = tripwire.NewMetrics()
		opts = append(opts, tripwire.WithMetrics(reg))
	}
	var study *tripwire.Study
	if *resume != "" {
		// The snapshot carries the configuration (scale, seed, batches);
		// -scale and -seed are ignored on resume.
		s, err := tripwire.Resume(*resume, opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tripwire: %v\n", err)
			return 1
		}
		study = s
		cfg = s.Pilot().Cfg
		fmt.Fprintf(os.Stderr, "tripwire: resuming from %s\n", *resume)
	} else {
		study = tripwire.New(append(opts, tripwire.WithConfig(cfg), tripwire.WithSeed(*seed))...)
	}
	if err := study.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "tripwire: %v\n", err)
		return 1
	}

	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tripwire: %v\n", err)
			return 1
		}
		defer func() { _ = shutdown() }()
		fmt.Fprintf(os.Stderr, "tripwire: metrics on http://%s/metrics\n", bound)
	}

	if *progress {
		go func() {
			for ev := range study.Events() {
				switch ev.Kind {
				case tripwire.EventWaveDone:
					fmt.Fprintf(os.Stderr, "tripwire: %s  wave done  batch=%q ranks=%d..%d attempts=%d\n",
						ev.At.Format("2006-01-02"), ev.Batch, ev.FromRank, ev.ToRank, ev.Attempts)
				case tripwire.EventDetection:
					fmt.Fprintf(os.Stderr, "tripwire: %s  DETECTED   %s (%d of %d accounts accessed)\n",
						ev.At.Format("2006-01-02"), ev.Detection.Domain,
						ev.Detection.AccountsAccessed, ev.Detection.AccountsRegistered)
				}
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "tripwire: generating %d-site web and running pilot (seed %d)...\n",
		cfg.Web.NumSites, cfg.Seed)
	start := time.Now()
	runErr := study.RunContext(ctx)
	switch {
	case runErr == nil:
		fmt.Fprintf(os.Stderr, "tripwire: pilot finished in %v\n", time.Since(start))
	case errors.Is(runErr, context.Canceled):
		fmt.Fprintf(os.Stderr, "tripwire: interrupted after %v; results below cover completed waves only\n", time.Since(start))
		if runErr != context.Canceled {
			// The stop checkpoint failed; its error is joined to ctx's.
			fmt.Fprintf(os.Stderr, "tripwire: %v\n", runErr)
		}
	default:
		fmt.Fprintf(os.Stderr, "tripwire: %v\n", runErr)
		return 1
	}

	if *metricsOut != "" {
		if err := obs.WriteFile(*metricsOut, reg); err != nil {
			fmt.Fprintf(os.Stderr, "tripwire: writing metrics: %v\n", err)
			return 1
		}
		if *metricsOut != "-" {
			fmt.Fprintf(os.Stderr, "tripwire: metrics written to %s\n", *metricsOut)
		}
	}

	if !study.IntegrityOK() {
		fmt.Fprintln(os.Stderr, "tripwire: WARNING: integrity alarms fired (unused accounts were accessed)")
	}

	if *saveDir != "" {
		man, err := runlog.Write(*saveDir, study.Pilot(), study.Summary())
		if err != nil {
			fmt.Fprintf(os.Stderr, "tripwire: saving results: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tripwire: results saved to %s (%d attempts, %d detections)\n",
			*saveDir, man.Attempts, man.Detections)
	}

	if *detectionsOnly {
		for _, d := range study.Detections() {
			fmt.Printf("%-16s rank≈%-6d %-14s %d of %d accounts accessed; %s\n",
				d.Domain, d.Rank, d.Category, d.AccountsAccessed, d.AccountsRegistered,
				study.Classify(d))
		}
	} else {
		fmt.Print(study.Summary())
	}
	if runErr != nil {
		return 1
	}
	return 0
}
