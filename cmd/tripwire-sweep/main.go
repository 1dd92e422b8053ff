// Command tripwire-sweep runs the pilot across many seeds and reports the
// distribution of headline outcomes — demonstrating that the reproduction's
// shapes (detections, validity rates, funnel proportions) are properties of
// the system, not of one lucky random stream.
//
// Seeds run on a worker pool bounded by -parallel; per-seed progress
// streams to stderr as each study finishes, while the stdout summary
// aggregates in seed order and is byte-identical at any parallelism. The
// sweep exits non-zero if any seed's study carries an error or fires an
// integrity alarm.
//
// The same binary also runs the sweep distributed across machines:
//
//   - `tripwire-sweep -listen :9091` starts a coordinator that serves the
//     seed tasks over HTTP (internal/distsweep) instead of running them.
//     It prints the identical summary once every seed's result is in.
//   - `tripwire-sweep -join http://host:9091` starts a worker that leases
//     seeds from the coordinator, runs each study locally, and streams the
//     results back. The sweep's shape (-n, -scale, lease TTL) comes from
//     the coordinator's handshake, so workers need no matching flags.
//
// When -secret (or TRIPWIRE_SWEEP_SECRET) is set, every mutating control-
// plane request is HMAC-signed; coordinator and workers must agree.
//
// Usage:
//
//	tripwire-sweep [-n seeds] [-scale small|paper] [-parallel N]
//	tripwire-sweep -listen addr [-n seeds] [-scale ...] [-lease-ttl d] [-secret s] [-rate r]
//	tripwire-sweep -join url [-name worker] [-secret s]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"tripwire"
	"tripwire/internal/distsweep"
	"tripwire/internal/httpx"
	"tripwire/internal/obs"
	"tripwire/internal/sim"
	"tripwire/internal/sweep"
)

// configFor builds the per-seed study config for a scale label — the one
// function local sweeps, the coordinator, and every joined worker must
// share for the outputs to be byte-identical.
func configFor(scale string) (func(seed int64) tripwire.Config, error) {
	if _, err := sim.ScaleConfig(scale); err != nil {
		return nil, err
	}
	return func(seed int64) tripwire.Config {
		cfg, _ := sim.ScaleConfig(scale)
		cfg.Seed = seed * 101
		return cfg
	}, nil
}

func main() {
	n := flag.Int("n", 5, "number of seeds to run")
	scale := flag.String("scale", "small", "study scale: small or paper")
	parallel := flag.Int("parallel", 1, "seeds to run concurrently (results are identical at any value)")
	listen := flag.String("listen", "", "coordinator mode: serve seed tasks to workers on this address instead of running them")
	join := flag.String("join", "", "worker mode: lease and run seed tasks from the coordinator at this base URL")
	name := flag.String("name", "", "worker name reported to the coordinator (default host.pid)")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "coordinator mode: lease deadline; an unrenewed seed is re-issued after this")
	secret := flag.String("secret", os.Getenv("TRIPWIRE_SWEEP_SECRET"), "HMAC secret for control-plane requests (default $TRIPWIRE_SWEEP_SECRET)")
	rate := flag.Float64("rate", 0, "coordinator mode: per-IP request rate limit (requests/s, 0 = off)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tripwire-sweep:", err)
		os.Exit(1)
	}
	if *listen != "" && *join != "" {
		fmt.Fprintln(os.Stderr, "tripwire-sweep: -listen and -join are mutually exclusive")
		os.Exit(2)
	}

	switch {
	case *join != "":
		if err := runWorker(*join, *name, *secret); err != nil {
			fail(err)
		}
	case *listen != "":
		out, err := runCoordinator(*listen, *n, *scale, *leaseTTL, *secret, *rate)
		if err != nil {
			fail(err)
		}
		fmt.Print(out.Render(*scale))
		if err := out.Failed(); err != nil {
			fail(err)
		}
	default:
		cf, err := configFor(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tripwire-sweep:", err)
			os.Exit(2)
		}
		out := sweep.Run(sweep.Options{
			N:         *n,
			Parallel:  *parallel,
			ConfigFor: cf,
			Progress:  os.Stderr,
		})
		fmt.Print(out.Render(*scale))
		if err := out.Failed(); err != nil {
			fail(err)
		}
	}
}

// runCoordinator serves the sweep's task set over HTTP and blocks until
// every seed's result has been accepted, then returns the aggregate —
// the same *sweep.Outcome a local Run would have produced.
func runCoordinator(addr string, n int, scale string, leaseTTL time.Duration, secret string, rate float64) (*sweep.Outcome, error) {
	if _, err := configFor(scale); err != nil {
		return nil, err
	}
	coord, err := distsweep.NewCoordinator(distsweep.Options{
		N:        n,
		Scale:    scale,
		LeaseTTL: leaseTTL,
		Secret:   secret,
		Rate:     rate,
		Progress: os.Stderr,
		Metrics:  obs.New(),
	})
	if err != nil {
		return nil, err
	}
	srv := httpx.NewServer(distsweep.Handler(coord))
	srv.Addr = addr
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "tripwire-sweep: coordinating %d seeds (scale %s) on %s; workers join with -join\n", n, scale, addr)
	select {
	case <-coord.Done():
	case err := <-errc:
		return nil, err
	}
	// Grace period: workers learn the sweep is over from a 410 on their
	// next lease poll, so keep serving briefly before shutting down —
	// otherwise they see a dead socket and exit with an error.
	time.Sleep(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	return coord.Outcome(), nil
}

// runWorker joins a coordinator, building the per-seed config locally
// from the scale named in the handshake, and runs leased seeds until the
// sweep completes.
func runWorker(baseURL, name, secret string) error {
	client := &distsweep.Client{BaseURL: baseURL, Secret: secret}
	spec, err := client.Spec()
	if err != nil {
		return fmt.Errorf("joining %s: %w", baseURL, err)
	}
	cf, err := configFor(spec.Scale)
	if err != nil {
		return fmt.Errorf("coordinator at %s announced %w", baseURL, err)
	}
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	fmt.Fprintf(os.Stderr, "tripwire-sweep: %s joined %s: %d seeds at scale %s\n", name, baseURL, spec.N, spec.Scale)
	w := &distsweep.Worker{
		Client:    client,
		Name:      name,
		ConfigFor: cf,
		OnLease: func(idx int) {
			fmt.Fprintf(os.Stderr, "tripwire-sweep: %s leased seed %d\n", name, idx)
		},
	}
	return w.Run(context.Background())
}
