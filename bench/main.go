// Command bench is the end-to-end benchmark of the Tripwire reproduction.
// It runs four closed-batch workloads — the paper-scale pilot, a crawl of
// five paper-scale universes, credential stuffing on the timeline engine,
// and durable small pilots with checkpoint/resume — and reports each
// workload's wall time, CPU time, setup time, peak RSS and throughput, the
// correctness checks it ran, and, from a separate traced run, a per-layer
// breakdown. BENCHMARK.json at the repository root names the workloads and
// metrics; bench/README.md explains them.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload W] [-seed 42] [-seconds T] [-runs N]
//	                  [-trace 0|1] [-trace-dir DIR] [-out FILE]
//
// Every iteration runs in a fresh child process (the program re-executes
// itself) with GOMAXPROCS set to the CPU count, so CPU time and peak RSS
// belong to one batch. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics,
// or with -trace 1 the per-layer metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// benchTmp is where workloads put their files (the durable workload's
// checkpoints and spill segments): .bench_build/tmp under the repository
// root, set once at start-up.
var benchTmp string

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 0, "keep starting iterations while the next is predicted to finish within this many seconds")
	runs := flag.Int("runs", 1, "run at least this many iterations per workload")
	trace := flag.Int("trace", 0, "1: after the untraced iterations run one traced iteration and report the per-layer metrics")
	traceDir := flag.String("trace-dir", "", "where the traced iteration writes trace.json, cpu.pprof and layers.json (default .bench_build/trace/WORKLOAD)")
	out := flag.String("out", "", "also write the full report, with every iteration, as JSON to this file")
	child := flag.Bool("child", false, "run one iteration of -workload in this process and print its result (used by the parent)")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	benchTmp = filepath.Join(root, ".bench_build", "tmp")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *child {
		res, err := iterate(ctx, *workload, *seed, fullSizes, *traceDir)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	sp, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	b := &bench{
		spec:     sp,
		seed:     *seed,
		seconds:  *seconds,
		runs:     *runs,
		trace:    *trace == 1,
		traceDir: *traceDir,
		iterate:  childIteration,
		env:      stampEnv(root, *seed, fullSizes, runtime.NumCPU()),
	}
	if b.traceDir == "" {
		b.traceDir = filepath.Join(root, ".bench_build", "trace")
	}
	names, err := b.selectWorkloads(*workload)
	if err != nil {
		fatal(err)
	}
	reports, err := b.measureAll(ctx, names)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeJSON(*out, map[string]any{"env": b.env, "workloads": reports}); err != nil {
			fatal(err)
		}
	}
	b.print(os.Stdout, reports)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// iterationFunc runs one iteration of a workload: in a child process
// normally, in-process in the smoke test.
type iterationFunc func(ctx context.Context, name string, seed int64, traceDir string) (iterResult, error)

// childIteration re-executes this program with -child so the iteration
// owns a fresh process: its CPU time, peak RSS and heap are its own.
func childIteration(ctx context.Context, name string, seed int64, traceDir string) (iterResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return iterResult{}, err
	}
	args := []string{"-child", "-workload", name, "-seed", fmt.Sprint(seed)}
	if traceDir != "" {
		args = append(args, "-trace-dir", traceDir)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return iterResult{}, fmt.Errorf("%s iteration: %w", name, err)
	}
	var res iterResult
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return iterResult{}, fmt.Errorf("%s iteration: reading result: %w", name, err)
	}
	return res, nil
}

type bench struct {
	spec     *spec
	seed     int64
	seconds  float64
	runs     int
	trace    bool
	traceDir string
	iterate  iterationFunc
	env      envStamp
}

// report is one workload's measurements.
type report struct {
	Workload   string                   `json:"workload"`
	Items      string                   `json:"items"`
	Iterations []iterResult             `json:"iterations"`
	Traced     *iterResult              `json:"traced,omitempty"`
	Metrics    map[string]metricSummary `json:"metrics"`
	Layers     map[string]float64       `json:"layers,omitempty"`
	Checks     int                      `json:"checks"`
	Failures   []string                 `json:"failures,omitempty"`
	Unsteady   []string                 `json:"unsteady,omitempty"`
}

type metricSummary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// endToEnd computes each end-to-end metric from one iteration.
var endToEnd = map[string]func(iterResult) float64{
	"wall_s":      func(r iterResult) float64 { return r.WallS },
	"cpu_s":       func(r iterResult) float64 { return r.CPUS },
	"setup_s":     func(r iterResult) float64 { return r.SetupS },
	"max_rss_mb":  func(r iterResult) float64 { return r.MaxRSSMB },
	"items_per_s": func(r iterResult) float64 { return r.Items / r.RunS },
}

func (b *bench) selectWorkloads(name string) ([]string, error) {
	var names []string
	for _, w := range b.spec.Workloads {
		if name == "all" || name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return names, nil
}

func (b *bench) measureAll(ctx context.Context, names []string) ([]*report, error) {
	var reports []*report
	for _, name := range names {
		r, err := b.measure(ctx, name)
		if err != nil {
			return nil, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// measure runs one workload: at least -runs iterations, more while the
// next is predicted (from the mean so far) to finish within -seconds, and
// with -trace 1 one traced iteration after them.
func (b *bench) measure(ctx context.Context, name string) (*report, error) {
	r := &report{Workload: name, Items: workloads[name].items}
	start := time.Now()
	for {
		if n := len(r.Iterations); n >= max(b.runs, 1) {
			elapsed := time.Since(start).Seconds()
			if b.trace || b.seconds <= 0 || elapsed+elapsed/float64(n) > b.seconds {
				break
			}
		}
		res, err := b.iterate(ctx, name, b.seed, "")
		if err != nil {
			return nil, err
		}
		r.Iterations = append(r.Iterations, res)
	}
	all := r.Iterations
	if b.trace {
		dir := filepath.Join(b.traceDir, name)
		res, err := b.iterate(ctx, name, b.seed, dir)
		if err != nil {
			return nil, err
		}
		r.Traced = &res
		all = append(append([]iterResult(nil), all...), res)
	}

	for _, it := range all {
		r.Checks += it.Checks
		r.Failures = append(r.Failures, it.Failures...)
	}
	// Each iteration is a fresh process over the same inputs, so the
	// canonical outputs must agree.
	same := true
	for _, it := range all[1:] {
		same = same && it.Digest == all[0].Digest
	}
	r.Checks++
	if !same {
		r.Failures = append(r.Failures, fmt.Sprintf("output digest differs across %d iterations", len(all)))
	}

	r.Metrics = make(map[string]metricSummary)
	for _, m := range b.spec.EndToEnd {
		var xs []float64
		for _, it := range r.Iterations {
			xs = append(xs, endToEnd[m.Name](it))
		}
		p25, p75 := quartiles(xs)
		s := metricSummary{Median: median(xs), P25: p25, P75: p75, N: len(xs), Unit: m.Unit}
		r.Metrics[m.Name] = s
		if spread := (s.P75 - s.P25) / s.Median; s.N > 1 && spread > m.Bound/2 {
			r.Unsteady = append(r.Unsteady, fmt.Sprintf("%s: interquartile spread %.1f%% exceeds half its %.0f%% bound; lengthen the workload rather than widening the bound",
				m.Name, 100*spread, 100*m.Bound))
		}
	}
	if r.Traced != nil {
		r.Layers = r.Traced.Layers
		r.Layers["trace.overhead_s"] = r.Traced.WallS - r.Metrics["wall_s"].Median
		if err := b.writeLayers(name, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// writeLayers writes layers.json beside the trace: every per-layer metric
// named in BENCHMARK.json with its unit, the raw counts behind the ratios,
// the tracing overhead and the environment.
func (b *bench) writeLayers(name string, r *report) error {
	metrics := make(map[string]any)
	for _, m := range b.spec.PerLayer {
		metrics[m.Name] = map[string]any{"value": r.Layers[m.Name], "unit": m.Unit}
	}
	return writeJSON(filepath.Join(b.traceDir, name, "layers.json"), map[string]any{
		"workload":         name,
		"env":              b.env,
		"untraced_wall_s":  r.Metrics["wall_s"].Median,
		"traced_wall_s":    r.Traced.WallS,
		"trace_overhead_s": r.Layers["trace.overhead_s"],
		"metrics":          metrics,
		"raw":              r.Layers,
	})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the human-readable report and, last, the one-line JSON
// result. With several workloads the result's metric names are prefixed
// with the workload.
func (b *bench) print(w io.Writer, reports []*report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: make(map[string]value)}
	env, _ := json.Marshal(b.env)
	fmt.Fprintf(w, "env %s\n", env)
	for _, r := range reports {
		fmt.Fprintf(w, "\n== %s  seed %d  %d iteration(s), items = %s\n", r.Workload, b.seed, len(r.Iterations), r.Items)
		for _, m := range b.spec.EndToEnd {
			s := r.Metrics[m.Name]
			fmt.Fprintf(w, "  %-28s %14.6g %-5s  p25 %.6g  p75 %.6g  n=%d\n", m.Name, s.Median, m.Unit, s.P25, s.P75, s.N)
		}
		failed := len(r.Failures)
		fmt.Fprintf(w, "  %-28s %14.6g %-5s  %d of %d checks failed\n", "fail_frac", float64(failed)/float64(r.Checks), "ratio", failed, r.Checks)
		for _, f := range r.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
		for _, u := range r.Unsteady {
			fmt.Fprintf(w, "  UNSTEADY %s\n", u)
		}
		if len(r.Iterations) > 0 {
			fmt.Fprintf(w, "  digest %s\n", r.Iterations[0].Digest)
		}
		if r.Traced != nil {
			fmt.Fprintf(w, "  per-layer (traced iteration, %s):\n", filepath.Join(b.traceDir, r.Workload))
			names := make([]string, 0, len(b.spec.PerLayer))
			units := make(map[string]string)
			for _, m := range b.spec.PerLayer {
				names = append(names, m.Name)
				units[m.Name] = m.Unit
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(w, "    %-30s %14.6g %s\n", n, r.Layers[n], units[n])
			}
		}

		result.Attempted += r.Checks
		result.Failed += failed
		prefix := ""
		if len(reports) > 1 {
			prefix = r.Workload + "."
		}
		if r.Traced != nil {
			for _, m := range b.spec.PerLayer {
				result.Metrics[prefix+m.Name] = value{r.Layers[m.Name], m.Unit}
			}
		} else {
			for _, m := range b.spec.EndToEnd {
				result.Metrics[prefix+m.Name] = value{r.Metrics[m.Name].Median, m.Unit}
			}
		}
	}
	result.Correct = result.Failed == 0
	line, _ := json.Marshal(result)
	fmt.Fprintf(w, "%s\n", line)
}
