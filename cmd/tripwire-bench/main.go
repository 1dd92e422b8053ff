// Command tripwire-bench converts `go test -bench` output into the
// tracked BENCH_crawl.json format, so hot-path regressions show up as a
// diff instead of a feeling.
//
// It reads benchmark text on stdin and writes JSON with one entry per
// benchmark: ns/op, B/op, allocs/op, and any custom metrics the benchmark
// reported (MB/s, sites/s, pages/s). With -baseline, the named file's
// benchmark map is embedded under "baseline" so before/after live in one
// document.
//
// With -assert-overhead PCT it also gates the observability tax, read
// from BenchmarkMetricsOverhead, which crawls the same CPU-bound batches
// with metrics off and on in alternation within one run (same machine,
// same load — the only comparison that is sound): the command exits
// non-zero if the median metered batch used more than PCT percent more
// CPU than its unmetered twin, or if the metered waves allocate more.
//
// With -assert-allocs PCT (requires -baseline) it gates allocation
// regressions: every benchmark on stdin that also appears in the baseline
// with an allocs/op figure is compared, and the command exits non-zero if
// any current allocs/op exceeds its baseline by more than PCT percent.
// allocs/op is deterministic for a fixed -benchtime, so this check is
// sound on shared hardware where ns/op is not; ns/op stays informational.
//
// With -assert-heap PCT (requires -baseline) it gates memory-envelope
// regressions the same way, over the heap-MB custom metric that the
// lazy-universe and heap-envelope benchmarks report (live heap after a
// forced GC, so it is stable across machines in a way wall-clock time is
// not), the ckpt-full-KB figure that BenchmarkCheckpoint reports (the size
// of a written checkpoint file), and the allocs/event figure
// BenchmarkTimeline reports (allocations per fired timeline event, a
// property of the engine and protocol hot paths).
// Benchmarks without a given figure on both sides are skipped.
//
// Usage:
//
//	go test -run xxx -bench . -benchmem ./... | tripwire-bench -out BENCH_crawl.json -baseline BENCH_baseline.json
//	go test -run xxx -bench MetricsOverhead -benchtime 20x ./internal/sim/ | tripwire-bench -assert-overhead 3
//	go test -run xxx -bench . -benchmem ./... | tripwire-bench -baseline BENCH_baseline.json -assert-allocs 5 -out /dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the written BENCH JSON document.
type Doc struct {
	Schema     string            `json:"schema"`
	Note       string            `json:"note,omitempty"`
	Baseline   map[string]Result `json:"baseline,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// parseLine parses one `BenchmarkName-8  N  1234 ns/op  ...` line; ok is
// false for non-benchmark lines (headers, PASS, pkg banners).
func parseLine(line string) (name string, r Result, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", r, false
	}
	name = f[0]
	// Strip the -GOMAXPROCS suffix so names are machine-independent.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", r, false
	}
	r.Iterations = iters
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", r, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = v
		}
	}
	return name, r, true
}

// overheadBench is the benchmark -assert-overhead reads.
const overheadBench = "BenchmarkMetricsOverhead"

// assertOverhead gates overheadBench's figures: metrics-cpu-% (the median
// over back-to-back batch pairs of the metered batch's CPU over its
// unmetered twin's, less one, in percent) against maxPct, and
// metered-allocs/wave against allocs/wave with a 0.1% tolerance for
// goroutine bookkeeping. found is false when the input has no such
// benchmark.
func assertOverhead(benchmarks map[string]Result, maxPct float64) (found bool, breaches []string) {
	r, ok := benchmarks[overheadBench]
	if !ok {
		return false, nil
	}
	tax, okTax := r.Metrics["metrics-cpu-%"]
	base, okBase := r.Metrics["allocs/wave"]
	metered, okMetered := r.Metrics["metered-allocs/wave"]
	if !okTax || !okBase || !okMetered {
		return true, []string{overheadBench + ": missing metrics-cpu-%, allocs/wave or metered-allocs/wave"}
	}
	fmt.Fprintf(os.Stderr, "tripwire-bench: crawl CPU with metrics on %+.2f%% (median batch pair), allocs/wave %.0f -> %.0f\n", tax, base, metered)
	if tax > maxPct {
		breaches = append(breaches, fmt.Sprintf("crawl CPU with metrics on is %.2f%% above metrics off, budget %.1f%%", tax, maxPct))
	}
	if metered > base*1.001 {
		breaches = append(breaches, fmt.Sprintf("allocs/wave grew with metrics on (%.0f -> %.0f)", base, metered))
	}
	return true, breaches
}

// assertAllocs compares every current benchmark against its baseline
// entry, allocs/op only. Names absent from the baseline (new benchmarks)
// and entries without alloc figures are skipped, so adding a benchmark
// never breaks the gate; it starts being enforced once the baseline is
// regenerated with it included.
func assertAllocs(current, baseline map[string]Result, maxPct float64) (checked int, breaches []string) {
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cur, base := current[name], baseline[name]
		if cur.AllocsPerOp == nil || base.AllocsPerOp == nil {
			continue
		}
		checked++
		growth := 0.0
		if *base.AllocsPerOp > 0 {
			growth = 100 * (*cur.AllocsPerOp - *base.AllocsPerOp) / *base.AllocsPerOp
		}
		if growth > maxPct {
			breaches = append(breaches, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (%+.2f%%, budget %.1f%%)",
				name, *base.AllocsPerOp, *cur.AllocsPerOp, growth, maxPct))
			continue
		}
		fmt.Fprintf(os.Stderr, "tripwire-bench: %-50s allocs/op %.0f -> %.0f (%+.2f%%)\n",
			name, *base.AllocsPerOp, *cur.AllocsPerOp, growth)
	}
	return checked, breaches
}

// memoryGatedUnits are the deterministic memory-envelope metrics gated by
// -assert-heap: post-GC live heap (heap-MB), the size of a written
// checkpoint file (ckpt-full-KB), and the timeline engine's allocation
// rate (allocs/event, allocations per fired event over BenchmarkTimeline's
// timed region). All three are properties of the retained data structures
// and the hot-path code, not of the machine.
var memoryGatedUnits = []string{"heap-MB", "ckpt-full-KB", "allocs/event"}

// assertHeap compares every current benchmark's memory-envelope figures
// (memoryGatedUnits) against its baseline entry. A sustained growth past
// the budget means an envelope regressed — e.g. the login log stopped
// spilling, lazy materialization turned eager, or a checkpoint started
// storing a state section instead of its digest.
func assertHeap(current, baseline map[string]Result, maxPct float64) (checked int, breaches []string) {
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, unit := range memoryGatedUnits {
			cur, ok := current[name].Metrics[unit]
			base, okBase := baseline[name].Metrics[unit]
			if !ok || !okBase {
				continue
			}
			checked++
			growth := 0.0
			if base > 0 {
				growth = 100 * (cur - base) / base
			}
			if growth > maxPct {
				breaches = append(breaches, fmt.Sprintf("%s: %s %.1f -> %.1f (%+.2f%%, budget %.1f%%)",
					name, unit, base, cur, growth, maxPct))
				continue
			}
			fmt.Fprintf(os.Stderr, "tripwire-bench: %-50s %s %.1f -> %.1f (%+.2f%%)\n",
				name, unit, base, cur, growth)
		}
	}
	return checked, breaches
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	baseline := flag.String("baseline", "", "existing BENCH JSON whose benchmarks become this document's baseline")
	note := flag.String("note", "", "free-form note recorded in the document")
	assertPct := flag.Float64("assert-overhead", 0, "fail if BenchmarkMetricsOverhead's metered crawl uses more than this % more CPU than its metrics-free twin, or allocates more")
	assertAllocsPct := flag.Float64("assert-allocs", 0, "fail if any benchmark's allocs/op exceeds its -baseline entry by more than this % (new benchmarks without a baseline entry are skipped)")
	assertHeapPct := flag.Float64("assert-heap", 0, "fail if any benchmark's heap-MB, ckpt-full-KB, or allocs/event metric exceeds its -baseline entry by more than this % (benchmarks without the figure on both sides are skipped)")
	flag.Parse()

	if *assertAllocsPct > 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "tripwire-bench: -assert-allocs requires -baseline")
		os.Exit(2)
	}
	if *assertHeapPct > 0 && *baseline == "" {
		fmt.Fprintln(os.Stderr, "tripwire-bench: -assert-heap requires -baseline")
		os.Exit(2)
	}

	doc := Doc{Schema: "tripwire-bench/1", Note: *note, Benchmarks: make(map[string]Result)}

	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tripwire-bench:", err)
			os.Exit(1)
		}
		var base Doc
		if err := json.Unmarshal(data, &base); err != nil {
			fmt.Fprintf(os.Stderr, "tripwire-bench: parsing %s: %v\n", *baseline, err)
			os.Exit(1)
		}
		doc.Baseline = base.Benchmarks
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, r, ok := parseLine(sc.Text()); ok {
			doc.Benchmarks[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-bench:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "tripwire-bench: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *assertPct > 0 {
		found, breaches := assertOverhead(doc.Benchmarks, *assertPct)
		for _, b := range breaches {
			fmt.Fprintln(os.Stderr, "tripwire-bench: OVERHEAD:", b)
		}
		if len(breaches) > 0 {
			os.Exit(1)
		}
		if !found {
			fmt.Fprintln(os.Stderr, "tripwire-bench: -assert-overhead found no "+overheadBench+" on stdin")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tripwire-bench: metrics overhead within %.1f%% budget\n", *assertPct)
	}

	if *assertAllocsPct > 0 {
		checked, breaches := assertAllocs(doc.Benchmarks, doc.Baseline, *assertAllocsPct)
		for _, b := range breaches {
			fmt.Fprintln(os.Stderr, "tripwire-bench: ALLOC REGRESSION:", b)
		}
		if len(breaches) > 0 {
			os.Exit(1)
		}
		if checked == 0 {
			fmt.Fprintln(os.Stderr, "tripwire-bench: -assert-allocs matched no benchmarks against the baseline")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tripwire-bench: allocs/op within %.1f%% of baseline across %d benchmarks\n", *assertAllocsPct, checked)
	}

	if *assertHeapPct > 0 {
		checked, breaches := assertHeap(doc.Benchmarks, doc.Baseline, *assertHeapPct)
		for _, b := range breaches {
			fmt.Fprintln(os.Stderr, "tripwire-bench: HEAP REGRESSION:", b)
		}
		if len(breaches) > 0 {
			os.Exit(1)
		}
		if checked == 0 {
			fmt.Fprintln(os.Stderr, "tripwire-bench: -assert-heap matched no memory-envelope figures against the baseline")
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tripwire-bench: memory envelopes within %.1f%% of baseline across %d figures\n", *assertHeapPct, checked)
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tripwire-bench:", err)
		os.Exit(1)
	}
}
