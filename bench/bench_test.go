package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// tinySizes shrinks every workload so the smoke test finishes in seconds.
var tinySizes = sizes{
	PilotConfig:    "small",
	CrawlUniverses: 1,
	CrawlSites:     300,
	StuffDomains:   2,
	StuffAccounts:  50,
	StuffControls:  50,
	StuffDays:      60,
	StuffDumpEvery: 30,
	DurableSeeds:   1,
}

// TestSmoke runs every workload in-process at tiny sizes, untraced and then
// traced, through the same measure and print path as the benchmark, and
// requires the printed result to carry every metric BENCHMARK.json names,
// with its unit, and no failed correctness check.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	benchTmp = t.TempDir()
	inProcess := func(ctx context.Context, name string, seed int64, traceDir string) (iterResult, error) {
		return iterate(ctx, name, seed, tinySizes, traceDir)
	}
	for _, traced := range []bool{false, true} {
		b := &bench{
			spec:     sp,
			seed:     defaultSeed,
			runs:     1,
			trace:    traced,
			traceDir: t.TempDir(),
			iterate:  inProcess,
			env:      stampEnv(root, defaultSeed, tinySizes, runtime.GOMAXPROCS(0)),
		}
		names, err := b.selectWorkloads("all")
		if err != nil {
			t.Fatal(err)
		}
		reports, err := b.measureAll(context.Background(), names)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		b.print(&out, reports)
		t.Log(out.String())
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: fail_frac %d/%d, want 0 of at least 1\n%s", traced, res.Failed, res.Attempted, out.String())
		}
		want := sp.EndToEnd
		if traced {
			want = sp.PerLayer
		}
		for _, m := range want {
			computed := false
			for _, w := range names {
				got, ok := res.Metrics[w+"."+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("traced=%v: %s.%s printed as %+v (present %v), want unit %q", traced, w, m.Name, got, ok, m.Unit)
				}
				computed = computed || got.Value != 0
			}
			// End-to-end metrics must be non-zero everywhere; a per-layer
			// metric must at least be computed by some workload, which
			// catches a misspelt name in BENCHMARK.json.
			if !computed {
				t.Errorf("traced=%v: %s is 0 on every workload", traced, m.Name)
			}
			if !traced {
				for _, w := range names {
					if res.Metrics[w+"."+m.Name].Value <= 0 {
						t.Errorf("%s.%s = %v, want > 0", w, m.Name, res.Metrics[w+"."+m.Name].Value)
					}
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; with [1, 2] it is [0.75, 1.5, 2.25].
	for _, tc := range []struct {
		xs       []float64
		p25, p75 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3}, 3, 3},
	} {
		if p25, p75 := quartiles(tc.xs); p25 != tc.p25 || p75 != tc.p75 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, p25, p75, tc.p25, tc.p75)
		}
	}
}
