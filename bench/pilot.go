package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tripwire"
	"tripwire/internal/attacker"
	"tripwire/internal/identity"
	"tripwire/internal/webgen"
)

func pilotConfig(sz sizes) tripwire.Config {
	if sz.PilotConfig == "small" {
		return tripwire.SmallConfig()
	}
	return tripwire.DefaultConfig()
}

// pilotPaper is the paper-scale pilot: New, RunContext, Summary.
type pilotPaper struct {
	tr     *tracer
	reg    *tripwire.Metrics
	study  *tripwire.Study
	runErr error
}

func setupPilotPaper(seed int64, sz sizes, tr *tracer) (instance, error) {
	p := &pilotPaper{tr: tr}
	opts := []tripwire.Option{tripwire.WithConfig(pilotConfig(sz)), tripwire.WithSeed(paperStudySeed(seed))}
	if tr != nil {
		p.reg = tripwire.NewMetrics()
		opts = append(opts, tripwire.WithMetrics(p.reg))
	}
	end := tr.begin("tripwire", "New")
	p.study = tripwire.New(opts...)
	end()
	return p, p.study.Err()
}

func (p *pilotPaper) run(ctx context.Context) {
	end := p.tr.begin("tripwire", "Study.RunContext")
	p.runErr = p.study.RunContext(ctx)
	end()
}

func (p *pilotPaper) verify(c *checker) string {
	end := p.tr.timed("report.summary_s", "report", "Study.Summary")
	summary := p.study.Summary()
	end()
	checkStudy(c, p.study, p.runErr)
	h := sha256.New()
	io.WriteString(h, summary)
	return c.digest(h)
}

func (p *pilotPaper) items() float64 { return 1 }

func (p *pilotPaper) layers(tr *tracer) {
	tr.addRegistry(p.reg)
	tr.set("sim.timeline_s", tr.get("bench.run_s")-tr.get("sim.wave_s"))
	pl := p.study.Pilot()
	recrack(tr, pl.Universe.Store, pl.Campaign.Breaches())
}

func (p *pilotPaper) close() {}

// checkStudy applies the invariants every finished study must meet: no run
// error, no integrity alarm (unused honeypots never trip), and every
// detection names a site the attacker really breached.
func checkStudy(c *checker, s *tripwire.Study, runErr error) {
	c.check(fmt.Sprintf("study ran without error (%v)", runErr), runErr == nil && s.Err() == nil)
	c.check("zero integrity alarms", s.IntegrityOK())
	breached := s.Pilot().Campaign.Breaches()
	for _, d := range s.Detections() {
		_, ok := breached[d.Domain]
		c.check("detection "+d.Domain+" is a breached site", ok)
	}
}

// recrack re-times the dictionary attack. The campaign cracks inside
// timeline events the benchmark cannot wrap, so after the run the same
// Cracker runs again over each breached domain's dump, one domain at a
// time, and the process CPU it takes is attacker.crack_cpu_s.
func recrack(tr *tracer, store func(domain string) *webgen.Store, breaches map[string]time.Time) {
	domains := make([]string, 0, len(breaches))
	for d := range breaches {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	ck := &attacker.Cracker{Words: identity.DictionaryWords()}
	cpu0 := cpuSeconds()
	creds := 0
	for _, d := range domains {
		end := tr.begin("attacker", "Cracker.Crack "+d)
		creds += len(ck.Crack(store(d).Dump()))
		end()
	}
	tr.add("attacker.crack_cpu_s", cpuSeconds()-cpu0)
	tr.add("attacker.creds_cracked", float64(creds))
}

// durable runs n SmallConfig pilots, each checkpointing every wave and
// spilling its login log, then resumes each from its middle checkpoint and
// requires the resumed report to equal the straight one.
type durable struct {
	tr    *tracer
	dir   string
	seeds []durableSeed
}

type durableSeed struct {
	seed               int64
	dir                string
	reg                *tripwire.Metrics
	study              *tripwire.Study
	runErr, resumeErr  error
	straight, resumed  string
	straightS, resumeS float64
	ckpts              []string
}

const (
	checkpointEvery = 1
	logBudget       = 64
)

// durableSeeds are the study seeds pilot-small-durable draws from: seed S
// runs durableSeeds[(S+i) mod 11] for i < 6. Over seeds 1..600 a small
// pilot's dictionary attack varies from none to over 150,000 strong-hash
// candidates, enough to swing six pilots' total cost by 40% between
// neighbouring seeds and to bury the checkpoint and replay costs this
// workload exists for. These seeds all hash 28,500 to 31,500 strong-hash
// equivalents (a fast-hash candidate counted as 1/55 of one) and run within
// 30% of the median number of timeline epochs, so each run does comparable
// work.
var durableSeeds = []int64{1, 219, 222, 270, 292, 293, 431, 434, 460, 499, 513}

func setupDurable(seed int64, sz sizes, tr *tracer) (instance, error) {
	base := filepath.Join(benchTmp, "durable")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	d := &durable{tr: tr, dir: dir}
	for i := 0; i < sz.DurableSeeds; i++ {
		ss := durableSeeds[(uint64(seed)+uint64(i))%uint64(len(durableSeeds))]
		s := durableSeed{seed: ss, dir: filepath.Join(dir, fmt.Sprint(ss))}
		opts := []tripwire.Option{
			tripwire.WithConfig(tripwire.SmallConfig()),
			tripwire.WithSeed(s.seed),
			tripwire.WithCheckpoint(filepath.Join(s.dir, "ckpt"), checkpointEvery),
			tripwire.WithLogSpill(filepath.Join(s.dir, "spill"), logBudget),
		}
		if tr != nil {
			s.reg = tripwire.NewMetrics()
			opts = append(opts, tripwire.WithMetrics(s.reg))
		}
		end := tr.begin("tripwire", "New")
		s.study = tripwire.New(opts...)
		end()
		if err := s.study.Err(); err != nil {
			d.close()
			return nil, err
		}
		d.seeds = append(d.seeds, s)
	}
	return d, nil
}

func (d *durable) run(ctx context.Context) {
	for i := range d.seeds {
		s := &d.seeds[i]
		t0 := time.Now()
		end := d.tr.begin("tripwire", fmt.Sprintf("Study.RunContext seed %d", s.seed))
		s.runErr = s.study.RunContext(ctx)
		end()
		s.straightS = time.Since(t0).Seconds()
		end = d.tr.timed("report.summary_s", "report", "Study.Summary")
		s.straight = s.study.Summary()
		end()
		s.ckpts, _ = filepath.Glob(filepath.Join(s.dir, "ckpt", "checkpoint-*.twsnap"))
		sort.Strings(s.ckpts)
		d.resume(ctx, s)
	}
}

// resume continues the study from its middle checkpoint to the end. The
// resumed run checkpoints and spills into fresh directories, so it does the
// same durable writes as the straight run.
func (d *durable) resume(ctx context.Context, s *durableSeed) {
	if len(s.ckpts) == 0 {
		s.resumeErr = fmt.Errorf("no checkpoint was written")
		return
	}
	t0 := time.Now()
	end := d.tr.begin("tripwire", fmt.Sprintf("Resume seed %d", s.seed))
	defer end()
	r, err := tripwire.Resume(s.ckpts[len(s.ckpts)/2],
		tripwire.WithCheckpoint(filepath.Join(s.dir, "resume-ckpt"), checkpointEvery),
		tripwire.WithLogSpill(filepath.Join(s.dir, "resume-spill"), logBudget))
	if err != nil {
		s.resumeErr = err
		return
	}
	s.resumeErr = r.RunContext(ctx)
	s.resumed = r.Summary()
	s.resumeS = time.Since(t0).Seconds()
}

func (d *durable) verify(c *checker) string {
	h := sha256.New()
	for _, s := range d.seeds {
		checkStudy(c, s.study, s.runErr)
		c.check(fmt.Sprintf("seed %d wrote checkpoints", s.seed), len(s.ckpts) > 0)
		c.check(fmt.Sprintf("seed %d resumed without error (%v)", s.seed, s.resumeErr), s.resumeErr == nil)
		c.check(fmt.Sprintf("seed %d resumed report equals the straight report", s.seed), s.resumed == s.straight)
		fmt.Fprintf(h, "seed %d\n%s", s.seed, s.straight)
	}
	return c.digest(h)
}

func (d *durable) items() float64 { return float64(2 * len(d.seeds)) }

func (d *durable) layers(tr *tracer) {
	straight, plain := 0.0, 0.0
	for _, s := range d.seeds {
		pl := s.study.Pilot()
		tr.addRegistry(s.reg)
		straight += s.straightS
		tr.add("snapshot.resume_s", s.resumeS)
		tr.add("snapshot.ckpt_count", float64(len(s.ckpts)))
		for _, f := range s.ckpts {
			if fi, err := os.Stat(f); err == nil {
				tr.add("snapshot.ckpt_bytes", float64(fi.Size()))
			}
		}
		tr.add("emailprovider.spill_segments", float64(pl.Provider.SpilledSegments()))
		recrack(tr, pl.Universe.Store, pl.Campaign.Breaches())

		// The same study without checkpoints or spilling: the durable run's
		// excess over it is the cost of its writes. Its error was already
		// checked on the durable run of the same configuration.
		st := tripwire.New(tripwire.WithConfig(tripwire.SmallConfig()), tripwire.WithSeed(s.seed))
		t0 := time.Now()
		end := tr.begin("tripwire", fmt.Sprintf("plain Study.RunContext seed %d", s.seed))
		_ = st.RunContext(context.Background())
		end()
		plain += time.Since(t0).Seconds()
	}
	tr.set("snapshot.write_overhead_s", straight-plain)
	tr.set("sim.timeline_s", straight-tr.get("sim.wave_s"))
}

func (d *durable) close() {
	if d.dir != "" {
		os.RemoveAll(d.dir)
		d.dir = ""
	}
}

// paperSeeds are the study seeds pilot-paper runs. Over seeds 1..400 the
// paper pilot's cost varies about sixfold (10 to 56 CPU-s on two CPUs),
// because the seed decides how many strong-hash dumps the dictionary
// attack must search: from 0.37M to 2.2M candidate hashes. Ten runs at
// arbitrary seeds would spread far past any useful regression bound. These
// are the seeds in 1..400 whose attack hashes within 2% of seed 42's
// 1,006,192 candidates and whose pilot without cracking runs within 8% of
// seed 42's, so a run's spread measures the code rather than the draw.
// Seed 42 sits at index 42 mod 10.
var paperSeeds = []int64{7, 45, 42, 80, 183, 208, 262, 319, 322, 374}

// paperStudySeed maps the workload seed onto paperSeeds.
func paperStudySeed(seed int64) int64 {
	return paperSeeds[uint64(seed)%uint64(len(paperSeeds))]
}
