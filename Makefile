# Tier-1 verification loop for the Tripwire reproduction.
#
#   make build       compile everything
#   make test        the seed tier-1 gate (build + tests)
#   make race        full suite under the race detector
#   make ci          what a PR must pass: build, gofmt (no file may need
#                    formatting), vet, race tests, an arm64 cross-build (the
#                    strong hash's portable path), snapshot/browser-resolve/
#                    crawler/epoch-equivalence/scheduler-order/strong-digest/
#                    login-record/cold-segment/seal/IMAP-credential/SMTP-
#                    session fuzz corpora as seed tests, resume byte-identity
#                    smoke (workers grid incl. 8, the
#                    stop checkpoint, a spill read failure failing the
#                    checkpoint and the resume, streamed section digests
#                    equal to their images, the pinned per-section
#                    checkpoint golden, every subsystem's section
#                    image moving under single mutations and only then,
#                    login logs that seal alike whatever order they met
#                    their accounts in, and a monitor fed a spilling
#                    provider's dumps ending where a ledger lookup per login
#                    ends, under -race),
#                    the 16-worker invariance smoke over crawl waves and
#                    timeline epochs (under -race), the inline-session conn
#                    contract, memconn.Serve over a net.Pipe and the
#                    IMAP/POP3/SMTP transcript tests under a 60 s timeout
#                    (a read that blocks fails the run, under -race), the
#                    browser's concurrent storage-borrowing
#                    test and the crawler's concurrent attempts on one
#                    Crawler against a serial run (-race -count=10), the 1M-account
#                    lazy-store smoke (-short, under -race), the serve
#                    smoke (boot tripwire-serve, pause/resume a study over
#                    HTTP, require an SSE detection + a signed webhook
#                    delivery, under -race), the distributed-sweep smoke
#                    (coordinator + two in-process workers over loopback
#                    HTTP, byte-identity incl. a worker killed mid-seed,
#                    under -race), bench smoke (BENCH_PKGS, the 8-worker
#                    crawl, BenchmarkPopFrontier, BenchmarkMonitorIngest
#                    and BenchmarkStuffLogin at one iteration each), vet
#                    and tests of the end-to-end benchmark module in
#                    bench/ (its own
#                    module, outside the root ./...), and the
#                    overhead/alloc/heap gates
#   make bench       parallel crawl engine benchmark (1/4/8/16 workers, plus
#                    the lazy 10k-universe variant)
#   make bench-json  run the hot-path benchmarks and write BENCH_crawl.json
#                    (ns/op, allocs/op, pages/s) with BENCH_baseline.json
#                    embedded for before/after comparison
#   make fuzz        short fuzzing sessions: the crawler heuristics (30 s),
#                    the event queue's order and the epoch engine's serial
#                    equivalence (10 s each; simclock's leakcheck TestMain
#                    must still pass after fuzzing), and an SMTP session fed
#                    arbitrary client bytes inline and over ServeConn (10 s)
#   make metrics-doc-check  every registered metric name appears in DESIGN.md
#   make bench-overhead     CPU-bound crawl batches with metrics on vs off,
#                           alternating in one run; fails if the median
#                           batch pair's CPU grows >3% or allocs/wave grows
#   make bench-compare      fresh benchmark sweep diffed against
#                           BENCH_baseline.json; fails if any benchmark's
#                           allocs/op grew >5% (ns/op stays informational)
#                           or any memory-envelope figure grew >5%
#                           (heap-MB: the lazy 10k wave and the 1M-site /
#                           10M-account heap envelopes; ckpt-full-KB: the
#                           size of a written checkpoint file;
#                           allocs/event: the timeline engine's per-event
#                           allocation rate)

GO ?= go

# Packages with per-component hot-path benchmarks (tokenize/parse/classify/
# serve). The end-to-end crawl benchmark lives in ./internal/sim/ and runs
# with a smaller iteration count because one iteration is a full wave.
BENCH_PKGS = ./internal/htmldom/ ./internal/crawler/ ./internal/webgen/ ./internal/emailprovider/

# The full tracked benchmark sweep, shared by bench-json (records it) and
# bench-compare (gates on it). Fixed -benchtime everywhere keeps allocs/op
# bit-for-bit reproducible: amortized setup allocations divide by the same
# iteration count in every run, so baseline diffs are exact.
define BENCH_RUN
{ $(GO) test -run xxx -bench . -benchmem -benchtime 1000x $(BENCH_PKGS) ; \
  $(GO) test -run xxx -bench BenchmarkParallelCrawl -benchmem -benchtime 2x ./internal/sim/ ; \
  $(GO) test -run xxx -bench BenchmarkTimeline -benchmem -benchtime 1x ./internal/sim/ ; \
  $(GO) test -run xxx -bench BenchmarkHeapEnvelope -benchmem -benchtime 1x ./internal/sim/ ; \
  $(GO) test -run xxx -bench BenchmarkCheckpoint -benchmem -benchtime 1x ./internal/sim/ ; \
  $(GO) test -run xxx -bench BenchmarkSweep -benchmem -benchtime 1x ./internal/sweep/ ; \
  $(GO) test -run xxx -bench BenchmarkDistSweep -benchmem -benchtime 1x ./internal/distsweep/ ; }
endef

.PHONY: build test race ci bench bench-json fuzz metrics-doc-check bench-overhead bench-compare

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci: build metrics-doc-check
	@unformatted=$$(gofmt -l .); [ -z "$$unformatted" ] || { echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) test -run Fuzz ./internal/snapshot/ ./internal/crawler/ ./internal/simclock/ ./internal/browser/ ./internal/webgen/ ./internal/emailprovider/ ./internal/loginrec/ ./internal/imap/ ./internal/mailserv/
	$(GO) test -race -run 'TestResumeByteIdentical|TestStopCheckpoint|TestStudyCheckpointResume|TestSpillFailureFailsCheckpoint|TestStreamedDigestsMatchImages|TestCheckpointSectionGolden|SectionTracksMutations|TestUniverseExportTracksMaterialization|TestSealIgnoresInternOrder|TestIngestMatchesLedgerAttribution' ./internal/sim/ . ./internal/core/ ./internal/emailprovider/ ./internal/loginrec/ ./internal/attacker/ ./internal/webgen/
	$(GO) test -race -run 'TestTimelineWorkerInvariance/workers=16' ./internal/sim/
	$(GO) test -race -timeout 60s ./internal/memconn/ ./internal/imap/ ./internal/pop3/ ./internal/mailserv/
	$(GO) test -race -count=10 -run 'TestConcurrentSessionsRecycleStorage|TestConcurrentAttemptsMatchSerial' ./internal/browser/ ./internal/crawler/
	$(GO) test -race -short -run 'TestLazyMillionAccountSmoke|TestCheckpointDigestAttestation' ./internal/sim/
	$(GO) test -race -run 'TestServeSmoke' ./cmd/tripwire-serve/
	$(GO) test -race -run 'TestDistSweepByteIdentical|TestDistSweepWorkerLossByteIdentical' ./internal/distsweep/
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run xxx -bench . -benchtime 1x $(BENCH_PKGS)
	$(GO) test -run xxx -bench 'BenchmarkParallelCrawl$$/workers=8' -benchtime 1x ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkPopFrontier|BenchmarkMonitorIngest|BenchmarkStuffLogin' -benchtime 1x ./internal/simclock/ ./internal/core/ ./internal/attacker/
	$(MAKE) bench-overhead
	$(MAKE) bench-compare

# Every metric name registered anywhere in the tree must be documented in
# DESIGN.md's Observability inventory, so the docs can't silently rot.
metrics-doc-check:
	@missing=0; \
	for name in $$(grep -rhoE '"tripwire_[a-z0-9_]+"' internal cmd | tr -d '"' | sort -u); do \
	  grep -q "$$name" DESIGN.md || { echo "metrics-doc-check: $$name not documented in DESIGN.md"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] && echo "metrics-doc-check: all registered metric names documented"

# Same-run A/B on CPU, not emulated sleep: BenchmarkMetricsOverhead crawls
# the same batches at one worker with no latency, metrics off and on in
# alternation; the median batch pair's CPU with metrics on must stay within
# 3% of metrics off, and the metered waves must not allocate more. With 20
# iterations (~900 batch pairs) ten consecutive runs on a shared 2-CPU VM
# read +0.3% to +1.9%, and a 10% CPU tax injected into the metered path
# read +9.6% to +10.5%.
bench-overhead: build
	$(GO) test -run xxx -bench 'BenchmarkMetricsOverhead$$' -benchtime 20x ./internal/sim/ \
	 | $(GO) run ./cmd/tripwire-bench -assert-overhead 3 -out /dev/null

bench:
	$(GO) test -run xxx -bench BenchmarkParallelCrawl -benchtime 3x ./internal/sim/

bench-json: build
	@$(BENCH_RUN) \
	 | $(GO) run ./cmd/tripwire-bench -baseline BENCH_baseline.json -out BENCH_crawl.json \
	     -note "hot-path run vs seed baseline; crawl workers grid 1/4/8/16 on the 2.3k universe plus the lazy 10k-universe wave, timeline engine events/s, allocs/event, cpu-s/event and scaling-eff at 1/4/8/16 workers, multi-seed sweep seeds/s (in-process pool and distributed coordinator/worker over loopback HTTP), the 1M-site and 10M-account spilled-log heap envelopes (heap-MB), and the size of a written checkpoint file (ckpt-full-KB); allocs/op, post-GC live heap, and checkpoint bytes are deterministic, ns/op on shared hardware is noisy"
	@echo "wrote BENCH_crawl.json"

# Regression gates: re-run the tracked sweep and diff the deterministic
# allocs/op figures and the post-GC live-heap figures (heap-MB) against
# BENCH_baseline.json. Benchmarks newer than the baseline are skipped
# until the baseline is regenerated.
bench-compare: build
	@$(BENCH_RUN) \
	 | $(GO) run ./cmd/tripwire-bench -baseline BENCH_baseline.json -assert-allocs 5 -assert-heap 5 -out /dev/null

fuzz:
	$(GO) test -fuzz FuzzFieldHeuristics -fuzztime 30s ./internal/crawler/
	$(GO) test -run XXX -fuzz FuzzSchedulerOrder -fuzztime 10s ./internal/simclock/
	$(GO) test -run XXX -fuzz FuzzEpochEquivalence -fuzztime 10s ./internal/simclock/
	$(GO) test -run XXX -fuzz FuzzSMTPSession -fuzztime 10s ./internal/mailserv/
