# CI entry points for the SenSmart reproduction.
#
#   make ci             everything CI runs: format check, vet, build,
#                       race-enabled tests (incl. the trace-driven kernel
#                       suite), coverage floors, and a short run of every
#                       fuzz target
#   make test           race-enabled test suite only
#   make cover          enforce statement-coverage floors on kernel, mcu,
#                       and the profiler
#   make fuzz           run every fuzz target for FUZZTIME (default 10s) each
#   make bench          regenerate BENCH_energy.json and BENCH_interp.json
#   make bench-interp   regenerate BENCH_interp.json (checked vs default
#                       two-tier interpreter throughput) and gate it against
#                       the committed BENCH_interp.baseline.json
#   make bench-diff     diff BENCH_interp.json against the committed
#                       baseline with the schema-aware comparator; fails on
#                       out-of-band regressions
#   make faultcampaign  short race-enabled fault-injection campaign smoke:
#                       runs the seeded campaign over the full benchmark
#                       suite and writes a report to a scratch path
#   make checkpoint     race-enabled checkpoint/restore smoke: snapshot a
#                       running two-task workload mid-run with sensmart-sim,
#                       then restore the blob and run it to completion
#   make energy         race-enabled energy smoke: short -exp energy run
#                       (kernel benchmarks + baselines on the joules axis)
#                       to a scratch path, verdict table printed
#   make debug          race-enabled time-travel smoke: scripted sensmart-sim
#                       -debug seek+dump session, a campaign run that must
#                       embed forensic reports, and a comparator pass over
#                       the forensic-bearing output
#   make bench-smoke    the repository benchmark's own tests, then a short
#                       seed-1 run of each of its workloads, which must check
#                       correct against bench/golden/ with no failed job
#   make bench-golden   regenerate every workload's seed-1 result lines and
#                       compare them byte for byte with bench/golden/

GO ?= go
FUZZTIME ?= 10s

# Statement-coverage floors for the cycle-accounting core. Measured 83.1%
# (kernel) and 75.8% (mcu) when introduced; floors sit a few points below so
# incidental drift doesn't break CI, while gutting the trace/cost suites does.
# The profiler floor is the ISSUE-mandated 75% (measured 93.6% when
# introduced).
KERNEL_COVER_FLOOR = 78
MCU_COVER_FLOOR = 70
PROFILE_COVER_FLOOR = 75
TELEMETRY_COVER_FLOOR = 75
# Campaign-engine floor is the ISSUE-mandated 75% (measured 89.7% when
# introduced).
FAULTINJECT_COVER_FLOOR = 75
# Snapshot-codec floor is the ISSUE-mandated 75% (measured 99.5% when
# introduced: the round-trip, rejection, golden, and fuzz suites cover the
# whole codec).
SNAPSHOT_COVER_FLOOR = 75
# Energy-ledger and trace floors are the ISSUE-mandated 75% (measured 100%
# and 93.6% when introduced).
ENERGY_COVER_FLOOR = 75
TRACE_COVER_FLOOR = 75
# Time-travel debugger floor is the ISSUE-mandated 75% (measured 87.2% when
# introduced).
TIMETRAVEL_COVER_FLOOR = 75

.PHONY: ci build vet test cover fmt-check fuzz bench bench-interp bench-diff faultcampaign checkpoint energy debug bench-smoke bench-golden

ci: fmt-check vet build test cover fuzz bench-interp bench-diff faultcampaign checkpoint energy debug bench-smoke bench-golden

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

cover:
	@set -e; \
	check() { \
		pct=$$($(GO) test -cover $$1 | awk '{for(i=1;i<=NF;i++) if ($$i=="coverage:") print $$(i+1)}' | tr -d '%'); \
		if [ -z "$$pct" ]; then echo "$$1: no coverage reported"; exit 1; fi; \
		echo "$$1 coverage: $$pct% (floor $$2%)"; \
		awk -v p="$$pct" -v f="$$2" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' \
			|| { echo "$$1 coverage $$pct% fell below the $$2% floor"; exit 1; }; \
	}; \
	check ./internal/kernel $(KERNEL_COVER_FLOOR); \
	check ./internal/mcu $(MCU_COVER_FLOOR); \
	check ./internal/profile $(PROFILE_COVER_FLOOR); \
	check ./internal/telemetry $(TELEMETRY_COVER_FLOOR); \
	check ./internal/faultinject $(FAULTINJECT_COVER_FLOOR); \
	check ./internal/snapshot $(SNAPSHOT_COVER_FLOOR); \
	check ./internal/energy $(ENERGY_COVER_FLOOR); \
	check ./internal/trace $(TRACE_COVER_FLOOR); \
	check ./internal/timetravel $(TIMETRAVEL_COVER_FLOOR)

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Every fuzz target in the module, one at a time (go test -fuzz takes a
# single target per run), each for FUZZTIME.
fuzz:
	@set -e; for f in $$(grep -rlE '^func Fuzz' --include='*_test.go' internal cmd); do \
		for name in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' $$f); do \
			echo "fuzz ./$$(dirname $$f) $$name"; \
			$(GO) test ./$$(dirname $$f) -run "^$$name\$$" -fuzz "^$$name\$$" -fuzztime $(FUZZTIME); \
		done; \
	done

bench:
	$(GO) run ./cmd/sensmart-bench -exp energy -activations 300 -out BENCH_energy.json
	$(MAKE) bench-interp

# The interp gate is host-relative where it can be: the suite-aggregate
# checked/fused speedup of the default two-tier run over the stepwise Step
# path must stay >= 1.5x (the floor raised when translation landed). Every
# mode must simulate identical cycles, the armed telemetry/energy passes
# must stay under 1% overhead, and a wide tolerance band on the absolute
# MIPS floor keeps a slower CI host from flaking the build.
bench-interp:
	$(GO) run ./cmd/sensmart-bench -exp interp -reps 5 -out BENCH_interp.json -baseline BENCH_interp.baseline.json -min-total 1.5

# Schema-aware cross-run diff of the freshly generated interp numbers
# against the committed baseline. The 60% band is deliberately wide for the
# same reason bench-interp's MIPS tolerance is: absolute wall-clock depends
# on the host, and the hard invariants (cycle identity, checked/fused
# speedup, armed-telemetry overhead) are gated by bench-interp itself.
bench-diff:
	$(GO) run ./cmd/sensmart-bench -exp compare -old BENCH_interp.baseline.json -new BENCH_interp.json -tolerance 60

# Race-enabled campaign smoke: 3 trials per benchmark keeps it a few seconds
# while still exercising every injection kind and the full verdict pipeline.
# The golden 20-trial table is pinned by TestGoldenContainmentTable in
# `make test`; this target proves the CLI path end to end under -race.
faultcampaign:
	$(GO) run -race ./cmd/sensmart-bench -exp faultcampaign -seed 1 -trials 3 -out /tmp/BENCH_faultcampaign_smoke.json

# Race-enabled CLI checkpoint/restore smoke: snapshot a two-task workload
# mid-run, then resume the written blob to completion. Resume identity (every
# kernel benchmark and the two-task mix, every checkpoint kind, in-memory and
# wire-format restores, under an 8-way pool) is pinned by
# TestResumeIdentitySerial and TestResumeIdentityPooled in `make test`; this
# target proves the sim's -checkpoint/-restore path end to end under -race.
checkpoint:
	$(GO) run -race ./cmd/sensmart-sim -cycles 40000000 -copies 2 -stats \
		-checkpoint-at 500000 -checkpoint /tmp/sensmart_checkpoint_smoke.ssnp \
		cmd/sensmart-sim/testdata/checkpoint_smoke.s
	$(GO) run -race ./cmd/sensmart-sim -cycles 40000000 -copies 2 -stats \
		-restore /tmp/sensmart_checkpoint_smoke.ssnp \
		cmd/sensmart-sim/testdata/checkpoint_smoke.s

# Race-enabled energy smoke: a short joules-axis run (10 activations instead
# of the committed file's 300) to a scratch path. The byte-identity of the
# full run between serial and parallel pools is pinned by
# TestEnergyBenchDeterministic in `make test`; this target proves the CLI
# path and the baseline-ordering verdict end to end under -race.
energy:
	$(GO) run -race ./cmd/sensmart-bench -exp energy -activations 10 -quiet \
		-out /tmp/BENCH_energy_smoke.json

# Race-enabled time-travel smoke. First a scripted -debug session: record a
# two-task workload under the checkpoint ring, then seek to the boot state, a
# boot-fallback cycle, and a ring-restored cycle, dumping every section kind.
# Then a short campaign whose output must embed at least one forensic report
# (seed 2 produces non-contained verdicts), self-compared through the
# schema-aware comparator so the forensic_coverage row is exercised end to
# end. Seek identity itself is pinned by TestSeekIdentitySerial and
# TestSeekIdentityPooled in `make test`.
debug:
	$(GO) run -race ./cmd/sensmart-sim -debug -cycles 2000000 -copies 2 \
		-ring 4 -ring-every 200000 -at 0 -at 600000 -at 1999999 \
		-dump regs,stack,mem:0x100+16,tasks,energy,events \
		cmd/sensmart-sim/testdata/checkpoint_smoke.s
	$(GO) run -race ./cmd/sensmart-bench -exp faultcampaign -seed 2 -trials 3 \
		-out /tmp/BENCH_debug_forensics.json
	grep -q '"forensics"' /tmp/BENCH_debug_forensics.json
	$(GO) run ./cmd/sensmart-bench -exp compare -old /tmp/BENCH_debug_forensics.json \
		-new /tmp/BENCH_debug_forensics.json -tolerance 5

# Repository-benchmark smoke. bench/ is a module of its own, so the root
# `go test ./...` skips its tests; run them here. Then run every workload for
# two seconds at seed 1, where each job's result line (simulated cycles,
# instructions, verdicts, landed-state hashes, snapshot digests) is checked
# against bench/golden/: a host-only change must leave them all equal. The
# last line a run prints is its JSON result, whose keys are sorted.
BENCH_WORKLOADS = fig5 fig7 campaign seek

bench-smoke:
	cd bench && $(GO) test ./...
	@set -e; for w in $(BENCH_WORKLOADS); do \
		line="$$(bash bench/run.sh --workload $$w --seed 1 --seconds 2 | tail -n 1)"; \
		case "$$line" in \
		*'"correct":true,"failed":0,'*) echo "bench-smoke $$w: correct, 0 failed";; \
		*) echo "bench-smoke $$w: $$line"; exit 1;; \
		esac; \
	done

# Full golden check. bench-smoke's two-second windows check only the jobs
# they reach (about 100 of fig5's 800 result lines, 400 of campaign's 1500);
# this regenerates every seed-1 line of every workload (about a minute) and
# compares it with the committed file, so a host-only change that moves any
# simulated result fails here.
bench-golden:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for w in $(BENCH_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seed 1 --write-golden "$$tmp/$$w.txt"; \
		cmp "$$tmp/$$w.txt" bench/golden/$$w.seed1.txt; \
		echo "bench-golden $$w: $$(wc -l < "$$tmp/$$w.txt") lines identical"; \
	done
