# CI entry points for the SenSmart reproduction.
#
#   make ci             everything CI runs: format check, vet, build,
#                       race-enabled tests (incl. the trace-driven kernel
#                       suite), coverage floors, and a short run of every
#                       fuzz target
#   make test           race-enabled test suite, the image-adoption and fork
#                       tests ten more times under -race (forks share their
#                       parent's pages and blocks across goroutines), then
#                       the suite again as a GOARCH=386 build (without
#                       -race, which 386 lacks), so tests of integer widths
#                       run where int has 32 bits
#   make cover          enforce statement-coverage floors on kernel, mcu,
#                       and the profiler
#   make fuzz           run every fuzz target for FUZZTIME (default 10s) each
#   make bench          regenerate BENCH_energy.json and BENCH_warmstart.json
#                       (host time is measured by bench/run.sh, see
#                       bench/README.md)
#   make checkpoint     race-enabled checkpoint/restore smoke: snapshot a
#                       running two-task workload mid-run with sensmart-sim,
#                       then restore the blob and run it to completion
#   make debug          race-enabled time-travel smoke: scripted sensmart-sim
#                       -debug seek+dump session, and a fault campaign whose
#                       output must embed forensic reports
#   make bench-smoke    the repository benchmark's own tests, then a short
#                       seed-1 run of each of its workloads, which must check
#                       correct against bench/golden/ with no failed job
#   make bench-golden   regenerate every workload's seed-1 result lines and
#                       compare them byte for byte with bench/golden/
#   make paper-golden   regenerate the paper's evaluation (-exp all) and the
#                       two BENCH payloads, with a native and a GOARCH=386
#                       build, and compare each byte for byte with
#                       cmd/sensmart-bench/testdata/exp_all.txt,
#                       BENCH_energy.json and BENCH_warmstart.json

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

.PHONY: ci build vet test cover fmt-check fuzz bench checkpoint debug bench-smoke bench-golden paper-golden

ci: fmt-check vet build test cover fuzz checkpoint debug bench-smoke bench-golden paper-golden

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Adopt|Fork' ./internal/mcu ./internal/core
	GOARCH=386 $(GO) test ./...

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
# single target per run), each for FUZZTIME. Go's fuzzer minimises each new
# interesting input for up to 60 s by default and counts no execs meanwhile,
# which would spend a short window on large inputs (snapshots, images)
# minimising; 20 attempts per input keep it fuzzing.
fuzz:
	@set -e; for f in $$(grep -rlE '^func Fuzz' --include='*_test.go' internal cmd); do \
		for name in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' $$f); do \
			echo "fuzz ./$$(dirname $$f) $$name"; \
			$(GO) test ./$$(dirname $$f) -run "^$$name\$$" -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 20x; \
		done; \
	done

# The committed BENCH payloads are goldens: every byte is simulated, so
# paper-golden regenerates each with these flags and compares it.
BENCH_ENERGY_FLAGS = -exp energy -activations 300 -quiet
BENCH_WARMSTART_FLAGS = -exp warmstart -quiet

bench:
	$(GO) run ./cmd/sensmart-bench $(BENCH_ENERGY_FLAGS) -out BENCH_energy.json
	$(GO) run ./cmd/sensmart-bench $(BENCH_WARMSTART_FLAGS) -out BENCH_warmstart.json

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

# Race-enabled time-travel smoke. First a scripted -debug session: record a
# two-task workload under the checkpoint ring, then seek to the boot state, a
# boot-fallback cycle, and a ring-restored cycle, dumping every section kind.
# Then a short campaign whose output must embed at least one forensic report
# (seed 2 produces non-contained verdicts); TestFaultCampaignCoversSuite
# checks that every trial owing one carries one. Seek identity itself is
# pinned by TestSeekIdentitySerial and TestSeekIdentityPooled in `make test`.
debug:
	$(GO) run -race ./cmd/sensmart-sim -debug -cycles 2000000 -copies 2 \
		-ring 4 -ring-every 200000 -at 0 -at 600000 -at 1999999 \
		-dump regs,stack,mem:0x100+16,tasks,energy,events \
		cmd/sensmart-sim/testdata/checkpoint_smoke.s
	$(GO) run -race ./cmd/sensmart-bench -exp faultcampaign -seed 2 -trials 3 \
		-out /tmp/BENCH_debug_forensics.json
	grep -q '"forensics"' /tmp/BENCH_debug_forensics.json

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

# Paper golden: one golden per simulated artifact. Every table and figure of
# the paper's evaluation (-exp all at the settings EXPERIMENTS.md cites:
# Table I-II, Figures 4-8, the overhead and hotspot tables; about 5 s) and
# both committed BENCH payloads (energy and warm-start, under a second) are
# regenerated and compared byte for byte with the committed files, so a
# change that moves any simulated number fails here and shows the move as a
# diff. The outputs depend on neither -parallel nor the host. The check runs
# twice, with a native build and with a GOARCH=386 one, so word size cannot
# move a number either. A change that means to move a number regenerates the
# files with
#   go run ./cmd/sensmart-bench -exp all -activations 300 -budget 40000000 \
#       -parallel 2 -quiet > cmd/sensmart-bench/testdata/exp_all.txt
#   make bench
# and says why in CHANGES.md.
PAPER_GOLDEN_FLAGS = -exp all -activations 300 -budget 40000000 -parallel 2 -quiet

paper-golden:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	for arch in $$($(GO) env GOARCH) 386; do \
		GOARCH=$$arch $(GO) build -o "$$tmp/sensmart-bench" ./cmd/sensmart-bench; \
		"$$tmp/sensmart-bench" $(PAPER_GOLDEN_FLAGS) > "$$tmp/exp_all.txt"; \
		"$$tmp/sensmart-bench" $(BENCH_ENERGY_FLAGS) -out "$$tmp/BENCH_energy.json" > /dev/null; \
		"$$tmp/sensmart-bench" $(BENCH_WARMSTART_FLAGS) -out "$$tmp/BENCH_warmstart.json" > /dev/null; \
		cmp "$$tmp/exp_all.txt" cmd/sensmart-bench/testdata/exp_all.txt; \
		cmp "$$tmp/BENCH_energy.json" BENCH_energy.json; \
		cmp "$$tmp/BENCH_warmstart.json" BENCH_warmstart.json; \
		echo "paper-golden $$arch: exp_all.txt ($$(wc -l < "$$tmp/exp_all.txt") lines), BENCH_energy.json and BENCH_warmstart.json identical"; \
	done
