# Tier-1 gate: everything a change must keep green before merging.
# `make` or `make check` runs vet + build + full tests, then the race
# detector over the slot engine's worker crew (internal/interconnect) and
# the packages around it,
# then `bench-repo`: the repository benchmark's own tests and a -quick pass
# of every path it drives (bench/ is a module of its own, so `./...` from
# the root never reaches it).
# CI (.github/workflows/ci.yml) enforces `fmt-check` and `check` on every
# push and pull request, plus short fuzz and benchmark smoke jobs, the
# `serve-smoke` grant-service integration run (wdmserve driven by wdmload
# over loopback) and the bounded `soak-smoke` chaos run (SOAKSLOTS slots,
# all three engines);
# `soak` (SOAKTIME wall-clock budget) is the long form the scheduled
# nightly workflow (.github/workflows/nightly.yml) runs per engine.

GO ?= go
BENCHTIME ?= 1s
FUZZTIME ?= 30s
DIFF_THRESHOLD ?= 1.0
DIFF_MINDELTA ?= 100us
# Benchmark regex and package for `make profile`.
BENCH ?= SwitchRunSlot/k=256-fast$$
PKG ?= .
PROFDIR = .bench_build/prof
SOAKTIME ?= 10m
SOAKSLOTS ?= 20000
# Seed for every soak lane: arrivals, fault chains and selector tie-breaks
# all derive from it, so a failing run's incident bundle replays bit-exact
# with wdmreplay. The nightly workflow sets SOAKSEED from the UTC date so
# each night explores a different trajectory while staying reproducible.
SOAKSEED ?= 1
# Knobs for the `make serve` / `make load` convenience pair.
SERVEADDR ?= 127.0.0.1:9411
LOADCONNS ?= 4
LOADRATE ?= 20000
LOADREQS ?= 100000

.PHONY: check vet build test race fmt fmt-check bench bench-repo fuzz fuzz-short output trace \
	bench-save bench-diff examples-smoke cluster-smoke serve-smoke soak soak-smoke \
	replay-verify serve load top loc profile sim-matrix

check: vet build test race bench-repo

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ./internal/interconnect carries the slot-lock reader hammer
# (TestReadersUnderSlotLock: Snapshot and registry scrapes against a running
# RunSlot loop, sequential and distributed); it is not gated on -short, and
# the data race it guards against is only visible to this target. It runs
# at -cpu 1,2,4 so the distributed engine's crew runs with zero, one and
# three helpers. ./internal/cluster runs at -cpu 1,2: at -cpu 1 the
# controller's blocking reads share one P with the in-process node
# sessions they wait on.
race:
	$(GO) test -race -cpu 1,2,4 ./internal/interconnect
	$(GO) test -race -cpu 1,2 ./internal/cluster
	$(GO) test -race ./internal/core ./internal/telemetry \
		./internal/metrics ./internal/traffic ./internal/soak \
		./internal/grant ./internal/wire

fmt:
	gofmt -l -w .

# Fails (with the offending file list) if any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The repository benchmark (BENCHMARK.json, bench/README.md): its
# estimator, catalogue and output-check tests, then every workload through
# every engine in a few seconds — output checks armed, nothing measured.
# `bash bench/run.sh` alone is the measuring run.
bench-repo:
	cd bench && $(GO) test ./...
	bash bench/run.sh -quick

# Convenience targets (not part of the tier-1 gate).

# `-bench .` includes BenchmarkSwitchRunSlot's dense-holds pair (live
# multi-slot holds on bench/'s dense256 shape) and its uniform16 mode,
# BenchmarkGrantRound's frame1-held case, the frame round trip
# (BenchmarkConnRecv) and a cluster slot over loopback TCP
# (BenchmarkClusterSlot); CI's bench-smoke job runs this at BENCHTIME=1x.
bench:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' . ./internal/grant ./internal/metrics \
		./internal/wire ./internal/cluster

fuzz:
	$(GO) test -fuzz FuzzSeqDistStatsEquivalence -fuzztime $(FUZZTIME) ./internal/interconnect

# Short deterministic-budget fuzz pass used by CI: the scheduler
# equivalence fuzzer (masked degraded instances included), the exact
# schedulers against the Hopcroft–Karp oracle (the masked path whose
# fault scratch is built lazily, and the kernel's reachable-channel
# bound), Theorem 3's gap bound for delta-break, the
# sequential-vs-distributed engine fuzzer, the hold-accounting fuzzer
# (every engine against an independent per-slot busy/hold model), and the
# network edge: the frame envelope under both protocols, the grant
# service's submit ingest and the cluster node's schedule and configure
# decoders. Each line runs its fuzzer alone (-run '^$$'): the unit tests
# run under the test target.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzCircularSchedulersAgree -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzExactSchedulers -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDeltaBreakBound -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSeqDistStatsEquivalence -fuzztime $(FUZZTIME) ./internal/interconnect
	$(GO) test -run '^$$' -fuzz FuzzHoldAccounting -fuzztime $(FUZZTIME) ./internal/interconnect
	$(GO) test -run '^$$' -fuzz FuzzFrame -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzGrantIngest -fuzztime $(FUZZTIME) ./internal/grant
	$(GO) test -run '^$$' -fuzz FuzzNodeSchedule -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzNodeConfig -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) ./internal/traffic

# Append the next point of the perf-trajectory record: engine run-time
# metrics as JSON in BENCH_<n>.json, n = first unused index. Commit the
# file to keep the trajectory in history.
bench-save:
	@n=0; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	$(GO) run ./cmd/wdmbench -engine -json > BENCH_$$n.json && \
	echo "wrote BENCH_$$n.json"

# Bench-regression gate: compare the newest BENCH_<n>.json against
# BENCH_0.json and fail on any duration cell worse by more than
# DIFF_THRESHOLD (fractional) and DIFF_MINDELTA (absolute) at once.
# Records a fresh point first when only the baseline exists.
bench-diff:
	@ls BENCH_[1-9]*.json >/dev/null 2>&1 || $(MAKE) bench-save
	$(GO) run ./cmd/wdmbench -diff -threshold $(DIFF_THRESHOLD) -mindelta $(DIFF_MINDELTA)

# CPU profile of one benchmark at -cpu 2: the flat shares that changes
# quote. The test binary and profile land in .bench_build/prof/
# (gitignored), e.g. `make profile BENCH='SwitchRunSlot/dense-holds$$'`.
profile:
	@mkdir -p $(PROFDIR)
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -cpu 2 \
		-o $(PROFDIR)/bench.test -cpuprofile $(PROFDIR)/cpu.out $(PKG)
	$(GO) tool pprof -top -nodecount 30 $(PROFDIR)/bench.test $(PROFDIR)/cpu.out

# Non-test Go lines outside bench/, the size figure simplicity changes
# quote. Informational, not a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# wdmsim -json over a fixed 59-configuration matrix, one file per
# configuration in OUT (rejected configurations recorded as such); a
# change keeps the simulator's output when `diff -r` against the parent's
# OUT is empty. Not part of `check`.
OUT ?= sim-matrix
sim-matrix:
	bash scripts/sim_matrix.sh $(OUT)

# Execute every example program end to end (they are built by ./... but
# would otherwise never run); any non-zero exit fails the target.
examples-smoke:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d > /dev/null || exit 1; \
	done; echo "examples smoke: all programs exited 0"

# Cluster integration smoke: controller + two wdmnode processes over
# loopback, statistics compared byte-for-byte against the in-process
# engines, live /metrics scrape included.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Grant-service integration smoke: wdmserve driven by wdmload over
# loopback, ledger reconciled byte-exactly against the client report,
# wdm_grant_* telemetry scraped live, clean SIGTERM drain asserted.
serve-smoke:
	bash scripts/serve_smoke.sh

# Serve live traffic locally (ctrl-C / SIGTERM drains gracefully and
# prints the final ledger; see DESIGN.md §15 and README "serving live
# traffic").
serve:
	$(GO) run ./cmd/wdmserve -grant $(SERVEADDR) -listen 127.0.0.1:9480

# Drive a running `make serve` with the open-loop generator; the report
# lands in wdmload_report.json (not committed; see .gitignore).
load:
	$(GO) run ./cmd/wdmload -server $(SERVEADDR) -conns $(LOADCONNS) \
		-rate $(LOADRATE) -requests $(LOADREQS) -o wdmload_report.json

# Live fleet console against a running `make serve` (refreshes until
# interrupted; `wdmtop -once -json` is the scriptable form and what the
# serve-smoke job feeds smokecheck).
top:
	$(GO) run ./cmd/wdmtop -targets 127.0.0.1:9480

# Adversarial chaos soak: all three engines in lockstep on heavy-tailed
# arrivals under Markov channel/converter faults and cluster transport
# faults, invariants checked at every resync point. SOAKTIME caps the
# wall clock (nightly CI runs one engine per matrix leg for longer).
soak:
	$(GO) run ./cmd/wdmsoak -time $(SOAKTIME) -resync 10000 -seed $(SOAKSEED) \
		-engines sequential,distributed,cluster

# Bounded soak for the per-push CI lane: SOAKSLOTS slots, all engines,
# still enough to cross many resync points and exercise the span checks.
soak-smoke:
	$(GO) run ./cmd/wdmsoak -slots $(SOAKSLOTS) -resync 1000 -seed $(SOAKSEED) \
		-engines sequential,distributed,cluster

# End-to-end forensics proof: inject the ledger accounting bug, capture
# the violation as an incident bundle, then replay the bundle alone and
# require the identical violation to re-fire (wdmreplay exit 0). CI runs
# this as the replay-verify job.
replay-verify:
	@rm -f replay-verify.tgz
	@set +e; \
	$(GO) run ./cmd/wdmsoak -slots 8000 -resync 1000 -seed $(SOAKSEED) \
		-engines sequential,distributed -chaosbug ledger \
		-bundle replay-verify.tgz -report ""; \
	status=$$?; set -e; \
	test "$$status" -eq 1 || { echo "chaosbug soak exited $$status, want 1"; exit 1; }
	$(GO) run ./cmd/wdmreplay -verify replay-verify.tgz
	@rm -f replay-verify.tgz

# Regenerate the sample wdmbench output (not committed; see .gitignore).
output:
	$(GO) run ./cmd/wdmbench -quick > wdmbench_output.txt

# Record a short workload and dump its scheduling decisions in both
# formats (not committed; see .gitignore).
trace:
	$(GO) run ./cmd/wdmtrace -gen -o sample.trace.bin -n 8 -k 16 -load 0.9 -slots 1000
	$(GO) run ./cmd/wdmsoak -workload trace -trace sample.trace.bin -n 8 -k 16 -slots 1000 -engines sequential,distributed
	$(GO) run ./cmd/wdmtrace -decisions sample.trace.bin -dump sample.decisions.jsonl
	$(GO) run ./cmd/wdmtrace -decisions sample.trace.bin -format chrome -dump sample.trace.json
