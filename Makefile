# mpclogic build / verification entry points. `make verify` is the
# gate every change must pass: it compiles the module, runs go vet,
# the full test suite (including the determinism regression tests,
# the fault, Byzantine and transport matrices, and every experiment)
# once, the race detector, the suite again on the vouchcheck build,
# and the repo-specific mpclint analyzers.
# No target re-runs by name a test `make test` already ran.
# `make verify-perf` additionally guards against benchmark regressions
# relative to the checked-in baseline report.

GO ?= go

# Benchmark harness knobs: BENCHTIME trades precision for wall time,
# BENCH_BASELINE names the checked-in report that verify-perf compares
# against, MAX_REGRESS is the allowed ns/op slowdown factor. The ns/op
# factor is loose because shared CI hardware shows >1.4x run-to-run
# scheduler noise at this BENCHTIME; benchdiff separately holds
# allocs/op to a tight factor and domain metrics (maxload, totalcomm)
# to exact equality, which noise cannot excuse.
BENCHTIME ?= 0.5s
BENCHCOUNT ?= 3
BENCH_BASELINE ?= BENCH.json
# MAX_REGRESS also bounds the incremental-maintenance benchmarks'
# (Bench*Maintain) facts/sec series, which is higher-is-better:
# benchdiff fails when throughput drops below baseline/MAX_REGRESS.
MAX_REGRESS ?= 1.6
# Receiver-side routing verification is sampled (stride 16 in the
# *Verified benchmarks), so its true cost is a few percent (measured
# x0.99-1.20 on a quiet host). The bound is a ratio of two noisy
# measurements, so it needs roughly double MAX_REGRESS's headroom;
# the regressions it exists to catch — verification accidentally going
# per-fact, or sorting every outbox to enumerate it — measure x1.65+.
MAX_OVERHEAD ?= 1.4

# Per-target budget for the coverage-guided fuzzing pass in `make
# verify`. The checked-in corpora under */testdata/fuzz always replay
# as plain unit tests regardless of this knob; the budget only bounds
# how long each fuzzer searches for NEW inputs.
FUZZTIME ?= 5s

# Wall-clock budget for the sustained-update soak (`make soak`). The
# soak test runs under `make test` too, at a tiny built-in budget.
SOAKTIME ?= 60s

# Worker count for the experiment sweep (cmd/experiments -parallel).
# 0 means GOMAXPROCS. The sweep's stdout is byte-identical for every
# value — a tier-1 test asserts it — so this knob only trades wall
# time.
SWEEPPROCS ?= 0

# Coverage gate: the guarded packages and the checked-in floor file.
# `make cover` fails when a guarded package drops more than the slack
# below its recorded floor; `make cover-baseline` locks in the current
# measurement. The recovery stack is guarded, and so is the algorithm
# layer (core's menu, gym, hypercube, datalog, mapreduce, cq, pc): a PR
# that deletes a duplicate there must not take the only covered path
# with it. So is the tuple-set substrate (rel) every byte-identity gate
# rests on.
COVER_PKGS ?= ./internal/core ./internal/mpc ./internal/transducer ./internal/mpcd ./internal/mpcd/loadgen ./internal/policy ./internal/mpcnet ./internal/gym ./internal/hypercube ./internal/datalog ./internal/mapreduce ./internal/cq ./internal/pc ./internal/rel
COVER_BASELINE ?= COVERAGE.json

.PHONY: all build vet test race vouchcheck lint netsweep verify fmt fuzz serve serve-soak bench-build bench bench-json verify-perf nightly soak experiments cover cover-baseline

all: verify

build:
	$(GO) build ./...

# vet is the static pass: go vet, and gofmt as a gate — any file
# `make fmt` would rewrite is named and fails the target.
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; test -z "$$unformatted" || { echo "gofmt: these files need make fmt:"; echo "$$unformatted"; exit 1; }

test:
	$(GO) test ./...

# The race pass runs -short: the seeded fault matrix, schedule sweeps,
# and exhaustive exploration trim themselves under -short, and all run
# at full size (race-free but exhaustively) in the plain `test` pass
# above. The nightly job repeats race at full size.
race:
	$(GO) test -race -short ./...

# vouchcheck runs the suite on the build that checks every vouched
# append when it happens — AddDistinct, UnionDistinct, AbsorbNew's push
# and the wire decoder's ascending run — panicking on a duplicate at its
# call site instead of at the relation's next table build. Appends and
# by-reference adoptions that trust a caller's word are held to it; the
# default build compiles the check out.
vouchcheck:
	$(GO) test -tags vouchcheck ./...

# netsweep drives the installed binary end to end, wider than the
# transport tests `make test` runs: the five programs on their home
# workloads, the (workload, algorithm) pairs only the simulator could
# run before the menus merged, and a planner-chosen plan, each at
# p ∈ {2,4,8}, must
# print the same report bytes over local and tcp; and a SIGKILL-recovery
# run at each of the tc program's four rounds must be indistinguishable
# from the undisturbed reference.
netsweep:
	$(GO) build -o .mpcrun_sweep ./cmd/mpcrun
	set -e; for flags in "-algo tc" "-algo cascade" "-algo hypercube" "-algo yannakakis" "-algo gym" \
	    "-workload join -algo repartition" "-workload join -algo grouping -skew 0.5" \
	    "-workload chain -algo yannakakis" "-workload triangle -algo hypercube -wcoj" \
	    "-workload triangle -algo gym" "-workload join -skew 0.5"; do \
	  for p in 2 4 8; do \
	    ./.mpcrun_sweep -transport local $$flags -p $$p -m 24 -seed 7 > .net_local.txt; \
	    ./.mpcrun_sweep -transport tcp   $$flags -p $$p -m 24 -seed 7 > .net_tcp.txt; \
	    diff .net_local.txt .net_tcp.txt || { echo "netsweep: $$flags p=$$p diverged"; exit 1; }; \
	  done; \
	done
	./.mpcrun_sweep -transport local -algo tc -p 4 -m 24 -seed 7 > .net_local.txt
	set -e; for r in 0 1 2 3; do \
	  ./.mpcrun_sweep -transport tcp -algo tc -p 4 -m 24 -seed 7 -fail-worker 1 -fail-round $$r > .net_kill.txt; \
	  diff .net_local.txt .net_kill.txt || { echo "netsweep: kill-recovery run at round $$r diverged"; exit 1; }; \
	done
	@rm -f .mpcrun_sweep .net_local.txt .net_tcp.txt .net_kill.txt
	@echo "netsweep: OK"

lint:
	$(GO) run ./cmd/mpclint ./...

fmt:
	gofmt -l -w .

# Each go fuzz engine invocation takes exactly one -fuzz target.
fuzz:
	$(GO) test ./internal/cq -run='^$$' -fuzz='^FuzzParseCQ$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/rel -run='^$$' -fuzz='^FuzzRelation$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/rel -run='^$$' -fuzz='^FuzzFragmentWire$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/policy -run='^$$' -fuzz='^FuzzStoreImage$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/policy -run='^$$' -fuzz='^FuzzCheckpointLog$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sweep -run='^$$' -fuzz='^FuzzSweepMerge$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/pc -run='^$$' -fuzz='^FuzzCoversMatchesReference$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hypercube -run='^$$' -fuzz='^FuzzRelationRoute$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mpcd -run='^$$' -fuzz='^FuzzQueryRequest$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mpcd -run='^$$' -fuzz='^FuzzReplyEncoding$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mpcd -run='^$$' -fuzz='^FuzzCreateSession$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mpcd -run='^$$' -fuzz='^FuzzLoadSnapshot$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/mpcnet -run='^$$' -fuzz='^FuzzControlPlane$$' -fuzztime=$(FUZZTIME)

# serve is the query-daemon gate: the serving-layer unit/property
# suites plus the e2e suite that forks the real mpcd binary (start,
# query, kill-and-resume byte-identity, drain).
serve:
	$(GO) test -count=1 ./internal/mpcd/... ./cmd/mpcd

# bench-build compiles and vets mpcbench (benchmark/, a module of its
# own that `go build ./...` at the root never sees) against the working
# tree, so a change to an exported symbol the benchmark uses fails here
# rather than in the benchmark run. The binary is discarded (bench.sh
# builds its own), so nothing lands under benchmark/.
bench-build:
	cd benchmark && $(GO) vet ./... && $(GO) build -o /dev/null ./...

verify: build vet bench-build test race vouchcheck lint serve fuzz
	@echo "verify: OK"

# experiments regenerates every report on the sweep scheduler.
# Redirect stdout to refresh EXPERIMENTS.md's transcript; stderr
# carries the timing line so the transcript stays worker-count
# independent.
experiments:
	$(GO) run ./cmd/experiments -parallel $(SWEEPPROCS)

# cover runs the coverage gate: statement coverage of the guarded
# packages (COVER_PKGS) must stay within slack of the checked-in floors.
cover:
	$(GO) test -cover $(COVER_PKGS) > .cover_raw.txt || (cat .cover_raw.txt; rm -f .cover_raw.txt; exit 1)
	$(GO) run ./cmd/coverfloor -baseline $(COVER_BASELINE) .cover_raw.txt
	@rm -f .cover_raw.txt

cover-baseline:
	$(GO) test -cover $(COVER_PKGS) > .cover_raw.txt || (cat .cover_raw.txt; rm -f .cover_raw.txt; exit 1)
	$(GO) run ./cmd/coverfloor -baseline $(COVER_BASELINE) -write .cover_raw.txt
	@rm -f .cover_raw.txt

# nightly is the scheduled deep pass (.github/workflows/nightly.yml):
# full-size race run, longer fuzzing, the benchmark-regression gate,
# and the complete SCHED / CHAOS / FAULTMPC experiment sweeps on the
# parallel scheduler.
nightly: verify
	$(GO) test -race ./...
	$(MAKE) netsweep
	$(MAKE) verify-perf
	$(MAKE) soak
	$(GO) run ./cmd/experiments -parallel $(SWEEPPROCS) -run SCHED-exhaustive
	$(GO) run ./cmd/experiments -parallel $(SWEEPPROCS) -run CHAOS-matrix
	$(GO) run ./cmd/experiments -parallel $(SWEEPPROCS) -run FAULTMPC-matrix
	$(GO) run ./cmd/experiments -parallel $(SWEEPPROCS) -run BYZ-matrix
	$(GO) run ./cmd/experiments -parallel $(SWEEPPROCS) -run INCR-maintenance
	$(MAKE) serve-soak
	@echo "nightly: OK"

# soak streams mixed-size update batches at a maintained view for
# SOAKTIME, re-verifying byte-identity against from-scratch evaluation
# after every epoch.
soak:
	MPC_SOAK=$(SOAKTIME) $(GO) test -run 'TestSustainedUpdateSoak' -v .

# serve-soak drives thousands of seeded sessions at an in-process
# daemon across multiple epochs: mpcload exits nonzero if any epoch's
# digest diverges (nondeterminism) or reuse stops beating the
# always-repartition baseline on total communication.
SERVE_SOAK_SESSIONS ?= 2000
serve-soak:
	$(GO) run ./cmd/mpcload -sessions $(SERVE_SOAK_SESSIONS) -queries 24 -workers 16 -seed 7 -epochs 3

bench:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) .

# bench-json regenerates the checked-in baseline report, the one
# baseline there is. The raw benchmark output goes through an
# intermediate file so a failing benchmark run aborts the target
# instead of feeding benchjson an empty pipe.
# Benchmarks repeat BENCHCOUNT times; benchjson keeps each one's
# fastest run, the noise-robust estimate on shared hardware. The
# benchmarks that live next to the code they measure (the compiled
# HyperCube router, mpcd's single-pass repartition, its whole
# repartitioning op, its warm reused query and its whole restart — save,
# load, first reply — one repartition of a replicated layout in mpc
# alone, one exchange over the TCP
# transport, the 12-round distributed run, the covers decision of a
# cold serving query, the one-round bulk distributed run, a relation's
# sorted enumeration, a fragment decode — its tuples in no order, and
# ascending as a dealt share arrives — the join index, built fresh
# and maintained under a delta, and generating the triangle and join
# inputs) are appended to the
# root package's (the incremental-maintenance series, facts/sec and
# per-batch deltacomm/rounds, and what a fault-tolerance Option costs a
# fault-free run among them).
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) . > .bench_raw.txt
	$(GO) test -run='^$$' -bench='^(BenchmarkGridTargets|BenchmarkRepartition|BenchmarkRepartitionOp|BenchmarkReuse|BenchmarkRestart|BenchmarkRouteRound|BenchmarkExchangeTCP|BenchmarkRunRounds|BenchmarkCoversServing|BenchmarkCoversAtGate|BenchmarkRunBulk|BenchmarkDeal|BenchmarkTuples|BenchmarkDecodeInstance|BenchmarkDecodeAscending|BenchmarkHashJoin|BenchmarkGenerate)$$' -benchmem -benchtime=$(BENCHTIME) -count=$(BENCHCOUNT) ./internal/hypercube ./internal/mpcd ./internal/mpc ./internal/mpcnet ./internal/pc ./internal/rel ./internal/workload >> .bench_raw.txt
	$(GO) run ./cmd/benchjson -out $(BENCH_BASELINE) .bench_raw.txt
	@rm -f .bench_raw.txt
	@echo "bench-json: wrote $(BENCH_BASELINE)"

# verify-perf runs the benchmarks fresh — bench-json's own list, written
# to the throwaway BENCH_head.json — and fails when any ns/op regressed
# more than MAX_REGRESS times the checked-in baseline, any allocs/op
# more than benchdiff's tight factor, or any domain metric at all. The
# diff also pairs each *Verified benchmark with its unverified twin
# inside the fresh report and bounds the routing-verification overhead.
verify-perf:
	$(MAKE) bench-json BENCH_BASELINE=BENCH_head.json
	$(GO) run ./cmd/benchdiff -max-regress $(MAX_REGRESS) -overhead-suffix Verified -max-overhead $(MAX_OVERHEAD) $(BENCH_BASELINE) BENCH_head.json
