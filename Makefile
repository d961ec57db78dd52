GO ?= go

.PHONY: build test test-race ci chaos scenarios fuzz-smoke reach bench-smoke bench bench-nn bench-pipeline bench-obs bench-serving bench-json figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent paths: per-cluster training
# fan-out, the over-sampling loss fan-out, concurrent scoring, shard worker
# lifecycle (start/stop/restart under concurrent enqueue), the ingest
# server (listeners enqueueing from several goroutines, close-during-frame),
# and the checkpoint / fault-injection suites. Training itself is one
# goroutine per model: one optimizer step per window.
test-race:
	$(GO) test -race ./internal/...

# Fault soak (race-enabled): scenarios/fault-soak.yaml through the shipped
# stack — scoring panic and stall, worker crashes, disk-full checkpoint
# and torn spool writes retried on the production path, a shed-learning
# excursion, injected cycle failures that open the adaptation breaker —
# with its own assertions (lossless, checkpoint parity, every point
# fired), then the same file with the chaos events removed: the per-host
# warning divergence between the two must stay within divergenceBound.
# The watchdog-kick and breaker-recovery invariants need a 50 ms deadline
# and live in TestWatchdogKicksStuckWorker, TestWatchdogClockSkewFault
# (internal/ingest) and TestBreakerOpensAndRecovers (internal/lifecycle).
chaos:
	$(GO) test -race -count=1 ./internal/scenario -run 'TestFaultSoak' -v

# Scenario harness: lint every scenario in the shipped library and the
# fleet files under scenarios/fleet/ (inputs to `nfvscen dump`, too large
# to run), then run the library end-to-end (simulate → train → serve over
# TCP → eval → assert). Each scenario is seconds of wall time; the whole
# library is the fast subset that ci runs. Assertion failures exit nonzero.
scenarios:
	$(GO) run ./cmd/nfvscen validate scenarios/ scenarios/fleet/
	$(GO) run ./cmd/nfvscen run scenarios/

# The wire-to-warning benchmark (bench/, BENCHMARK.json) is a nested
# module, so `go test ./...` at the root never compiles it: this runs its
# smoke (all four workloads at -quick scale, oracle on), trainer-parity
# and compare tests.
bench-smoke:
	cd bench && $(GO) test ./...

# Fuzz smoke: every fuzz target in the tree for ten seconds each — the five
# f64 kernels (the serving matvec and exp, the training outer-product,
# transposed-product and Adam kernels) against their oracles (shapes,
# tails, special operands, zero multipliers), the
# interned scanner against the string tokenizer, the early-exit template
# matcher against its float-similarity oracle, the symbol table's seeded
# index against a plain map (through republishes and a full table), the
# RFC 3164 parser
# against a time.Parse reference, the RFC 6587 octet-count reader against
# hostile prefixes, the scenario DSL loader (seeded with every file under
# scenarios/), and the three persistent-state decoders: the NFVB bundle
# loader, the NFVC checkpoint restore and the NFVS lifecycle spool, each
# fed its file as is and with the payload reframed under a valid checksum
# (every input loads into a bundle, monitor or spool that validates and
# serves, or is refused; none panics). Their seeds are whole files, which
# the fuzzer would otherwise spend the run minimizing, hence
# -fuzzminimizetime. `go test -fuzz` takes one target and one package per
# run. A failing input is written under the package's testdata/fuzz/ and
# from then on fails plain `go test` too.
fuzz-smoke:
	$(GO) test ./internal/mat/ -run XXX -fuzz '^FuzzGemv64$$' -fuzztime 10s
	$(GO) test ./internal/mat/ -run XXX -fuzz '^FuzzExpNeg$$' -fuzztime 10s
	$(GO) test ./internal/mat/ -run XXX -fuzz '^FuzzAddOuterSeq$$' -fuzztime 10s
	$(GO) test ./internal/mat/ -run XXX -fuzz '^FuzzTransMulVecAdd$$' -fuzztime 10s
	$(GO) test ./internal/mat/ -run XXX -fuzz '^FuzzAdamStep$$' -fuzztime 10s
	$(GO) test ./internal/sigtree/ -run XXX -fuzz '^FuzzScannerEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/sigtree/ -run XXX -fuzz '^FuzzMatcherOracle$$' -fuzztime 10s
	$(GO) test ./internal/sigtree/ -run XXX -fuzz '^FuzzSymIndex$$' -fuzztime 10s
	$(GO) test ./internal/logfmt/ -run XXX -fuzz '^FuzzParse3164$$' -fuzztime 10s
	$(GO) test ./internal/ingest/ -run XXX -fuzz '^FuzzReadOctetLen$$' -fuzztime 10s
	$(GO) test ./internal/bundle/ -run XXX -fuzz '^FuzzBundleLoad$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/ingest/ -run XXX -fuzz '^FuzzRestoreMonitor$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/lifecycle/ -run XXX -fuzz '^FuzzLoadSpool$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/scenario/ -run XXX -fuzz '^FuzzSpecLoad$$' -fuzztime 10s -fuzzminimizetime 1s

# Reachability: every func in a non-test file of a library package that
# none of the 10 binaries (cmd/*, examples/*, bench/) links, minus
# tools/reach.allow, where each survivor carries its reason. Prints
# nothing and exits 0 when the library holds no code only tests reach.
reach:
	@bash tools/reach.sh

# Full gate: what a CI job runs. Vet, gofmt (it must list no file), a lint
# that every testing/quick check is seeded (a quick.Config with no Rand
# draws a fresh sequence each run, so its failures cannot be replayed), build,
# the whole test suite, the race pass over the concurrent packages (which
# covers the shard lifecycle tests), the scenario-harness library (lint + end-to-end run
# of every shipped scenario with its assertions), the fuzz smoke (every
# fuzz target for ten seconds), the reachability check, and benchmark smoke
# runs: the metrics hot path, the scoring kernels (LSTM step and gate
# fold, blocked matvec, the exp kernel) and training at the shipped shape
# (one window with its Adam step, a 32-window trainer pass, the Adam step
# alone), the scanner over fleet texts with the fleet's symbol table, and
# loopback TCP through the listener's batch handoff into a monitor that
# sheds scoring. The race pass includes
# TestLifecycleSoakSmoke, which promotes a candidate against concurrent
# scorers. The hard 0 allocs/op assertions are TestHotPathAllocFree and
# TestScoringHotPathAllocFree, which run with the suite. The last two
# lines are the tracing-overhead gate: a smoke run of the traced/untraced
# HandleMessage pair plus TestSpanOverhead, which fails ci if span
# instrumentation costs more than 150 ns a message. HandleMessage is a
# drain of one through the function the shard workers run, so these gates
# and TestServingPathAllocGate time the served code.
#
# The f64 kernels — matvec and exp for scoring; the outer-product,
# transposed-product and Adam kernels for training — are SSE2 assembly on
# amd64 with a portable fallback: `vet ./...` runs asmdecl over the
# assembly frames and the second vet line checks the fallback files,
# which the default tags never compile here; the purego test line runs
# the kernels' differential sweeps, the detector and nfvtrain goldens and
# the nn/detect suites (the numeric-contract tests and the per-step
# training oracle among them) through the fallback on this box, and the
# arm64 build proves the fallback is what every other architecture gets.
ci: build
	$(GO) vet ./...
	$(GO) vet -tags purego ./internal/mat
	test -z "$$(gofmt -l .)"
	test -z "$$(grep -rn --include='*_test.go' 'quick.Config{' . | grep -v 'Rand:')"
	$(GO) test ./...
	$(GO) test -tags purego ./internal/mat ./internal/nn ./internal/detect ./cmd/nfvtrain
	GOARCH=arm64 $(GO) build ./...
	$(MAKE) bench-smoke
	$(MAKE) test-race
	$(MAKE) chaos
	$(MAKE) scenarios
	$(MAKE) fuzz-smoke
	$(MAKE) reach
	$(GO) test ./internal/obs/ -run XXX -bench Registry -benchtime=1x -benchmem
	$(GO) test ./internal/nn/ -run XXX -bench 'StepLogProbs|GateFold' -benchtime=1x -benchmem
	$(GO) test ./internal/nn/ -run XXX -bench 'TrainWindow|BatchTrainer|AdamStep' -benchtime=1x -benchmem
	$(GO) test ./internal/mat/ -run XXX -bench 'MulVecAdd|ExpNeg' -benchtime=1x -benchmem
	$(GO) test ./internal/sigtree/ -run XXX -bench 'AppendSymsFleet' -benchtime=1x -benchmem
	$(GO) test ./internal/ingest/ -run XXX -bench 'MonitorHandleMessage$$|MonitorHandleMessageSpans$$|ServerHandoffShed$$' -benchtime=1x -benchmem
	$(GO) test ./internal/ingest/ -run TestServingPathAllocGate -count=1 -v
	NFV_SPAN_GATE=1 $(GO) test ./internal/ingest/ -run TestSpanOverhead -count=1 -v

bench: bench-nn bench-pipeline bench-obs bench-serving

bench-nn:
	$(GO) test ./internal/nn/ -run XXX -bench . -benchmem

bench-pipeline:
	$(GO) test ./internal/pipeline/ -run XXX -bench . -benchmem -benchtime 3x

# Serving-path benchmarks: end-to-end HandleMessage cost, the paired
# sharded-throughput benchmark (shards=1/4/8 under RunParallel), and the
# serialized fraction (signature-tree learn under treeMu) that bounds
# multi-core scaling.
bench-serving:
	$(GO) test ./internal/ingest/ -run XXX -bench 'MonitorHandleMessage|MonitorParallel|ShardSerialSection|ShardTokenize' -benchmem

# Machine-readable serving benchmarks: runs the scoring-path benchmarks
# (monitor, tokenize-and-match old vs interned, the LSTM step, gate
# fold, matvec and exp kernels) and converts
# the output to BENCH_serving.json via cmd/benchjson (ns/op, B/op,
# allocs/op, a derived msgs_per_sec = 1e9/ns for the per-message
# benchmarks, and b_per_op_delta against the committed
# BENCH_serving.json). The result lands in a temp file first so the old
# artifact is still readable as the baseline while the new one is built.
bench-json:
	{ $(GO) test ./internal/ingest/ -run XXX -bench 'MonitorHandleMessage|MonitorParallel|ShardSerialSection' -benchmem ; \
	  $(GO) test ./internal/sigtree/ -run XXX -bench 'PrepareTokens|SigtreeMatch' -benchmem ; \
	  $(GO) test ./internal/nn/ -run XXX -bench 'StepLogProbs|GateFold' -benchmem ; \
	  $(GO) test ./internal/mat/ -run XXX -bench 'MulVecAdd|ExpNeg' -benchmem ; \
	  $(GO) test ./internal/lifecycle/ -run XXX -bench 'AdaptationCycle' -benchmem -benchtime 5x ; } \
	| $(GO) run ./cmd/benchjson -baseline BENCH_serving.json > BENCH_serving.json.tmp
	mv BENCH_serving.json.tmp BENCH_serving.json
	@echo wrote BENCH_serving.json

figures:
	$(GO) run ./cmd/figures -fig all

bench-obs:
	$(GO) test ./internal/obs/ -run XXX -bench . -benchmem
	$(GO) test ./internal/detect/ -run XXX -bench StreamPush -benchmem -benchtime 20000x
