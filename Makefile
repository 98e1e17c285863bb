# Development entry points. `make check` is the full local gate — the same
# set of steps CI runs (.github/workflows/ci.yml).

GO ?= go

.PHONY: build test race lint fuzz bench-smoke smoke-lists benchmark benchmark-compare repro-check obs critpath docs check clean

build: ## compile everything
	$(GO) build ./...

test: ## unit tests
	$(GO) test ./...

race: ## unit tests under the race detector
	$(GO) test -race ./...

lint: ## gofmt -l must list nothing; then go vet beside the repo's seven analyzers, one pass over the whole module, cold every run (2-3 s on 2 vCPUs after go build ./...)
	@unformatted=$$(gofmt -l .) && if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/mlstar-lint ./...

fuzz: ## short fuzz runs: libsvm reader + the one loss body against the oracle's reference + sparse encoding + telemetry event round-trips + the event encoder against encoding/json + causal graph pipeline + every mlstar-obs report over an accepted log + the table-driven Zipf against math/rand + the collective plan against an executed run + the model-checkpoint reader + Train over any Config
	$(GO) test -fuzz=FuzzReadLibSVM -fuzztime=10s ./internal/data
	$(GO) test -fuzz=FuzzLossRowsMatchesReference -fuzztime=10s ./internal/data
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s ./internal/sparse
	$(GO) test -fuzz=FuzzEventRoundTrip -fuzztime=10s ./internal/obs
	$(GO) test -fuzz=FuzzEventEncode -fuzztime=10s ./internal/obs
	$(GO) test -fuzz=FuzzCausalGraph -fuzztime=10s ./internal/causal
	$(GO) test -fuzz=FuzzObsReports -fuzztime=10s -fuzzminimizetime=20x ./internal/obs
	$(GO) test -fuzz=FuzzZipfEqualsMathRand -fuzztime=10s ./internal/detrand
	$(GO) test -fuzz=FuzzPlanMatchesRun -fuzztime=10s ./internal/allreduce
	$(GO) test -fuzz=FuzzLoadModel -fuzztime=10s .
	$(GO) test -fuzz=FuzzTrainConfig -fuzztime=10s .

# The test and benchmark lists bench-smoke selects, one per package and
# flag. smoke-lists holds every alternative to a test that still exists:
# `go test -run` with a stale name prints "no tests to run" and passes.
SMOKE_BENCH_RUN := TestSparseTrafficReduction|TestPipelineNoSlowdown|TestPipelineOverlapSpeedupTarget|TestCSRKernelZeroAllocs|TestCSRKernelFeatMajorZeroAllocs|TestFig3GanttGolden|TestGanttReplayEqualsLive
SMOKE_DATA_BENCH := BenchmarkSlabKernels|BenchmarkAddGradientRowsCold|BenchmarkGenerate
SMOKE_MLLIB_BENCH := BenchmarkSampleRows
SMOKE_DES_BENCH := BenchmarkDes
SMOKE_DES_RUN := TestDesZeroAllocs
SMOKE_PS_RUN := TestPSSteadyStateAllocs|TestPushTouchedEqualsDense
SMOKE_OBS_RUN := TestSinkRecordAllocs
SMOKE_TRAIN_RUN := TestEvaluatorOverlap|TestEvaluatorInlineWhenRead|TestEvaluatorBlockedBitIdentical|TestValidateRejections
SMOKE_PAR_RUN := TestGoPartsRunsEveryPartOnce|TestGoPartsLazyRunsInIndexOrderAtJoin|TestGoPartsJoinHelps|TestGoPartsPanicAtJoin|TestGoPartsDisjointWritesRace

bench-smoke: ## deterministic simulated-ratio floors + the Figure-3 gantt goldens and the live-vs-replay gantt test + slab-kernel and des zero-alloc guards + slab-kernel ns/nnz per kernel, loss and row width + the sampled-row gradient on a 72 MB arena (cold rows) + the generator's ns/nnz at compute8's shape + the mini-batch sampler's ns/draw + des ns/switch, ns/event + the ps steady-state allocation guard + the telemetry write path's allocation guard + the evaluator's blocking-loss overlap tests, its blocked evaluation's bit identity and the Params validation table + the pool's claimable parts and helping join (both under -race)
	$(GO) test -run '$(SMOKE_BENCH_RUN)' -v ./internal/bench
	$(GO) test -run '^$$' -bench '$(SMOKE_DATA_BENCH)' -benchtime=1x ./internal/data
	$(GO) test -run '^$$' -bench '$(SMOKE_MLLIB_BENCH)' -benchtime=1x ./internal/mllib
	$(GO) test -bench '$(SMOKE_DES_BENCH)' -benchtime=100000x -run '$(SMOKE_DES_RUN)' -v ./internal/des
	$(GO) test -run '$(SMOKE_PS_RUN)' -v ./internal/ps
	$(GO) test -run '$(SMOKE_OBS_RUN)' -v ./internal/obs
	$(GO) test -race -run '$(SMOKE_TRAIN_RUN)' -v ./internal/train
	$(GO) test -race -run '$(SMOKE_PAR_RUN)' -v ./internal/par

smoke-lists: ## every alternative of bench-smoke's -run and -bench lists must match a test or benchmark in `go test -list`
	@status=0; \
	check() { \
		names=$$($(GO) test -list '.*' "$$1" | grep -E '^(Test|Benchmark)') || { echo "smoke-lists: go test -list $$1 failed"; status=1; return; }; \
		for alt in $$(printf '%s' "$$2" | tr '|' ' '); do \
			printf '%s\n' "$$names" | grep -qE -- "$$alt" || { echo "smoke-lists: $$1: '$$alt' matches no test or benchmark"; status=1; }; \
		done; \
	}; \
	check ./internal/bench '$(SMOKE_BENCH_RUN)'; \
	check ./internal/data '$(SMOKE_DATA_BENCH)'; \
	check ./internal/mllib '$(SMOKE_MLLIB_BENCH)'; \
	check ./internal/des '$(SMOKE_DES_BENCH)|$(SMOKE_DES_RUN)'; \
	check ./internal/ps '$(SMOKE_PS_RUN)'; \
	check ./internal/obs '$(SMOKE_OBS_RUN)'; \
	check ./internal/train '$(SMOKE_TRAIN_RUN)'; \
	check ./internal/par '$(SMOKE_PAR_RUN)'; \
	[ $$status -eq 0 ] && echo "smoke-lists: every bench-smoke alternative names a test"; \
	exit $$status

benchmark: ## the repository benchmark (benchmark/README.md): all four workloads, one process each -> .bench_out/all.json
	$(GO) run ./benchmark -json .bench_out/all.json

benchmark-compare: ## compare two -json result files: make benchmark-compare A=.bench_out/parent.json B=.bench_out/change.json
	$(GO) run ./benchmark -compare $(A) $(B)

repro-check: ## regenerate the -quick artifacts into a temp dir; every CSV and SVG written must equal its copy in results/
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/mlstar-repro -quick -out "$$tmp" && \
	for f in "$$tmp"/*.csv "$$tmp"/*.svg; do cmp "$$f" "results/$$(basename "$$f")" || exit 1; done && \
	echo "repro-check: every regenerated CSV and SVG matches results/"

obs: ## replay the committed sample event logs and diff against the golden reports
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllib.jsonl > obs_report_mllib.txt
	diff -u internal/bench/testdata/obs_report_mllib.golden obs_report_mllib.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllibstar.jsonl > obs_report_mllibstar.txt
	diff -u internal/bench/testdata/obs_report_mllibstar.golden obs_report_mllibstar.txt
	@rm -f obs_report_mllib.txt obs_report_mllibstar.txt
	@echo "obs: replayed reports match the goldens"

critpath: ## replay the committed causal logs and diff the critical-path + what-if reports against the goldens
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllib.jsonl -critpath > critpath_mllib.txt
	diff -u internal/bench/testdata/critpath_mllib.golden critpath_mllib.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllibstar.jsonl -critpath > critpath_mllibstar.txt
	diff -u internal/bench/testdata/critpath_mllibstar.golden critpath_mllibstar.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllib.jsonl -whatif > whatif_mllib.txt
	diff -u internal/bench/testdata/whatif_mllib.golden whatif_mllib.txt
	$(GO) run ./cmd/mlstar-obs -in internal/bench/testdata/obs_events_mllibstar.jsonl -whatif > whatif_mllibstar.txt
	diff -u internal/bench/testdata/whatif_mllibstar.golden whatif_mllibstar.txt
	@rm -f critpath_mllib.txt critpath_mllibstar.txt whatif_mllib.txt whatif_mllibstar.txt
	@echo "critpath: replayed reports match the goldens"

docs: ## check ARCHITECTURE/README/EXPERIMENTS: intra-repo links + quoted commands
	$(GO) test -run 'TestDocs' -v ./...

check: build lint race fuzz repro-check obs critpath bench-smoke smoke-lists docs ## everything CI runs

clean:
	$(GO) clean ./...
