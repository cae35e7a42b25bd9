GO ?= go

.PHONY: all build test vet fmt test-race chaos fuzz bench-smoke bench bench-pairs bench-test bench-vet verify

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt: fail when a tracked Go file is not gofmt-clean. The list comes from
# git so the git-ignored .bench_build/ checkouts are skipped.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# bench-smoke: one iteration of the join and aggregation hot-path benchmarks
# (BenchmarkJoin/{Unique,Dup8x8}: the symmetric join fed by router
# goroutines, tuples with their integer key words, and
# /{UniqueRouted,Dup8x8Routed} by scans that route for it, row ids with the
# words read from the vectors; /TwoColMissRouted: TPC-H Q5's top join in
# shape, 300 k probe rows on a two-column integer key against 46 k stored
# keys, almost all missing, which times the key table's multi-column chain
# walk;
# BenchmarkHashAggFold/{routed,router}: Q17's avg(DECIMAL) GROUP BY INT over
# 300 k rows into 10 k groups, folded from a routing scan's vectors and from
# a router's batches — the routed fold and the routed join cases have dense
# keys, so their tables resolve words through the direct index; BenchmarkJoinSpillMerge: a routed 60 k-row join side
# spilled at a quarter of its peak and merged against two rows) and of the
# wire client benchmarks
# (BenchmarkClientStream/{count,row}: stream_wire's query with a consumer
# that only counts and one that boxes every row; BenchmarkClientPoint:
# point_wire's one-row lookup; BenchmarkPointQuery: the same lookup in
# process, without the wire), enough to catch "it no longer runs" and gross
# allocation regressions; and briefly the two kernels under stream_wire
# (BenchmarkSiftVec: the scan's branch-free typed predicate at 1/50/99%
# selectivity; BenchmarkRowBatchCodec: a RowBatch frame encoded from vectors
# and from tuples, and validated + boxed, in ns a value); and the AIP probe
# site (BenchmarkProbeSite{Scalar,Batch}: lineitem's l_partkey against Q17's
# 16 part keys, as the class's Bloom filter and as its bitmap, from tuples and
# from the column vector — the bitmap lane by lane and, over a whole chunk, as
# a run — and a router's whole route — probe, key, scatter — over a bank of
# both, in ns a row); the scan's string predicates (BenchmarkScanSift: part's
# p_brand = and p_name LIKE at SF 0.05 on the typed kernel over dictionary
# codes and on the row kernel, in ns a row); and planning (BenchmarkBuild: bind +
# optimizer.Build of Q1A–Q5A, the join order's dynamic program included).
bench-smoke:
	$(GO) test ./internal/exec -run '^$$' -bench 'BenchmarkJoin|BenchmarkHashAggFold' -benchmem -benchtime 1x
	$(GO) test ./internal/exec -run '^$$' -bench 'BenchmarkProbeSite|BenchmarkScanSift' -benchmem -benchtime 1x
	$(GO) test ./internal/server -run '^$$' -bench BenchmarkClient -benchmem -benchtime 1x
	$(GO) test . -run '^$$' -bench BenchmarkPointQuery -benchmem -benchtime 1x
	$(GO) test ./internal/expr -run '^$$' -bench BenchmarkSiftVec -benchtime 2000x
	$(GO) test ./internal/server -run '^$$' -bench BenchmarkRowBatchCodec -benchmem -benchtime 2000x
	$(GO) test ./internal/optimizer -run '^$$' -bench BenchmarkBuild -benchmem -benchtime 200x

# bench: the repo's benchmark (BENCHMARK.json): every workload, timed and
# traced, SQL text over loopback TCP; see bench/README.md.
bench:
	bash bench/run.sh

# bench-pairs: alternating parent/change pairs of one workload or a
# comma-separated list — the protocol bench/README.md demands of a gain
# claim — with each side's median and quartiles and the win count per
# end-to-end metric, and each side's failed/attempted totals, per workload;
# see the script's header.
#   make bench-pairs WORKLOAD=q17_baseline PAIRS=10 ARGS="--dataseed 777"
#   make bench-pairs WORKLOAD=point_wire,stream_wire PAIRS=5
WORKLOAD ?= q17_baseline
PAIRS ?= 10
bench-pairs:
	bash scripts/benchpairs.sh $(WORKLOAD) $(PAIRS) $(ARGS)

# bench-test: the benchmark runner's own smoke test. bench/ is its own
# module, so the root `go test ./...` cannot see it.
bench-test:
	cd bench && $(GO) test ./...

# bench-vet: go vet over the benchmark runner's module, which the root
# `go vet ./...` does not see either.
bench-vet:
	cd bench && $(GO) vet ./...

# test-race: the executor's concurrency tests (partitioned join/agg
# determinism, cancellation — the partitioned operators' contract: HashJoin,
# HashAgg and Distinct cut short after their k-th input batch at P = 1 and 4,
# unbounded and evicting, release every accounted byte and publish no
# truncated input —, the bucket-discard spill differentials,
# source-side selection: scan-probe differentials over unmodeled and
# delayed scans (one scan loop), accounting, the 0-alloc
# chunk path, join reservation; routing scans: routed-vs-router
# differentials (unmodeled and delayed), routed word keys joined with router byte keys against a
# nested loop (FLOAT/DATE/two-column keys, P=1/4, spilled), and router words
# with router words and with the bytes a DECIMAL batch falls back to, the entry
# layout, the 0-alloc routing kernel and router lanes, computed GROUP BY keys,
# the bitmaps-first probe order, spill over row-id entries, start
# order; the row-id root: root-vs-Project
# differential, cancel / early Close / kept rows on the cursor; the typed
# aggregation fold: the routed-vs-router fold matrix with evicting budgets,
# the 0-alloc fold, state accounting across evictions), the
# catalog's column-vector cache and column ranges, the key table's direct
# index (install rule and range arithmetic, the differential against a
# hash-only twin, the 0-alloc dense kernel), the spill run-file frame codec, the
# scalar-vs-vectorized expression differential tests, the network
# fault/breaker tests, the concurrent-writer exactness differentials (one
# blocked filter built by several goroutines; a Feed-forward working set
# shared by a partitioned HashAgg's or Distinct's workers), the wire server's concurrent-session soak /
# disconnect-cancellation / quota tests, the column-run codec and
# hostile-frame tests and the wire ≡ in-process differentials, and the long
# leg of the generated-query oracle (SIP_ORACLE_SEEDS catalogs instead of
# six; every case also runs once on delayed, fault-injected sources,
# and once more under Feed-forward or Cost-based with bitmaps and with hash
# sets, where each input whose filters were all bitmaps must prune exactly
# what the hash sets pruned; in every run, each bitmap an input ends with is
# replayed over its scan's rows through the tuple probe a router runs),
# the exact bitmap AIP sets (domain edges, concurrent adds, bitmap ≡ hash
# set through every probe shape), under the race detector; then 20 runs each,
# under the race detector, of start order (the wait graph's waits,
# cancellation and abandoned sources; Table I under all four strategies with
# a deadline and an acyclic graph; the sibling wait's state), the parallel
# routing scan (chunk workers folding every row once, cancelled while they
# run, and racing their OnStore calls against the join sibling completing)
# and the probe at the source against the routed path (P = 1 and
# 4, with a residual, with one partition spilled); then 100 runs each of
# Feed-forward Q17's report and determinism tests, which pin its one outcome.
test-race:
	SIP_ORACLE_SEEDS=30 $(GO) test -race -timeout 30m ./internal/exec ./internal/catalog ./internal/types ./internal/spill ./internal/core ./internal/expr ./internal/network ./internal/bloom ./internal/filter ./internal/server .
	$(GO) test -race -count=20 -run '^(TestStartOrder|TestFanRoute|TestProbeAtSourceDifferential|TestScanSiblingCompletesMidScan)$$' ./internal/exec
	$(GO) test -race -count=20 -run '^(TestTableIWaitGraph|TestTableISiblingWait)$$' .
	$(GO) test -race -count=100 -run '^TestQ17FeedForward(FilterReport|Determinism)$$' .

# fuzz: 30 s of each fuzzer — the wire protocol's payload primitives, frame
# layer, RowBatch column-run decoder and fixed-width integer run codec, and
# the spill run reader over corrupted or truncated run files (go test runs
# one fuzz target per invocation).
fuzz:
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzPayloadReader$$' -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzRowBatchDecode$$' -fuzztime 30s
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzIntRun$$' -fuzztime 30s
	$(GO) test ./internal/spill -run '^$$' -fuzz '^FuzzSpillRun$$' -fuzztime 30s

# chaos: the full fault-injection matrix (seeds × fault profiles ×
# Fail/Partial × strategies) plus the recovery smoke tests, under the race
# detector with goroutine-leak checks. A fixed-seed smoke subset of the same
# suite runs in tier-1 `test` (and under -race in `test-race`); this target
# adds the SIP_CHAOS-gated sweep.
chaos:
	SIP_CHAOS=1 $(GO) test -race -run TestChaos -count=1 -timeout 15m .

# verify: the tier-1 gate (go vet, gofmt, build, tests) plus a bench smoke
# run and the benchmark runner's own vet and tests.
verify: vet fmt build test bench-smoke bench-vet bench-test
