# Development targets. `make check` is the full pre-merge gate: gofmt
# cleanliness, static vetting, a clean build of every package, the test suite under the race
# detector (the Session engine's cancellation paths are concurrent), the
# coverage ratchet, and a short fuzz smoke over the parser and metric targets.

GO ?= go

# Coverage ratchet for the engine package. Raise after a PR that durably
# lifts internal/core coverage; never lower it to absorb a regression.
COVER_FLOOR_CORE ?= 88.3

.PHONY: check fmt vet build test race cover fuzz bench bench-json bench-ratchet chaos serve-smoke equiv

check: fmt vet build race equiv bench-ratchet cover fuzz chaos serve-smoke

# Fails, listing the offenders, when any Go file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt -l:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Per-package coverage plus the internal/core floor (see scripts/cover.sh).
cover:
	GO="$(GO)" COVER_FLOOR_CORE="$(COVER_FLOOR_CORE)" sh scripts/cover.sh

# 10s-per-target fuzz smoke over the artifact loader, WAL recovery, CSV
# import, snapshot+WAL restore and the similarity metrics, whose target
# also checks the interned path against the string one (see scripts/fuzz_smoke.sh;
# FUZZTIME=1m for longer runs).
fuzz:
	GO="$(GO)" sh scripts/fuzz_smoke.sh

# Bit-identity gates, under the race detector: every paper selector
# against its frozen pre-refactor implementation plus the
# serial-vs-parallel pins and the labeling-path pins against the
# recorded per-pair reference runs (internal/core), and the indexed candidate generator against the
# brute-force blocking reference, including incremental Add and
# shard-count sweeps (internal/blocking). `race` already covers these;
# the dedicated target keeps the refactor contracts visible and quick to
# re-run on their own.
equiv:
	$(GO) test -race -count=1 -run 'CompositionEquivalence|SerialParallelEquivalent|WorkerInvariant|BatchOracleEquivalence' ./internal/core/
	$(GO) test -race -count=1 -run 'IndexEquivalence|BruteForce|HotTokenRecall|ThresholdBoundary' ./internal/blocking/

bench:
	$(GO) test -bench . -benchtime 1x .

# Zero-alloc hot-path ratchets, run under plain `go test` (they skip
# under -race, so the `race` target alone never exercises them): the
# per-metric Compare and extractor/scoring allocs/op budgets, the
# string-vs-interned 30% reduction floor, the warmed Candidates budget
# and the constant-allocs training fit — plus the bit-identity pins the
# ratchets rely on, and a -benchtime=1x smoke over the paired scoring
# benchmarks so a broken benchmark fails `make check` rather than the
# next BENCH run.
bench-ratchet:
	$(GO) test -count=1 -run 'AllocRatchet|AllocReduction|AllocSteadyState|AllocsConstantPerFit|QGramLowerOnce|TokenSetMetricEquivalence|TFIDFTokenSetEquivalence|TFIDFCosineDeterministic|InternQGramsMatchesTokens|SoundexCodeEquivalence|ExtractPairsMatchesExtract|ScoreAllInternedMatchesString|TrainMatchesLegacy|KnownCacheAcrossAdds' \
		./internal/textsim/ ./internal/feature/ ./internal/match/ ./internal/blocking/ ./internal/neural/
	$(GO) test -count=1 -run '^$$' -bench 'MatcherScoreAll' -benchtime=1x -benchmem ./internal/match/

# Selector serial/parallel pairs, blocking naive/indexed pairs and the
# matcher string/interned pairs → BENCH_9.json (ns/op, allocs/op,
# per-path speedups at this machine's GOMAXPROCS, the algorithmic
# indexed-vs-naive speedup, and the interned-path alloc reductions with
# their 30% ratchet). Requires an effective GOMAXPROCS of at least 2.
bench-json:
	GO="$(GO)" sh scripts/bench_json.sh BENCH_9.json

# Seeded fault-injection suite: kill/resume bit-identity, oracle stall
# termination, panic containment, breaker lifecycle, hot model swaps
# under load, corrupt-artifact swap rejection, per-tenant admission
# isolation — all deterministic (seeded faults, gated learners).
chaos:
	$(GO) test -race -run Chaos ./...

# End-to-end train → save → serve → hot-swap loop: builds almatch +
# almserve + almload, trains two small models, serves one on a random
# port, hits /healthz and /v1/match, swaps to the second mid-traffic
# asserting zero non-2xx, and asserts SIGTERM drains cleanly.
serve-smoke:
	GO="$(GO)" sh scripts/serve_smoke.sh
