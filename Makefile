GO ?= go

# Bench knobs: every bench target names the root package by its stable
# import path (tlsshortcuts) instead of ".", so the command works from
# any directory and CI/local invocations measure the same package; all
# targets honor BENCHTIME for comparable iteration counts.
BENCHPKG ?= tlsshortcuts
BENCHTIME ?= 1x

.PHONY: build test test-faults test-telemetry test-shards test-cryptanalysis \
	test-obsv test-traffic test-perfbench race bench bench-campaign bench-gate \
	bench-million fmt

build:
	$(GO) build ./...

test:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -short ./...

# Lossy-network robustness suite: fault plan determinism, scan deadlines
# and retries (a stalled read fails as soon as its deadline is armed, and
# a stalled domain no longer holds up a campaign), the error taxonomy,
# cache sweeping, the faulted campaign (same dataset for 3 and 13
# workers; its 2-shard merge reproduces dataset and journal, matrix row
# faulted-shards=2), and the empty-plan golden-hash inertness proof.
test-faults:
	$(GO) test -run 'Fault|Stall|Refus|Reset|Retry|Transient|Classify|Churn|Decide|Sweep|Len|Expire|NoRoute|Clearing|Golden|TestDeterminismMatrix/^faulted-' \
		./internal/faults ./internal/simnet ./internal/scanner ./internal/session ./internal/study

# Telemetry suite: registry/histogram correctness under -race, the
# phase spans a campaign delivers to its observer, dial/label collectors,
# report-rendering determinism, and TestTelemetryObservationallyInert:
# the golden 200x8 campaign re-run with a registry and journal attached
# must still match the committed hash, and a faulted campaign's
# deterministic metrics must be identical for 3 and 13 workers.
test-telemetry:
	$(GO) test -race ./internal/telemetry
	$(GO) test -run 'Telemetry|Span|ReportRendering' \
		./internal/scanner ./internal/simnet ./internal/study

# Sharding determinism suite: the 200x8 seed-7 campaign split into 1, 3,
# and 5 independently-run shards and merged must reproduce the committed
# golden hash byte-identically, a shard must not depend on worker count,
# the faulted, weak-crypto and traffic campaigns' 2-shard merges must
# reproduce their monolithic datasets (the faulted one its journal too),
# and the merge must reject malformed shard sets.
test-shards:
	$(GO) test -run 'Shard|Merge|CampaignDeterminism|TestDeterminismMatrix/shard' -count=1 ./internal/study

# Cryptanalysis suite: dictionary cracking and probe units, the ticket
# key-name regressions, the client's SKE checks (a replayed
# ServerKeyExchange with a bad signature must fail even after the same
# certificate and KEX params verified once; the parsed-leaf cache stays
# bounded), the attacker capture-path fixes (format rejection, snapshot
# isolation under -race, round-trip property, e2e resumed-capture
# decryption), and the weak-population campaign proofs — nonzero measured
# decryption yield with the toggle on, byte-identical golden hash with it
# off (TestWeakCryptoOffMatchesGolden), and worker-count/shard
# invariance of the weak campaign itself (the weak matrix family).
test-cryptanalysis:
	$(GO) test -count=1 ./internal/cryptanalysis ./internal/ticket ./internal/vulnwindow ./internal/tlsclient
	$(GO) test -race -count=1 ./internal/attacker
	$(GO) test -run 'WeakCrypto|TestDeterminismMatrix/^weak-' -count=1 ./internal/study

# Observability-plane suite. Fast half under -race: SSE broadcaster
# accounting under churn (never blocks, every dropped event counted),
# journal round-trip/validation/merge, prom exposition, and the cluster
# view. Full half without -short: the golden 200x8 campaign re-run with
# the whole plane attached (HTTP server + churning SSE subscribers +
# flight-recorder journal) must match the committed hash, every span
# field must reach the journal's phase_end event, the journal's
# deterministic view must be identical across worker counts, studyrun's
# fatal path must finalize every sink, and the -obsv listener must serve
# /debug/pprof/ (plus the simweb -metrics smoke). The matrix row
# faulted-shards=2 (internal/study) checks that merged shard journals
# equal the monolithic one.
test-obsv:
	$(GO) test -race -count=1 -run 'Broadcaster|Prom|Sanitize|JournalRoundTrip|JournalValidation|JournalVersion|JournalAbort|MergeJournals|ClusterView' ./internal/obsv
	$(GO) test -count=1 ./internal/obsv ./cmd/studyrun ./cmd/simweb ./cmd/tlsobserve
	$(GO) test -count=1 -run 'TestDeterminismMatrix/^faulted-' ./internal/study

# Traffic-plane suite: the workload model's purity and engine determinism
# (worker counts, user shards), the session store's bounded-LRU eviction
# order, the stable-dial isolation proof, the zero-wall-delta progress
# guards, the timeline traffic lanes, and the study-level contract (the
# traffic matrix family, clean-traffic and TestCampaignDeterminism) — a
# traffic-on campaign is deterministic across workers and shard merges,
# traffic on leaves the scanner's fields byte-identical to the golden
# (clean-traffic), and with traffic off the golden 200x8 hash still
# holds (TestCampaignDeterminism).
test-traffic:
	$(GO) test -count=1 ./internal/traffic
	$(GO) test -run 'BoundedCache|StableDials|ProgressZeroWallDelta|ProgressCounterRollback|ProgressTrafficFields|Timeline' \
		-count=1 ./internal/session ./internal/simnet ./internal/obsv ./cmd/tlsobserve
	$(GO) test -run 'CampaignDeterminism|TestDeterminismMatrix/^(traffic-|clean-traffic$$)' -count=1 ./internal/study

# Benchmark-module suite: perfbench is its own Go module, so the root
# go test ./... never builds it. Vet and test it, then run a short scan
# workload end to end and require its golden and digest checks to pass.
test-perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	bash perfbench/run.sh --workload scan --seed 1 --seconds 5 --trace 0 | tee /tmp/perfbench_smoke.txt
	tail -n 1 /tmp/perfbench_smoke.txt | grep -q '"correct":true'

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=$(BENCHTIME) ./...

# Full-scale campaign benchmark (1000 domains x 44 days, 16 workers);
# refreshes the committed BENCH_campaign.json trajectory point.
bench-campaign:
	BENCH_CAMPAIGN_FULL=1 BENCH_CAMPAIGN_OUT=BENCH_campaign.json \
		$(GO) test -run=NONE -bench='CampaignE2E$$' -benchtime=$(BENCHTIME) $(BENCHPKG)

# Smoke-scale bench + regression gate: measures the short campaign,
# then compares allocs_per_op / alloc_bytes_per_op (tight) and
# seconds_per_op / handshakes_per_sec (loose) against the committed
# smoke baseline. CI fails the build if this fails. BENCH_GATE_PROFILES
# adds -cpuprofile/-memprofile of the gated run (CI uploads them as
# artifacts for regression triage).
BENCH_GATE_PROFILES ?=
bench-gate:
	BENCH_CAMPAIGN_OUT=/tmp/bench_smoke.json \
		$(GO) test -short -run=NONE -bench='CampaignE2E$$' -benchtime=$(BENCHTIME) \
		$(if $(BENCH_GATE_PROFILES),-cpuprofile=$(BENCH_GATE_PROFILES)/bench_smoke.cpu -memprofile=$(BENCH_GATE_PROFILES)/bench_smoke.mem,) \
		$(BENCHPKG)
	$(GO) run tlsshortcuts/cmd/benchgate -baseline testdata/bench_smoke_baseline.json -current /tmp/bench_smoke.json

# Million-scale extrapolation profile: paper-shaped 63-day campaign at
# BENCH_MILLION_LIST domains, sampling peak live heap and projecting
# memory/wall time to the Top Million x 63 days; refreshes the committed
# BENCH_million.json. Override the scale for a quick smoke:
#   make bench-million BENCH_MILLION_LIST=300 BENCH_MILLION_DAYS=6 BENCH_MILLION_OUT=/tmp/m.json
BENCH_MILLION_LIST ?= 4000
BENCH_MILLION_DAYS ?= 63
BENCH_MILLION_OUT ?= BENCH_million.json
bench-million:
	BENCH_MILLION_LIST=$(BENCH_MILLION_LIST) BENCH_MILLION_DAYS=$(BENCH_MILLION_DAYS) \
	BENCH_MILLION_OUT=$(BENCH_MILLION_OUT) \
		$(GO) test -run=NONE -bench=CampaignMillionProfile -benchtime=$(BENCHTIME) -timeout=30m $(BENCHPKG)

fmt:
	gofmt -l -w .
