GO ?= go

# The staticcheck release CI pins; `make lint` reports it when the tool
# is not installed locally.
STATICCHECK_VERSION ?= 2024.1.1

# Enforced coverage floors (percent of statements) for the packages the
# paper's correctness hangs on; `make cover` fails below them. The
# netlist floor guards the compiled program every engine (sim, power,
# bitsim) reads its topology from: a wrong fanout list or capacitance
# silently misprices every charge. The LUT and Hd-distribution memo
# floors guard the estimate fast path: a wrong flattened table silently
# misprices every fast-path answer. The telemetry floor guards the
# measurement plane itself: a wrong window ring or burn rate silently
# mispages and misbudgets refinement. The serve floor guards the estimate
# data plane, whose hand-rolled body parser reads untrusted bytes: a
# number it scans wrong is a wrong answer, and one it wrongly refuses
# leaves the allocation-free path without any error. The fleet floor
# guards the distributed build: its coordinator merges uploaded bytes
# from other processes, and a range it merges wrong or never merges is a
# wrong model or a build that hangs.
COVER_FLOOR_CORE      ?= 90
COVER_FLOOR_SIM       ?= 90
COVER_FLOOR_BITSIM    ?= 90
COVER_FLOOR_NETLIST   ?= 90
COVER_FLOOR_LUT       ?= 90
COVER_FLOOR_HDDIST    ?= 90
COVER_FLOOR_TELEMETRY ?= 90
COVER_FLOOR_SERVE     ?= 85
COVER_FLOOR_FLEET     ?= 80

.PHONY: test lint race chaos cover fuzz bench bench-char bench-fresh bench-gate repro \
	serve-bench serve-fresh serve-load serve-gate

# Tier-1 gate: everything builds, everything passes.
test:
	$(GO) build ./...
	$(GO) test ./...

# Static gate, matching CI's lint job: formatting, vet (of the root
# module and of the nested perfbench module, which ./... skips, so an
# identifier deleted from under perfbench fails here), the repo's own
# hdlint analyzers (determinism, atomic writes, fault points, hook
# balance, dead exports), and — when installed — the pinned staticcheck.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	(cd perfbench && $(GO) vet ./...)
	$(GO) run ./cmd/hdlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed, skipping (CI pins $(STATICCHECK_VERSION):"; \
		echo "  go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Race-detector pass over every package (the concurrent surfaces —
# characterization engine, simulator clones, experiment suite, serving
# layer, durability + fault-injection layers, metrics + tracing — plus
# everything they pull in; sequential packages cost seconds).
race:
	$(GO) test -race ./...

# Chaos pass: the crash-safety test suite re-run with slow-mode fault
# points armed (stretching the crash windows that checkpointing, atomic
# writes and build retries protect) under the race detector. Error-mode
# faults are exercised deterministically by the unit tests themselves;
# arming slow faults here shifts goroutine interleavings without making
# any test nondeterministically fail.
chaos:
	HDPOWER_FAULTPOINTS='core.shard=slow:p=0.2:delay=2ms;core.merge=slow:p=0.2:delay=2ms;bitsim.batch=slow:p=0.2:delay=2ms;atomicio.write=slow:p=0.3:delay=2ms;serve.build=slow:p=0.5:delay=5ms;telemetry.capture=slow:p=0.5:delay=2ms;fleet.lease=slow:p=0.2:delay=2ms;fleet.upload=slow:p=0.2:delay=2ms;fleet.heartbeat=slow:p=0.2:delay=2ms;fleet.merge=slow:p=0.2:delay=2ms' \
		$(GO) test -race -count=1 ./internal/core/... ./internal/bitsim/... ./internal/atomicio/... \
		./internal/faultpoint/... ./internal/modellib/... ./internal/serve/... ./internal/fleet/...

# Coverage profiles with enforced floors on internal/core, sim, bitsim,
# netlist, lut, hddist, telemetry, serve and fleet; CI publishes the
# profiles as artifacts.
cover:
	$(GO) test -coverprofile=coverage_core.out ./internal/core
	$(GO) test -coverprofile=coverage_sim.out ./internal/sim
	$(GO) test -coverprofile=coverage_bitsim.out ./internal/bitsim
	$(GO) test -coverprofile=coverage_netlist.out ./internal/netlist
	$(GO) test -coverprofile=coverage_lut.out ./internal/lut
	$(GO) test -coverprofile=coverage_hddist.out ./internal/hddist
	$(GO) test -coverprofile=coverage_telemetry.out ./internal/telemetry
	$(GO) test -coverprofile=coverage_serve.out ./internal/serve
	$(GO) test -coverprofile=coverage_fleet.out ./internal/fleet
	@for spec in core:$(COVER_FLOOR_CORE) sim:$(COVER_FLOOR_SIM) bitsim:$(COVER_FLOOR_BITSIM) \
			netlist:$(COVER_FLOOR_NETLIST) lut:$(COVER_FLOOR_LUT) hddist:$(COVER_FLOOR_HDDIST) \
			telemetry:$(COVER_FLOOR_TELEMETRY) serve:$(COVER_FLOOR_SERVE) fleet:$(COVER_FLOOR_FLEET); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		total=$$($(GO) tool cover -func=coverage_$$pkg.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
		echo "internal/$$pkg coverage: $$total% (floor $$floor%)"; \
		awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t >= f) }' || \
			{ echo "FAIL: internal/$$pkg coverage $$total% below floor $$floor%"; exit 1; }; \
	done

# Identity and decode fuzzing, FUZZTIME per target (go test fuzzes one
# target per invocation): the 64-lane transpose against per-bit packing,
# the limb-level pair generator against a frozen copy of the per-bit one,
# the bit-parallel engine against the scalar simulator and, in both
# modes, against a per-lane full-sweep reference, the two entry
# points every build's merge state machine takes from bytes — resuming a
# MergeSession from a decoded checkpoint, and merging a decoded
# ShardResult, which must leave the session untouched when it rejects it
# — a fleet coordinator resuming a build from an arbitrary lease ledger,
# sealed or not, which must fall back to a fresh build or finish exactly as
# a merge session resumed from the same checkpoint, a fleet coordinator
# receiving arbitrary bytes, sealed or not, as the upload of a leased
# range, which it must refuse with a 4xx or accept and still finish the
# build, bit-identical to single-node unless it accepted dishonest
# results, the hand-rolled
# estimate parser against encoding/json and every estimate answer against
# an encoding/json rendering of core.Model prices on arbitrary request
# bodies, the parser's eight-byte number scanner
# against strconv.ParseUint from any offset of arbitrary bytes, the
# NDJSON line splitter against bytes.Split, and the atomicio checksum
# trailer parser (the bytes→payload decision behind ReadFile and Unseal)
# against the exact bytes Seal writes. Seed corpora live under each
# package's testdata/fuzz or in the target's f.Add seeds; a crasher lands
# under testdata/fuzz. Each FuzzLoadLedger input runs a whole build with
# fsynced ledger writes (several ms), and each FuzzHandleUpload input a
# whole build over loopback HTTP, so their minimizers are capped at 20
# candidates per new input: at the 60 s default they spend the whole
# budget minimizing the first one.
FUZZTIME ?= 15s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPackLanes$$' -fuzztime $(FUZZTIME) ./internal/logic
	$(GO) test -run '^$$' -fuzz '^FuzzPairSource$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEnginesAgree$$' -fuzztime $(FUZZTIME) ./internal/bitsim
	$(GO) test -run '^$$' -fuzz '^FuzzResumeMergeSession$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMergeShardResult$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLoadLedger$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzHandleUpload$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 20x ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzEstimateDecoders$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzScanUint64$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzStreamReadLine$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzVerifyTrailer$$' -fuzztime $(FUZZTIME) ./internal/atomicio

# Full benchmark sweep.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Characterization throughput across worker counts, published as JSON for
# trajectory tracking. Overwrites the committed baseline — use bench-gate
# to compare against it instead.
bench-char:
	$(GO) test -run '^$$' -bench 'BenchmarkCharacterize(Parallel|BitParallel)' -benchtime 2x . | $(GO) run ./cmd/benchjson > BENCH_characterize.json
	@cat BENCH_characterize.json

# Fresh benchmark numbers without touching the committed baseline.
bench-fresh:
	$(GO) test -run '^$$' -bench 'BenchmarkCharacterize(Parallel|BitParallel)' -benchtime 2x . | $(GO) run ./cmd/benchjson > BENCH_fresh.json
	@cat BENCH_fresh.json

# Bench-regression gate: fail on >25% patterns/sec regression against the
# committed BENCH_characterize.json, and on the bit-parallel backend's
# single-core speedup dropping below 5x the event engine (locally it
# measures >10x; the floor leaves headroom for load). CI additionally
# enforces the worker-scaling floor (benchcmp -min-scale 1.5) on its
# multi-core runners; that check is meaningless on a single-core host, so
# it is not applied here.
bench-gate: bench-fresh
	$(GO) run ./cmd/benchcmp -old BENCH_characterize.json -new BENCH_fresh.json -max-regress 0.25 \
		-min-speedup 5 \
		-speedup-base 'CharacterizeParallel/workers=1' \
		-speedup-target 'CharacterizeBitParallel/workers=1' 

# Serving-performance benchmark: start hdserve on a loopback port, drive
# it with the hdload closed-loop generator, and collect benchjson records
# (p50/p99 ns, qps, server-side allocs/op) for the unary and streaming
# estimate planes.
SERVE_ADDR ?= 127.0.0.1:18080
SERVE_LOAD_FLAGS ?= -models csa-multiplier:8,ripple-adder:8 -patterns 2000 \
	-mix mixed -concurrency 4 -duration 5s -warmup 1s -telemetry-check

# Overwrites the committed BENCH_serve.json baseline — use serve-gate to
# compare against it instead.
serve-bench:
	@$(MAKE) --no-print-directory serve-load SERVE_OUT=BENCH_serve.json

# Fresh numbers without touching the committed baseline.
serve-fresh:
	@$(MAKE) --no-print-directory serve-load SERVE_OUT=BENCH_serve_fresh.json

serve-load:
	$(GO) build -o bin/hdserve ./cmd/hdserve
	$(GO) build -o bin/hdload ./cmd/hdload
	@set -e; \
	bin/hdserve -addr $(SERVE_ADDR) >bin/hdserve.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	bin/hdload -url http://$(SERVE_ADDR) $(SERVE_LOAD_FLAGS) -o $(SERVE_OUT); \
	cat $(SERVE_OUT)

# Serving-latency/alloc gate: fresh hdload numbers must stay within 60%
# of the committed BENCH_serve.json on qps AND inside absolute budgets —
# p99 round-trip latency and server allocs per estimate, per plane. The
# allocs ceilings are the teeth: the unary plane pays ~75 net/http
# allocations per request and the streaming plane ~2 per line, so a
# regression that re-introduces per-estimate allocation (hot-shape lines
# ending up decoded by encoding/json, which allocates per line) blows the
# stream ceiling immediately. The third invocation budgets the
# observability plane: a /v1/telemetry snapshot (ServeTelemetry, recorded
# by hdload's -telemetry-check pass) must answer under 10ms p99 with the
# full profiled-model state loaded. QPS floors depend on host speed, so
# like bench-gate's scaling floor they are CI-only (see
# .github/workflows/ci.yml).
serve-gate: serve-fresh
	$(GO) run ./cmd/benchcmp -old BENCH_serve.json -new BENCH_serve_fresh.json \
		-metric qps -max-regress 0.6 \
		-budget-match unary -max-p99 25000000 -max-allocs 150
	$(GO) run ./cmd/benchcmp -old BENCH_serve.json -new BENCH_serve_fresh.json \
		-metric qps -max-regress 0.6 \
		-budget-match stream -max-p99 80000000 -max-allocs 16
	$(GO) run ./cmd/benchcmp -old BENCH_serve.json -new BENCH_serve_fresh.json \
		-metric qps -max-regress 0.6 \
		-budget-match ServeTelemetry -max-p99 10000000

# Regenerate the paper's tables and figures at full scale.
repro:
	$(GO) run ./cmd/repro -exp all | tee repro_full.txt
