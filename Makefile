GO ?= go

.PHONY: check vet lint build test race fuzz bench evbench

# The gate everything must pass: static checks, a full build, the test
# suite (which holds every differential: the golden evbench output and
# its oracle re-run, the crash/resume harness, the observability plane,
# the real telemetry export through tracecheck), and the whole tree
# under the race detector. Perf is measured by `go run
# ./benchmark` (BENCHMARK.json), not here.
check: lint build test race

vet:
	$(GO) vet ./...

# Static analysis: gofmt (any file it would rewrite fails the gate) and
# go vet always; staticcheck when installed (the CI image may not ship
# it — the gate degrades to vet-only with a notice rather than failing on
# a missing tool).
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "lint: gofmt would rewrite:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, ran go vet only"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole tree is raced. -short skips only long runs that `test`
# already covers unraced: internal/bench's two sweeps
# (TestHarnessGoldenAndOracles, TestScaleDigestsMatch: minutes under the
# detector; TestFatTreeScaleSmoke is the reduced fat tree and
# TestTwoCampaignsConcurrently races two whole campaigns), cmd/tracecheck's
# hula exports (bench's TestTelemetry* race that path), cmd/evbench's
# TestObsSmoke (the scale experiment, past go test's 10-minute timeout
# raced; bench's TestSelfPlaneIdentical races the self plane on the same
# harness, and cmd/evsim's TestObsLivePlane races scrapes and stream
# flushes against a run), cmd/evsim's SIGKILL harness and internal/apps'
# scale and soak tests. The partition
# packages run again at three widths so every rung of the window gate's
# wait ladder is raced: -cpu 1 has no spin and hands over by yield or
# park, -cpu 2 spins then yields with a P per domain, and the 3- to
# 7-domain tests at either width (plus -cpu 4 on a 2-CPU host) have more
# waiters than processors. internal/faults runs with them: its flap
# storms are the one fault that crosses domains (ScheduleLinkChange on a
# cross link flips each side in its own domain).
race:
	$(GO) test -race -short ./...
	$(GO) test -race -cpu 1,2,4 ./internal/sim ./internal/netsim ./internal/faults

# Coverage-guided fuzzing: the µP4 compiled-vs-interpreter differential
# target, the slot's parse-once flow against packet.FlowOf, evsim's EVCK
# checkpoint record decoder, the JSON-lines trace reader with its Chrome
# conversion, the switch against the Event Merger / aggregation register
# reference model, cycle-stamped register ports against eager per-cycle
# ticks, and the scheduler against its naive order model
# (FuzzSchedModel, rules S1–S8 in DESIGN §7). Not part of `check`
# (open-ended); run before touching the compilation backend, the header
# decoders, the checkpoint format, the trace format, the switch's slot
# and drain path, the registers or the scheduler's heaps.
fuzz:
	$(GO) test -fuzz FuzzCompiledVsInterp -fuzztime 10s ./internal/p4
	$(GO) test -fuzz FuzzParserFlow -fuzztime 10s ./internal/packet
	$(GO) test -fuzz FuzzDecode -fuzztime 10s ./cmd/evsim
	$(GO) test -fuzz FuzzTraceJSONL -fuzztime 10s ./cmd/tracecheck
	$(GO) test -fuzz FuzzRefModel -fuzztime 10s ./internal/core
	$(GO) test -fuzz FuzzRegisterStamp -fuzztime 10s ./internal/pisa
	$(GO) test -fuzz FuzzSchedModel -fuzztime 10s ./internal/sim

# Hot-path micro-benchmarks (scheduler + switch cycle + event queue +
# aggregation register and port stamps + traffic generators and flow
# popularity draws + one frame across two links, the one way a frame
# crosses a link + one stateful µP4 control on each backend, next to the
# BenchmarkSwitchForwardPath* rows that run µP4 inside the switch).
bench:
	$(GO) test -bench 'BenchmarkScheduler|BenchmarkSwitch|BenchmarkQueue|BenchmarkAggregated|BenchmarkArray|BenchmarkGen|BenchmarkFlowSetPick|BenchmarkNetsimDeliver|BenchmarkCompiledControl|BenchmarkInterpControl' -benchmem -run xxx ./internal/sim ./internal/core ./internal/events ./internal/state ./internal/workload ./internal/netsim ./internal/p4

# Regenerate every table and figure; redirect into
# internal/bench/testdata/evbench.golden when a table changes on purpose.
evbench:
	$(GO) run ./cmd/evbench
