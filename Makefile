# Convenience targets; everything is plain `go` underneath.

.PHONY: all check test race fuzz bench benchcmp benchtest gobench experiments soak syncbench parbench stepbench profile loc fmt vet cover

all: vet test

# check is the CI gate: build everything, vet, lint (when staticcheck is
# on PATH; CI installs it, local runs skip it silently otherwise), run
# the full test suite under the race detector, then the crash–restart
# soak (checkpointed recovery on every wiring, crash-only and crash+drop),
# the chaos fuzzer (randomized adversarial fault plans on all six
# wirings, with the vacuous-pass guard), and the pkg/sync library soak
# (MCS lock, combining-tree barrier, sharded counter at 100k goroutines,
# differentially checked against the serial oracle).
check:
	go build ./...
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	go test -race ./...
	go run -race ./cmd/check -quick -crash
	go run -race ./cmd/check -quick -chaos
	go run -race ./cmd/check -quick -synclib

test:
	go test ./...

race:
	go test -race ./internal/asyncnet/ ./internal/coord/ ./internal/pathexpr/ ./internal/memory/ ./internal/faults/ ./internal/engine/ ./internal/network/ ./internal/hypercube/ ./internal/busnet/ ./internal/machine/ .

# fuzz runs every native fuzz target for five seconds (go test takes one
# -fuzz target per invocation).  Their seed corpora already run as unit
# tests under `go test ./...`; this is the part that mutates.  A failing
# input lands in the package's testdata/fuzz/ — commit it with the fix.
fuzz:
	go test ./internal/rmw/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=5s
	go test ./internal/rmw/ -run '^$$' -fuzz '^FuzzComposeSemantics$$' -fuzztime=5s
	go test ./internal/faults/ -run '^$$' -fuzz '^FuzzPlanRoundTrip$$' -fuzztime=5s
	go test ./internal/faults/ -run '^$$' -fuzz '^FuzzTrackerModel$$' -fuzztime=5s
	go test ./internal/core/ -run '^$$' -fuzz '^FuzzFIFO$$' -fuzztime=5s

# bench regenerates the committed measured baseline (EXPERIMENTS.md
# §Measured baselines).
bench:
	go run ./cmd/experiments -bench -out BENCH_combining.json

# benchcmp is the cycle-domain regression gate (CI runs it): it regenerates
# the full baseline into /tmp (~25 s) and diffs it against the committed
# one.  Cycle-domain metrics (bandwidth, latency in cycles, combines) are
# deterministic, so -fail exits 1 if any of them moved at all or a
# committed point is missing; wall-clock metrics and the clockless
# asyncnet_faa section are annotated, expected to wobble, and never fail.
benchcmp:
	go run ./cmd/experiments -bench -out /tmp/BENCH_combining_new.json
	go run ./cmd/benchcmp -fail BENCH_combining.json /tmp/BENCH_combining_new.json

# benchtest vets and tests bench/, the repo's benchmark (BENCHMARK.json).
# It is a nested module the root `go build ./...` never compiles, so this
# is what catches an internal/par or pkg/sync API change that breaks it.
benchtest:
	cd bench && go vet ./... && go test ./...

# gobench runs the go-test microbenchmarks (formerly `make bench`).
gobench:
	go test -bench=. -benchmem ./...

experiments:
	go run ./cmd/experiments

soak:
	go run ./cmd/check -rounds 200 -faults -overload -parallel -crash

# syncbench runs the pkg/sync microbenchmarks against their stdlib
# baselines (sharded counter vs bare atomic vs mutex; MCS vs sync.Mutex;
# combining-tree barrier vs WaitGroup fork-join), the lock and barrier pairs
# both matched (one goroutine per P) and oversubscribed (64 goroutines on
# the same Ps, the *Oversub benchmarks), and BenchmarkSyncBarrierGrid, the
# three barrier families at widths 2–64 (EXPERIMENTS.md E23).  The
# wall-clock sweeps that land in BENCH_combining.json's sync_primitives
# section come from cmd/experiments (`make bench`).
syncbench:
	go test -bench=BenchmarkSync -benchmem ./pkg/sync/

# parbench runs the parallel-stepper and barrier microbenchmarks (E15
# curve; the full sweeps also land in BENCH_combining.json under
# parallel_speedup and barrier_microbench).
parbench:
	go test -bench='BenchmarkParallelStep|BenchmarkBarrier' -benchmem ./internal/network/ ./internal/par/

# stepbench prices one serial cycle of the 256-processor omega machine and
# the 256-node cube (BenchmarkStep: uniform, a 1/8 hot spot with combining,
# the same with combining off, and on the cube the fault-mode cycle of
# bench/run.sh's cube_faulted; ns/cycle, ns/switch-visit, allocs) — the loop
# every cycle-domain experiment and bench/run.sh's simulator workloads spend
# their time in.
stepbench:
	go test -run '^$$' -bench=BenchmarkStep -benchmem ./internal/network/ ./internal/hypercube/

# profile runs the omega BenchmarkStep under the CPU and memory profilers
# and leaves cpu.out/mem.out (and the test binary they resolve against) for
# `go tool pprof -top network.test cpu.out`.
profile:
	go test -run '^$$' -bench=BenchmarkStep -benchtime=20000x -o network.test \
		-cpuprofile cpu.out -memprofile mem.out ./internal/network/
	@echo "profiles written: cpu.out mem.out (inspect with go tool pprof -top network.test cpu.out)"

# loc prints the code-line count the simplification issues are judged by
# (ISSUEs 14–16): per package, the lines of its non-test Go files that are
# neither blank nor comment-only — grep -vc '^\s*\(//.*\)\?$$'.
# Informational; CI prints it and never fails on it.
loc:
	@total=0; for p in engine network hypercube busnet asyncnet; do n=0; \
	for f in internal/$$p/*.go; do case $$f in *_test.go) continue;; esac; \
	n=$$((n + $$(grep -vc '^\s*\(//.*\)\?$$' $$f))); done; \
	printf '%-10s %5d\n' $$p $$n; total=$$((total + n)); done; printf '%-10s %5d\n' total $$total

fmt:
	gofmt -w .

vet:
	go vet ./...

cover:
	go test -cover ./internal/...
