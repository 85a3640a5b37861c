# Convenience targets; everything is plain `go` underneath.

.PHONY: all check test testtime race fuzz smoke mutate bench benchcmp benchtest benchpairs gobench experiments soak syncbench parbench stepbench stepcmp profile loc fmt vet cover

all: vet test

# check is the CI gate: build everything, vet, lint (when staticcheck is
# on PATH; CI installs it, local runs skip it silently otherwise), run
# the full test suite under the race detector (which includes the pkg/sync
# library soaks: MCS lock, combining-tree barrier and sharded counter at
# 100k goroutines, differentially checked against the serial oracle), then
# the crash–restart soak (checkpointed recovery on every wiring, crash-only
# and crash+drop) and the chaos fuzzer (randomized adversarial fault plans
# on all six wirings, with the vacuous-pass guard).
check:
	go build ./...
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	go test -race ./...
	go run -race ./cmd/check -quick -crash
	go run -race ./cmd/check -quick -chaos

test:
	go test ./...

# testtime is tier-1's time budget (CI runs it): the whole suite once,
# uncached, with each package's elapsed seconds, slowest first, then the
# suite's wall time.  It fails on a failing test, and on time only past
# 60 s of wall time; the suite takes ~15 s on two processors.
testtime:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; start=$$(date +%s); \
	status=0; go test -count=1 -json ./... > $$d/test.json || status=$$?; \
	wall=$$(($$(date +%s) - start)); \
	sed -n 's/.*"Action":"\(pass\|fail\)","Package":"\([^"]*\)","Elapsed":\([0-9.]*\)}$$/\3 \2 \1/p' $$d/test.json | \
		sort -rn | awk '{ printf "%7.2fs  %s%s\n", $$1, $$2, $$3 == "fail" ? "  FAIL" : "" }'; \
	echo "testtime: $${wall}s wall (budget 60s)"; \
	test $$status -eq 0 || { grep -h '"Action":"output"' $$d/test.json | grep -- '--- FAIL' | sed 's/.*"Output":"\(.*\)\\n"}$$/\1/' ; exit $$status; }; \
	test $$wall -le 60 || { echo "testtime: over the 60s budget"; exit 1; }

# race runs the packages with concurrent state, and every package whose
# tests step machines at Workers > 1, under the race detector, then soaks internal/par's pool and barriers, the state every parallel
# stepper's goroutines share, ten times over.
race:
	go test -race ./internal/pathexpr/ ./internal/memory/ ./internal/faults/ ./internal/engine/ ./internal/network/ ./internal/hypercube/ ./internal/busnet/ ./internal/machine/ ./internal/chaos/ ./internal/wiring/ ./pkg/sync/ ./internal/par/ .
	go test -race -count=10 -run 'Pool|Barrier' ./internal/par/

# fuzz runs every native fuzz target for five seconds (go test takes one
# -fuzz target per invocation).  Their seed corpora already run as unit
# tests under `go test ./...`; this is the part that mutates.  A failing
# input lands in the package's testdata/fuzz/ — commit it with the fix.
fuzz:
	go test ./internal/rmw/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=5s
	go test ./internal/rmw/ -run '^$$' -fuzz '^FuzzComposeSemantics$$' -fuzztime=5s
	go test ./internal/rmw/ -run '^$$' -fuzz '^FuzzComposeAssociative$$' -fuzztime=5s
	go test ./internal/faults/ -run '^$$' -fuzz '^FuzzPlanRoundTrip$$' -fuzztime=5s
	go test ./internal/faults/ -run '^$$' -fuzz '^FuzzTrackerModel$$' -fuzztime=5s
	go test ./internal/memory/ -run '^$$' -fuzz '^FuzzReplyLedger$$' -fuzztime=5s
	go test ./internal/core/ -run '^$$' -fuzz '^FuzzFIFO$$' -fuzztime=5s
	go test ./internal/core/ -run '^$$' -fuzz '^FuzzWaitBuffer$$' -fuzztime=5s
	go test ./internal/serial/ -run '^$$' -fuzz '^FuzzCheckers$$' -fuzztime=5s
	go test ./internal/wiring/ -run '^$$' -fuzz '^FuzzMachineRoundTrip$$' -fuzztime=5s

# smoke drives the two commands that take -machine once on every wiring the
# registry names (CI runs it; the commands have no test files, and nothing
# else ever ran combsim off the omega path): a short combsim sweep whose
# cold-latency column must be non-zero on every row, and a generated trace
# replayed through the invariant battery, which must print its pass line,
# and a trace replay beside -h, which must exit 2: a mode rejects the flags
# it does not read.  The names come from the registry by way of the
# unknown-wiring message, so a new wiring is smoked the day it is
# registered.  Then cmd/trace's Figure 1 walkthrough, whose last line must
# report the replies an exact serialization, and `trace -addr 4294967296`,
# which must exit 2: an address past 32 bits is refused, not truncated.
# Then every program under
# examples/, each of which must exit 0 and, but for the two that print only
# a table (hotspot, pathexpr), end its verdict in a line ending ✓ or
# ": true".  Then cmd/mutate's nodedup entry, which must report killed: the
# chaos fuzzer finds the seeded bug and the first reproducer it prints, run
# as printed, exits 1 with a VIOLATION line; and its e57-port-settle entry,
# a parked port that forgets the cycles it skipped, which must report
# killed too.  Last, the -faults, -overload
# and -crash soaks twice, whose outputs must be the same bytes: every row
# is a function of its seed.
smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go build -o $$d/combsim ./cmd/combsim; go build -o $$d/replay ./cmd/replay; go build -o $$d/trace ./cmd/trace; \
	names=$$($$d/combsim -machine '?' 2>&1 | sed -n 's/.*(want \(.*\))$$/\1/p' | tr -d ,); \
	test -n "$$names" || { echo "smoke: no wiring names in the unknown-wiring message"; exit 1; }; \
	$$d/replay -gen -machine omega,procs=16 -ops 20 > $$d/trace.txt; \
	st=0; $$d/replay -h 0.9 $$d/trace.txt 2> $$d/stray-flag.txt || st=$$?; \
	test $$st -eq 2 || { echo "smoke: replay -h 0.9 trace.txt exited $$st, want 2"; cat $$d/stray-flag.txt; exit 1; }; \
	echo "smoke: a trace replay rejects -h ($$(cat $$d/stray-flag.txt))"; \
	for t in $$names; do \
		$$d/combsim -machine $$t,procs=16,queue=4,banks=8 -cycles 300 -csv > $$d/$$t.csv; \
		awk -F, -v t=$$t 'NR > 1 && $$6 + 0 == 0 { print "smoke: " t ": cold_latency is zero: " $$0; bad = 1 } END { exit bad }' $$d/$$t.csv; \
		$$d/replay -machine $$t,procs=16,queue=4,wait=-1 $$d/trace.txt > $$d/$$t.txt; \
		grep -q "^trace passed on $$t: " $$d/$$t.txt || { echo "smoke: replay $$t: no battery pass line"; cat $$d/$$t.txt; exit 1; }; \
		echo "smoke: $$t ok ($$(($$(wc -l < $$d/$$t.csv) - 1)) combsim rows; $$(head -1 $$d/$$t.txt))"; \
	done; \
	$$d/trace > $$d/walkthrough.txt; last=$$(tail -1 $$d/walkthrough.txt); \
	case "$$last" in *': true') ;; *) echo "smoke: trace: $$last"; exit 1;; esac; \
	echo "smoke: trace ok ($$(wc -l < $$d/walkthrough.txt) lines; $$last)"; \
	st=0; $$d/trace -addr 4294967296 > /dev/null 2> $$d/wide-addr.txt || st=$$?; \
	test $$st -eq 2 || { echo "smoke: trace -addr 4294967296 exited $$st, want 2"; cat $$d/wide-addr.txt; exit 1; }; \
	echo "smoke: trace rejects an address past 32 bits ($$(cat $$d/wide-addr.txt))"; \
	for e in $$(ls examples); do \
		go build -o $$d/example ./examples/$$e; \
		$$d/example > $$d/$$e.txt || { echo "smoke: example $$e exited non-zero"; cat $$d/$$e.txt; exit 1; }; \
		case $$e in hotspot|pathexpr) ;; \
		*) grep -qE '(✓|: true)$$' $$d/$$e.txt || { echo "smoke: example $$e: no ✓ or true verdict"; cat $$d/$$e.txt; exit 1; };; esac; \
		echo "smoke: example $$e ok ($$(tail -1 $$d/$$e.txt))"; \
	done; \
	go run ./cmd/mutate nodedup e57-port-settle > $$d/mutate.txt || { echo "smoke: mutate nodedup e57-port-settle failed"; cat $$d/mutate.txt; exit 1; }; \
	for m in nodedup e57-port-settle; do grep -q "^killed .* $$m " $$d/mutate.txt || { echo "smoke: mutate $$m was not killed"; cat $$d/mutate.txt; exit 1; }; done; \
	echo "smoke: the fuzzer kills the nodedup mutant, a port test the e57-port-settle one ($$(head -2 $$d/mutate.txt | tr '\n' ';'))"; \
	go build -o $$d/check ./cmd/check; \
	$$d/check -quick -faults -overload -crash > $$d/check1.txt; \
	$$d/check -quick -faults -overload -crash > $$d/check2.txt; \
	cmp $$d/check1.txt $$d/check2.txt || { echo "smoke: two cmd/check runs differ"; diff $$d/check1.txt $$d/check2.txt; exit 1; }; \
	echo "smoke: check ok, two runs byte-identical ($$(tail -1 $$d/check1.txt))"

# mutate applies every seeded bug of mutants.txt to a copy of the working
# tree, compiles the edited packages with their tests and runs its kill
# check there (cmd/mutate): each entry prints killed, survived, timed out or
# error (a mutant that does not build) with its wall time, and a survivor
# or an error fails.  Too slow for CI, which runs the nodedup and
# e57-port-settle entries alone in smoke.
mutate:
	go run ./cmd/mutate

# bench regenerates the committed cycle-domain baseline (EXPERIMENTS.md
# §Measured baselines): ten sections, 82 points, every one a function of its
# seed, so a second run writes the same bytes.
bench:
	go run ./cmd/experiments -bench -out BENCH_combining.json

# benchcmp is the cycle-domain regression gate (CI runs it): it regenerates
# the baseline into a temporary directory (~6 s on two processors) and diffs
# it against the committed one — -fail exits 1 if any results value or
# digest moved at all or a committed point is missing — then generates it a
# second time and requires the two fresh files to be the same bytes.  The
# file holds nothing wall-clock: those numbers come from `make parbench`,
# `make syncbench` and bench/run.sh.
benchcmp:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; set -x; \
	go run ./cmd/experiments -bench -out $$d/first.json; \
	go run ./cmd/benchcmp -fail BENCH_combining.json $$d/first.json; \
	go run ./cmd/experiments -bench -out $$d/second.json; \
	cmp $$d/first.json $$d/second.json

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
# two barrier families at widths 2–64 (EXPERIMENTS.md E23).  This is the
# live home of what BENCH_combining.json's sync_primitives section used to
# record once; bench/run.sh's sync_* workloads measure the same primitives
# with an estimator.
syncbench:
	go test -bench=BenchmarkSync -benchmem ./pkg/sync/

# parbench runs the parallel-stepper and barrier microbenchmarks (the E15
# curve and barrier table) and the pool's dispatch (BenchmarkPoolRun: µs
# per 2-worker Run of 20 barrier phases, with and without a serial gap
# between Runs) — the live home of what BENCH_combining.json's
# parallel_speedup and barrier_microbench sections used to record once;
# bench/run.sh --trace 1 reports par.speedup_vs_serial and
# par.barrier_sync_ns with an estimator.
parbench:
	go test -bench='BenchmarkParallelStep|BenchmarkBarrier|BenchmarkPoolRun' -benchmem ./internal/network/ ./internal/par/

# stepbench prices one serial cycle of the 256-processor omega machine and
# the 256-node cube (BenchmarkStep: uniform, a 1/8 hot spot with combining,
# the same with combining off, and the fault-mode cycle — on the cube
# bench/run.sh's cube_faulted, on omega the same plan plus a module
# slowdown window; ns/cycle, ns/switch-visit, allocs) — the loop
# every cycle-domain experiment and bench/run.sh's simulator workloads spend
# their time in.
stepbench:
	go test -run '^$$' -bench=BenchmarkStep -benchmem ./internal/network/ ./internal/hypercube/

# stepcmp prices the working tree's cycle against another commit's, as E20,
# E22 and E26 each did by hand: BenchmarkStep's two test binaries are built
# once for REF (a `git archive` of it in a temporary directory, which honours
# TMPDIR) and once for the working tree, then run alternately for ROUNDS
# rounds of 3000 cycles, the order flipped every round — this host's clock
# swings 10–30 % between runs, so only interleaved pairs compare.  Beside
# BenchmarkStep's cases it runs BenchmarkParallelStep's n256, n1024,
# n1024hot8 (bench/run.sh's omega_parallel machine and traffic), n1024sat
# (the same with combining off: tree saturation at 1024 processors) and
# n256faulted (BenchmarkStep/faulted's machine and plan) at w1 and w2, so a
# stepper change is screened at both widths and against both of
# ROADMAP item 9's bars (w2/w1 at 1024 and at 256 processors).  Prints min / first
# quartile / median µs per cycle (ns/op: one Step per op) of each side and
# the ratios ref/tree (> 1: the tree is faster), beside them each side's
# heap allocations per cycle (allocs/op under -test.benchmem, the mean over
# the rounds), then each side's w2/w1 speed-up of the medians per parallel
# case.  No threshold; CI runs it with ROUNDS=2 REF=HEAD as a smoke.
REF ?= HEAD
ROUNDS ?= 12
stepcmp:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir $$d/ref; \
	git archive $(REF) | tar -x -C $$d/ref; \
	for p in network hypercube; do \
		(cd $$d/ref && go test -c -o $$d/ref-$$p.test ./internal/$$p/); \
		go test -c -o $$d/tree-$$p.test ./internal/$$p/; \
	done; \
	run() { for c in 'network:^BenchmarkStep$$' 'network:^BenchmarkParallelStep$$/^(n256|n1024|n1024hot8|n1024sat|n256faulted)$$/^w[12]$$' 'hypercube:^BenchmarkStep$$'; do \
		p=$${c%%:*}; (cd internal/$$p && $$d/$$1-$$p.test -test.run '^$$' -test.bench "$${c#*:}" -test.benchtime 3000x -test.benchmem -test.timeout 10m) | \
		awk -v side=$$1 -v p=$$p '/^Benchmark(Parallel)?Step\// { sub(/^BenchmarkStep\//, "", $$1); sub(/^BenchmarkParallelStep\//, "parallel/", $$1); \
			sub(/-[0-9]+$$/, "", $$1); for (i = 3; i < NF; i++) { if ($$(i+1) == "ns/op") us = $$i / 1000; if ($$(i+1) == "allocs/op") al = $$i } \
			print side, p "/" $$1, us, al }'; done; }; \
	for r in $$(seq 1 $(ROUNDS)); do \
		if [ $$((r % 2)) = 1 ]; then run ref; run tree; else run tree; run ref; fi; \
	done | sort -k2,2 -k1,1 -k3,3g | awk ' \
		function q(f) { i = 1 + (n - 1) * f; lo = int(i); return v[lo] + (i - lo) * (v[lo < n ? lo + 1 : lo] - v[lo]) } \
		function flush() { if (n) { m[key] = v[1]; q1[key] = q(0.25); md[key] = q(0.5); al[key] = asum / n } n = 0; asum = 0 } \
		{ if ($$1 " " $$2 != key) { flush(); key = $$1 " " $$2; if ($$1 == "ref") cases[++nc] = $$2 } v[++n] = $$3; asum += $$4 } \
		END { flush(); printf "%-28s %26s   %26s   %-23s   %s\n", "us/cycle: min / q1 / median", "$(REF)", "working tree", "ratio min / q1 / median", "allocs/cycle ref / tree"; \
		for (c = 1; c <= nc; c++) { a = "ref " cases[c]; b = "tree " cases[c]; \
			printf "%-28s %8.1f %8.1f %8.1f   %8.1f %8.1f %8.1f   %5.2fx %5.2fx %5.2fx   %7.1f %7.1f\n", cases[c], m[a], q1[a], md[a], m[b], q1[b], md[b], m[a]/m[b], q1[a]/q1[b], md[a]/md[b], al[a], al[b] } \
		for (c = 1; c <= nc; c++) if (cases[c] ~ /\/w2$$/) { w = cases[c]; sub(/w2$$/, "w1", w); if (("ref " w) in md) { \
			l = substr(w, 1, length(w) - 3); sub(/^network\//, "", l); \
			printf "%-28s %26.2fx   %26.2fx\n", "w2/w1 " l, md["ref " w]/md["ref " cases[c]], md["tree " w]/md["tree " cases[c]] } } }'

# benchpairs runs the repository benchmark (bench/run.sh's program, at its
# own run length) on REF and on the working tree in PAIRS alternating pairs
# of WORKLOAD, the order flipped every pair and the seeds of SEEDS
# (comma-separated) taken in turn.  Both binaries are built once into a
# temporary directory (REF from a `git archive` of it, which honours TMPDIR)
# and every run writes there, nothing under bench/.  For each end-to-end
# metric it prints both sides' quartiles, the pairs the tree won and the
# verdict: failed more (the tree failed a larger share of operations), gain
# (nine pairs in ten won and a median gap wider than REF's quartile spread),
# better (every tree run beats every REF run), regression (median worse
# than the bound), within bound, or unresolved (REF's spread wider than the
# bound).  CI runs it with PAIRS=1 WORKLOAD=sync_matched REF=HEAD as a smoke.
WORKLOAD ?= omega_parallel
SEEDS ?= 1
PAIRS ?= 10
benchpairs:
	go run ./cmd/benchpairs -ref $(REF) -workload $(WORKLOAD) -seeds $(SEEDS) -pairs $(PAIRS)

# profile runs the omega BenchmarkStep under the CPU and memory profilers
# and leaves cpu.out/mem.out (and the test binary they resolve against) for
# `go tool pprof -top network.test cpu.out`.
profile:
	go test -run '^$$' -bench=BenchmarkStep -benchtime=20000x -o network.test \
		-cpuprofile cpu.out -memprofile mem.out ./internal/network/
	@echo "profiles written: cpu.out mem.out (inspect with go tool pprof -top network.test cpu.out)"

# loc prints the code-line count simplification work is judged by: per
# directory, the lines of its non-test Go files that are neither blank nor
# comment-only — grep -vc '^\s*\(//.*\)\?$$'.  The engine packages are
# totalled; internal/par, their pool and phase barrier, follows on its own
# row, then the two commands behind BENCH_combining.json, the drivers that
# build machines by name, cmd/mutate, the fault plans, the program harness,
# the checkers and the facade (the root package) follow, and last the same
# count over every non-test .go file of the repository outside bench/, and
# the number of directories holding one: its non-test Go packages, so a
# change that deletes or adds a package shows it.
# Informational; CI prints it and never fails on it.
loc:
	@count() { n=0; for f in $$1/*.go; do case $$f in *_test.go) continue;; esac; \
	n=$$((n + $$(grep -vc '^\s*\(//.*\)\?$$' $$f))); done; printf '%-15s %5d\n' $${2:-$${1#internal/}} $$n; }; \
	total=0; for p in engine network hypercube busnet; do count internal/$$p; total=$$((total + n)); done; \
	printf '%-15s %5d\n' total $$total; \
	for p in internal/par cmd/experiments cmd/benchcmp cmd/benchpairs cmd/check cmd/mutate cmd/replay cmd/combsim internal/faults internal/chaos internal/wiring internal/machine internal/serial; do count $$p; done; \
	count . facade; \
	find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs grep -vch '^\s*\(//.*\)\?$$' | \
		awk '{ n += $$1 } END { printf "%-15s %5d\n", "repo", n }'; \
	find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs -n1 dirname | sort -u | \
		awk 'END { printf "%-15s %5d\n", "packages", NR }'

fmt:
	gofmt -w .

vet:
	go vet ./...

cover:
	go test -cover ./internal/...
