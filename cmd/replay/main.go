// Command replay runs a request trace file, or one chaos-fuzzer scenario,
// on the cycle-accurate combining machine through the invariant battery
// (completion, per-location serializability against final memory,
// exactly-once): it prints a summary and a verdict line, and exits 1 on a
// violation.
//
// Usage:
//
//	replay -n 16 [-topology omega] [-combining] [-queue 4] [-plan <spec>]
//	       [-crash 0] [-crashseed 0] trace.txt
//	replay -gen -n 16 -ops 200 -h 0.25   (emit a synthetic trace to stdout)
//	replay -chaos -topology torus -n 8 -ops 10 -addrs 4 -seed 7 -plan <spec>
//
// Trace format: one request per line, "#" comments:
//
//	<cycle> <proc> <addr> <op> [arg]
//	op ∈ load | store v | swap v | add a | or a | and a | xor a | min a | max a
//
// Each line is one instruction of processor proc's program, issued no
// earlier than cycle.
//
// -topology picks the wiring, any name internal/wiring registers: the
// radix-2 or radix-4 omega network or the fat-tree on the staged engine,
// the binary hypercube or near-square torus on the direct engine, or the
// bus machine.
//
// -plan replays under an explicit deterministic fault plan, written as the
// comma-joined key=value spec EncodeFaultPlan emits (e.g.
// "seed=7,droprev=0.01,dup=0.02,retry=256") — the form the chaos fuzzer's
// shrunk reproducers travel in.
//
// With -chaos the positional trace is replaced by one fuzzer scenario:
// the seeded randomized workload (-seed, -ops, -addrs) runs under -plan on
// -topology through the same battery — replaying a shrunk reproducer
// deterministically reproduces the bug it was shrunk from.  The scenario
// fixes its own machine (default queues, wait buffers of 64), so -queue and
// -combining are rejected beside -chaos.
//
// With -crash > 0 the trace replays under a deterministic crash–restart
// plan: that many seeded crash windows of each kind (switch, memory
// module, link), periodic checkpoints, and exactly-once recovery of
// everything a crash flushes.  -crashseed seeds the schedule (0 uses the
// default schedule for seed 1); the same trace under the same crash seed
// replays identically.
//
// Nonsense flag values and flag combinations are rejected at parse time
// with a one-line error and exit status 2.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"

	combining "combining"
)

func main() {
	var (
		n         = flag.Int("n", 16, "processors (power of two; power of four on -topology omega4)")
		topo      = flag.String("topology", "omega", "one of "+strings.Join(combining.Wirings(), ", "))
		comb      = flag.Bool("combining", true, "enable combining")
		queue     = flag.Int("queue", 4, "switch queue capacity")
		gen       = flag.Bool("gen", false, "generate a synthetic trace to stdout instead of replaying")
		ops       = flag.Int("ops", 200, "requests per processor (generation and -chaos workloads)")
		genHot    = flag.Float64("h", 0.25, "hot fraction when generating")
		seed      = flag.Uint64("seed", 1, "workload seed (generation and -chaos)")
		addrs     = flag.Int("addrs", 4, "shared addresses for -chaos workloads")
		chaosRun  = flag.Bool("chaos", false, "replay one chaos-fuzzer scenario instead of a trace (requires -plan)")
		planSpec  = flag.String("plan", "", "fault-plan spec (comma-joined key=value; see EncodeFaultPlan)")
		crash     = flag.Int("crash", 0, "crash–restart windows of each kind to schedule (0 = none)")
		crashseed = flag.Uint64("crashseed", 0, "seed for the crash schedule (0 = seed 1)")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "replay: "+format+"\n", args...)
		os.Exit(2)
	}
	if *crash < 0 {
		fail("-crash must be ≥ 0 — a count of crash windows, got %d", *crash)
	}
	if *crashseed != 0 && *crash == 0 {
		fail("-crashseed %d without -crash — nothing to schedule", *crashseed)
	}
	if *planSpec != "" && *crash > 0 {
		fail("-plan and -crash both specify the fault plan — pick one")
	}
	if *chaosRun {
		if *gen {
			fail("-chaos and -gen are exclusive")
		}
		if *planSpec == "" {
			fail("-chaos requires -plan — the scenario's fault plan")
		}
		if *addrs < 1 {
			fail("-addrs must be ≥ 1, got %d", *addrs)
		}
		if flag.NArg() != 0 {
			fail("-chaos takes no trace file")
		}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "queue" || f.Name == "combining" {
				fail("-%s does not apply to -chaos — the scenario fixes its machine (default queues, wait buffers of 64)", f.Name)
			}
		})
	}
	var plan *combining.FaultPlan
	if *planSpec != "" {
		var err error
		if plan, err = combining.ParseFaultPlan(*planSpec); err != nil {
			fail("%v", err)
		}
	}

	if *gen {
		generate(*n, *ops, *genHot, *seed)
		return
	}
	// One validation for either machine below (they differ only in queue
	// and wait-buffer sizes and the plan, none of which a serial machine's
	// Validate rejects): a bad -topology or -n is a one-line error, not a
	// stack trace from an engine constructor.
	cfg := combining.WiringConfig{Procs: *n, QueueCap: *queue}
	if _, err := combining.NewWiring(*topo, cfg); err != nil {
		fail("%v", err)
	}
	if *chaosRun {
		runChaos(*topo, *n, *ops, *addrs, *seed, plan)
		return
	}

	if flag.NArg() != 1 {
		fail("exactly one trace file required (or -gen / -chaos)")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(1)
	}
	progs, err := combining.ParseTrace(f, *n)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(1)
	}
	if *comb {
		cfg.WaitBufCap = combining.Unbounded
	}
	if *crash > 0 {
		cs := *crashseed
		if cs == 0 {
			cs = 1
		}
		// Spread the crash windows over the trace's issue span so they
		// actually overlap live traffic.
		horizon := int64(2000)
		for _, prog := range progs {
			for _, in := range prog {
				horizon = max(horizon, in.MinCycle+2000)
			}
		}
		plan = combining.GenCrashPlan(cs, *crash, horizon, 80)
		plan.RetryTimeout = 512
	}
	cfg.Faults = plan
	const maxCycles = 10_000_000
	_, eng, c, err := combining.CheckBattery(*topo, cfg, progs, maxCycles)
	if eng == nil {
		fail("%v", err)
	}
	fmt.Printf("replayed %d requests on %d processors (%s) in %d cycles\n",
		c["issued"], *n, *topo, c["cycles"])
	cycles := c["cycles"]
	if cycles == 0 {
		cycles = 1
	}
	fmt.Printf("bandwidth %.3f ops/cycle, combines %d, memory accesses %d\n",
		float64(c["completed"])/float64(cycles), c["combines"],
		c["mem_requests"]+c["mem_ops"]+c["bank_ops"])
	fmt.Printf("mean latency %.1f cycles, wait-buffer rejects %d\n",
		eng.Totals().MeanLatency(), c["combine_rejects"])
	if plan != nil {
		fmt.Printf("faults injected %d, retries %d, dedup hits %d\n",
			c["faults_injected"], c["retries"], c["dedup_hits"])
	}
	if *crash > 0 {
		fmt.Printf("crashes %d, restores %d, checkpoints %d, lost in flight %d, replayed %d\n",
			c["crashes"], c["restores"], c["checkpoints"],
			c["lost_in_flight"], c["replayed_requests"])
	}
	if err != nil {
		fmt.Printf("trace VIOLATION: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trace passed on %s: %d ops exactly-once, serializable\n", *topo, c["completed"])
}

// runChaos replays one fuzzer scenario and reports the verdict: exit 0
// with a counter summary when every invariant holds, exit 1 with the
// violation when the scenario reproduces a bug.
func runChaos(topo string, n, ops, addrs int, seed uint64, plan *combining.FaultPlan) {
	sc := combining.ChaosScenario{
		Topology: topo, Procs: n, Ops: ops, Addrs: addrs,
		WorkloadSeed: seed, Plan: plan,
	}
	counters, err := combining.RunChaos(sc)
	if err != nil {
		fmt.Printf("chaos scenario VIOLATION: %v\n", err)
		if counters != nil {
			fmt.Printf("counters: faults %d, retries %d, reordered %d, dup %d, corrupt-dropped %d\n",
				counters["faults_injected"], counters["retries"], counters["reordered_held"],
				counters["dup_injected"], counters["corrupt_dropped"])
		}
		os.Exit(1)
	}
	fmt.Printf("chaos scenario passed on %s: %d ops exactly-once, serializable\n",
		topo, counters["completed"])
	fmt.Printf("counters: faults %d, retries %d, reordered %d, dup %d, corrupt-dropped %d\n",
		counters["faults_injected"], counters["retries"], counters["reordered_held"],
		counters["dup_injected"], counters["corrupt_dropped"])
}

func generate(n, ops int, h float64, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 2*seed+1))
	progs := make([][]combining.Instr, n)
	for p := range progs {
		cycle := int64(0)
		for i := 0; i < ops; i++ {
			cycle += int64(rng.IntN(4))
			addr := combining.Addr(0)
			if rng.Float64() >= h {
				addr = combining.Addr(1 + rng.IntN(64*n))
			}
			progs[p] = append(progs[p], combining.Instr{Addr: addr, Op: combining.FetchAdd(1), MinCycle: cycle})
		}
	}
	if err := combining.WriteTrace(os.Stdout, progs); err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(1)
	}
}
