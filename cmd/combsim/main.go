// Command combsim runs hot-spot sweeps on the cycle-accurate combining
// network simulator (experiment E8/E9) and prints a table or CSV.
//
// Usage:
//
//	combsim [-machine omega,procs=64,queue=4] [-rate 0.6] [-cycles 4000]
//	        [-window 4] [-seed 1] [-h 0,0.0625,0.125,0.25] [-adaptive] [-csv]
//	        [-plan <spec>] [-crash 0] [-crashseed 0]
//	        [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -machine is the machine as one spec (ParseMachine): a wiring name, any
// name internal/wiring registers (the paper's omega network at radix 2 or
// 4, a fat-tree (k-ary butterfly) on the same staged engine, the binary
// hypercube, a near-square torus on the same direct-connection engine, or
// the bus machine), then comma-joined keys: procs, queue, rev and mem (the
// forward, reverse and memory-side queue capacities; on the bus mem is the
// bank queue), banks (the bus's bank count), workers (goroutines sharding
// each cycle's engine work; the output is identical at any setting, see
// DESIGN.md §6) and a bare reversal.  0 takes the engine default and
// negative is unbounded.  Every h runs twice, combining off and on: wait
// is the wait-buffer capacity of the combining rows, unbounded when the
// spec leaves it out.
//
// With -plan the sweep runs under an explicit fault plan written as the
// comma-joined key=value spec EncodeFaultPlan emits: drops, stalls and the
// adversarial delivery kinds (reorder, dup, corrupt).  The E13 degradation
// curve is -plan seed=1,dropfwd=0.01,droprev=0.01,retry=512, a drop
// probability per forward and reply hop with a long retransmit timeout
// floor (retry= is the floor of the estimated timeout, retrycap= its
// ceiling).
//
// With -crash > 0 the plan additionally schedules that many seeded
// crash–restart windows of each kind (switch, memory module, link) across
// the run, arming deterministic checkpoints and the crash-recovery layer
// (experiment E16).  -crashseed seeds the crash schedule independently of
// the workload (0 reuses -seed), so the same traffic can be replayed under
// different crash timings.  A -plan that already schedules crashes is
// rejected beside -crash.
//
// -adaptive replaces the fixed window with AIMD admission control (the
// E14 experiment): -window becomes the controller's initial window.
//
// -cpuprofile and -memprofile write pprof profiles of the sweep (the CPU
// profile covers the simulation loop; the heap profile is captured after
// it, post-GC, so it shows retained state rather than transient garbage).
// `make profile` wraps a representative hot-spot run.  Inspect with
// `go tool pprof -top <file>`.
//
// Nonsense flag values are rejected at parse time with a one-line error
// and exit status 2 rather than panicking (or silently producing a bogus
// table) deep inside an engine: flag-shape checks here, everything the
// engines police through ParseMachine before any point runs.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	combining "combining"
)

func main() {
	var (
		machineSpec = flag.String("machine", "omega,procs=64,queue=4", "machine spec: a wiring ("+strings.Join(combining.Wirings(), ", ")+"), then procs, queue, rev, mem, wait, banks, workers, reversal")
		rate        = flag.Float64("rate", 0.6, "per-cycle issue probability")
		cycles      = flag.Int("cycles", 4000, "cycles per point")
		window      = flag.Int("window", 4, "outstanding requests per processor")
		seed        = flag.Uint64("seed", 1, "workload seed")
		hList       = flag.String("h", "0,0.0625,0.125,0.25", "comma-separated hot fractions")
		adaptive    = flag.Bool("adaptive", false, "AIMD admission control instead of a fixed window (-window is the initial window)")
		csv         = flag.Bool("csv", false, "emit CSV instead of a table")
		crash       = flag.Int("crash", 0, "crash–restart windows of each kind to schedule (0 = none)")
		crashseed   = flag.Uint64("crashseed", 0, "seed for the crash schedule (0 = reuse -seed)")
		planSpec    = flag.String("plan", "", "explicit fault-plan spec (comma-joined key=value; see EncodeFaultPlan)")
		cpuprof     = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprof     = flag.String("memprofile", "", "write a pprof heap profile (captured after the sweep) to this file")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "combsim: "+format+"\n", args...)
		os.Exit(2)
	}
	if *rate <= 0 || *rate > 1 {
		fail("-rate must be in (0, 1], got %g", *rate)
	}
	if *cycles < 1 {
		fail("-cycles must be ≥ 1, got %d", *cycles)
	}
	if *window < 0 {
		fail("-window must be ≥ 0 (0 means the default of 4), got %d", *window)
	}
	if *crash < 0 {
		fail("-crash must be ≥ 0 — a count of crash windows, got %d", *crash)
	}
	if *crashseed != 0 && *crash == 0 {
		fail("-crashseed %d without -crash — nothing to schedule", *crashseed)
	}

	var hs []float64
	for _, s := range strings.Split(*hList, ",") {
		h, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fail("bad hot fraction %q in -h: %v", s, err)
		}
		if h < 0 || h > 1 {
			fail("hot fraction %g in -h outside [0, 1]", h)
		}
		hs = append(hs, h)
	}
	if len(hs) == 0 {
		fail("-h lists no hot fractions")
	}
	// The spec is the whole machine, and ParseMachine's check covers the
	// whole sweep (points differ only in the wait-buffer capacity, which no
	// engine rejects): a bad wiring, key or processor count is a one-line
	// error, not a stack trace from inside an engine constructor.
	topo, cfg, err := combining.ParseMachine(*machineSpec)
	if err != nil {
		fail("%v", err)
	}
	n := cfg.Procs

	injectors := func(h float64) []combining.Injector {
		inj := make([]combining.Injector, n)
		for p := 0; p < n; p++ {
			inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{
				Rate: *rate, HotFraction: h, Window: *window, Adaptive: *adaptive,
			}, *seed)
		}
		return inj
	}
	var plan *combining.FaultPlan
	if *planSpec != "" {
		if plan, err = combining.ParseFaultPlan(*planSpec); err != nil {
			fail("%v", err)
		}
		if plan.HasCrashes() && *crash > 0 {
			fail("-crash beside a -plan that already schedules crashes — pick one")
		}
	}
	if *crash > 0 {
		cs := *crashseed
		if cs == 0 {
			cs = *seed
		}
		// Dead time scales with the run so short sweeps still restart
		// inside the measured window.
		dead := int64(*cycles / 25)
		if dead < 20 {
			dead = 20
		}
		gen := combining.GenCrashPlan(cs, *crash, int64(*cycles), dead)
		if plan == nil {
			plan = &combining.FaultPlan{Seed: *seed, RetryTimeout: 512}
		}
		plan.Crashes = gen.Crashes
		plan.MemCrashes = gen.MemCrashes
		plan.LinkCrashes = gen.LinkCrashes
		plan.CheckpointEvery = gen.CheckpointEvery
	}
	cfg.Faults = plan
	wait := cmp.Or(cfg.WaitBufCap, combining.Unbounded)

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail("-cpuprofile: %v", err)
			}
		}()
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fail("-memprofile: %v", err)
		}
		defer func() {
			// Post-GC snapshot: retained simulator state, not the garbage
			// the sweep happened to leave unreclaimed.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail("-memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				fail("-memprofile: %v", err)
			}
		}()
	}

	if *csv {
		fmt.Println("n,h,combining,bandwidth,mean_latency,cold_latency,combines,limit")
	} else {
		fmt.Printf("machine=%s rate=%.2f window=%d cycles=%d\n\n",
			combining.EncodeMachine(topo, cfg), *rate, *window, *cycles)
		fmt.Println("   h     comb |  ops/cycle   latency   cold-lat   combines |  limit")
		fmt.Println("-------------+--------------------------------------------+-------")
	}
	for _, h := range hs {
		for _, comb := range []bool{false, true} {
			cfg.WaitBufCap = 0
			if comb {
				cfg.WaitBufCap = wait
			}
			build, err := combining.NewWiring(topo, cfg)
			if err != nil {
				fail("%v", err)
			}
			sim := build(injectors(h))
			sim.Run(*cycles)
			t := sim.Totals()
			limit := combining.AsymptoticHotBandwidth(n, h)
			if *csv {
				fmt.Printf("%d,%g,%v,%.4f,%.2f,%.2f,%d,%.4f\n",
					n, h, comb, t.Bandwidth(), t.MeanLatency(),
					t.ColdMeanLatency(), t.Combines, limit)
			} else {
				fmt.Printf(" %6.4f  %-4v |  %9.2f  %8.1f  %9.1f  %9d | %6.2f\n",
					h, comb, t.Bandwidth(), t.MeanLatency(),
					t.ColdMeanLatency(), t.Combines, limit)
			}
		}
	}
}
