// Command check is a correctness soak: it runs randomized programs on the
// combining machine across configurations, seeds and operation families,
// and verifies every execution with the Theorem 4.2 serializability
// checker and the linearizability checker.  It is the long-running version
// of the test suite's E4, intended for overnight confidence runs.
//
// With -faults it additionally soaks all four engines — the staged engine
// on both the omega and fat-tree wirings, the direct engine on both the
// hypercube and torus wirings — under deterministic fault plans (link
// drops, switch blackouts, memory slowdowns) and checks that recovery
// preserves per-location serializability and exactly-once RMW semantics.
// Every failure prints the effective seed of the run, so `check -seed
// <that seed> -rounds 1` replays it exactly.
//
// With -overload it runs the deadlock-freedom soak: a pure hot spot
// driven through every engine with every queue at its minimum capacity
// (forward, reverse, and memory queues at 1; channel capacity 1 on the
// goroutine engine), clean and under fault plans, watchdog-guarded.  The
// runs must complete with zero watchdog trips and replies matching the
// serial prefix sums.
//
// With -parallel it runs the determinism soak for the sharded steppers:
// each cycle engine (again on every wiring) executes the same seeded
// workload at Workers = 1, 2 and 4, and every run must produce a
// byte-identical stats snapshot and identical per-processor reply
// sequences (DESIGN.md §6), clean and under fault plans.
//
// With -crash it runs the crash–restart soak (experiment E16): every
// cycle-engine wiring executes randomized programs while whole components
// die and come back — a switch flushing its queues, a memory module
// rolling back to its last checkpoint, a link going dark for a burst —
// first under crash windows alone, then under crashes combined with
// message drops.  Acceptance is exactly-once completion (issued ==
// completed, every crash-flushed operation replayed), per-location
// serializability, and the crash machinery demonstrably engaging
// (nonzero crashes/restores/checkpoints across the soak).
//
// With -chaos it runs the fault-plan fuzzer (experiment E17): -rounds
// sampled plans per wiring, each mixing every fault kind — drops, stalls,
// slowdowns, crashes, reordering, duplication, corruption — under seeded
// randomized programs on all six wirings.  Any invariant violation is
// shrunk to a minimal scenario (windows dropped, fault kinds zeroed,
// probabilities halved) and reported as a `cmd/replay -chaos` command
// line that replays it deterministically.  A soak in which an adversarial
// fault kind never fired is a vacuous pass and fails.  -canary arms a
// named seeded bug (e.g. "nodedup", which disables reply-cache dedup) in
// every sampled plan, to prove the fuzzer finds and shrinks real bugs.
//
// With -synclib it soaks the pkg/sync primitives at acceptance scale:
// the MCS lock guards a non-atomic counter from 100k goroutines with every
// critical section's observed old value checked against the Lemma 4.1
// serial oracle; the combining-tree barrier holds thousands of participants in
// phase lockstep (plus one 100k-wide episode); the sharded counter's Read
// must equal combining.SerialReplies on the full trace of adds.  Run it
// under -race (the Makefile and CI do).
//
// Usage: check [-rounds 50] [-procs 16] [-ops 20] [-addrs 4] [-seed 1]
// [-quick] [-faults] [-overload] [-parallel] [-crash] [-chaos]
// [-canary nodedup] [-synclib] [-v]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"

	combining "combining"
)

func main() {
	var (
		rounds   = flag.Int("rounds", 50, "randomized executions per configuration")
		procs    = flag.Int("procs", 16, "processors (power of two)")
		ops      = flag.Int("ops", 20, "operations per processor")
		addrs    = flag.Int("addrs", 4, "shared addresses (smaller = hotter)")
		seed     = flag.Uint64("seed", 1, "base seed; round r runs with seed+r")
		quick    = flag.Bool("quick", false, "small CI-sized soak (shrinks rounds/procs/ops)")
		doFaults = flag.Bool("faults", false, "also soak all four engines under fault plans")
		overload = flag.Bool("overload", false, "deadlock-freedom soak: every queue at capacity 1 on all four engines")
		parallel = flag.Bool("parallel", false, "determinism soak: cycle engines at Workers = 1, 2, 4 must match byte-for-byte")
		doCrash  = flag.Bool("crash", false, "crash–restart soak: checkpointed recovery on every wiring, crash-only and crash+drop")
		doChaos  = flag.Bool("chaos", false, "fault-plan fuzzer: sampled plans mixing every fault kind on all six wirings; violations shrink to a replayable reproducer")
		synclib  = flag.Bool("synclib", false, "pkg/sync soak: MCS lock, combining-tree barrier and sharded counter at 100k goroutines, differentially checked against the serial oracle")
		canary   = flag.String("canary", "", "arm a named seeded bug (e.g. nodedup) in every chaos plan — the fuzzer must find and shrink it")
		verbose  = flag.Bool("v", false, "log every execution")
	)
	flag.Parse()
	if *canary != "" && !*doChaos {
		fmt.Fprintf(os.Stderr, "check: -canary %s without -chaos — nothing to fuzz\n", *canary)
		os.Exit(2)
	}
	if *quick {
		*rounds, *procs, *ops = 6, 8, 12
	}
	// Engine-shape validation up front, through the one Config.Validate
	// path: a bad -procs is a one-line exit, not a stack trace from an
	// engine constructor mid-soak.
	for _, err := range []error{
		combining.NetConfig{Procs: *procs}.Validate(),
		combining.CubeConfig{Nodes: *procs}.Validate(),
		combining.BusConfig{Procs: *procs, Banks: 4}.Validate(),
	} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "check: %v\n", err)
			os.Exit(2)
		}
	}

	checked, failed := healthySoak(*rounds, *procs, *ops, *addrs, *seed, *verbose)
	if *doFaults {
		fc, ff := faultSoak(*rounds, *procs, *ops, *addrs, *seed, *verbose)
		checked += fc
		failed += ff
	}
	if *overload {
		oc, of := overloadSoak(*rounds, *procs, *ops, *seed, *verbose)
		checked += oc
		failed += of
	}
	if *parallel {
		pc, pf := parallelSoak(*rounds, *procs, *ops, *addrs, *seed, *verbose)
		checked += pc
		failed += pf
	}
	if *doCrash {
		cc, cf := crashSoak(*rounds, *procs, *ops, *addrs, *seed, *verbose)
		checked += cc
		failed += cf
	}
	if *doChaos {
		hc, hf := chaosSoak(*rounds, *seed, *canary, *verbose)
		checked += hc
		failed += hf
	}
	if *synclib {
		sc, sf := synclibSoak(*verbose)
		checked += sc
		failed += sf
	}
	fmt.Printf("\n%d executions checked, %d failures\n", checked, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// healthySoak is the original no-fault soak across combining configurations.
func healthySoak(rounds, procs, ops, addrs int, seed uint64, verbose bool) (checked, failed int) {
	configs := []struct {
		name string
		cfg  combining.NetConfig
	}{
		{"no-combining", combining.NetConfig{Procs: procs, WaitBufCap: 0}},
		{"partial-1", combining.NetConfig{Procs: procs, WaitBufCap: 1}},
		{"partial-4", combining.NetConfig{Procs: procs, WaitBufCap: 4}},
		{"full", combining.NetConfig{Procs: procs, WaitBufCap: combining.Unbounded}},
		{"full+reversal", combining.NetConfig{Procs: procs, WaitBufCap: combining.Unbounded, AllowReversal: true}},
		{"radix-4", combining.NetConfig{Procs: procs, Radix: 4, WaitBufCap: combining.Unbounded}},
	}

	for _, c := range configs {
		if c.cfg.Radix == 4 && !isPow(procs, 4) {
			continue
		}
		for r := 0; r < rounds; r++ {
			eff := seed + uint64(r)
			rng := rand.New(rand.NewPCG(eff, 1234))
			progs := randomPrograms(rng, procs, ops, addrs)
			m := combining.NewMachine(c.cfg, progs)
			if !m.Run(10_000_000) {
				fmt.Printf("FAIL %s seed %d: machine did not complete (replay: -seed %d -rounds 1)\n", c.name, eff, eff)
				failed++
				continue
			}
			final := map[combining.Addr]combining.Word{}
			for a := 0; a < addrs; a++ {
				final[combining.Addr(a)] = m.Sim().Memory().Peek(combining.Addr(a))
			}
			checked++
			if err := combining.CheckM2WithFinal(m.History(), nil, final); err != nil {
				fmt.Printf("FAIL %s seed %d: %v (replay: -seed %d -rounds 1)\n", c.name, eff, err, eff)
				failed++
				continue
			}
			if err := combining.CheckLinearizable(m.TimedHistory(), nil, final); err != nil {
				fmt.Printf("FAIL %s seed %d (linearizability): %v (replay: -seed %d -rounds 1)\n", c.name, eff, err, eff)
				failed++
				continue
			}
			if verbose {
				st := m.Sim().Stats()
				fmt.Printf("ok   %s seed %d: %d ops, %d combines\n", c.name, eff, st.Issued, st.Combines)
			}
		}
		fmt.Printf("%-14s %d executions verified\n", c.name, rounds)
	}
	return checked, failed
}

// faultSoak runs randomized programs under the default fault plan on the
// three cycle-driven engines, and a hot-spot soak on the goroutine engine,
// verifying M2 serializability and exactly-once completion.  Fault counts
// are aggregated per engine: a plan that injected nothing across every
// round means the injection path is disconnected, which is itself a
// failure.
func faultSoak(rounds, procs, ops, addrs int, seed uint64, verbose bool) (checked, failed int) {
	engines := []struct {
		name  string
		build func(plan *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine
	}{
		{"network+faults", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewSim(combining.NetConfig{Procs: procs, WaitBufCap: 64, Faults: p}, inj)
		}},
		{"fattree+faults", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewSim(combining.NetConfig{
				Topology: combining.FatTreeTopology(procs, 2), WaitBufCap: 64, Faults: p}, inj)
		}},
		{"busnet+faults", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewBusSim(combining.BusConfig{Procs: procs, Banks: 4, WaitBufCap: 64, Faults: p}, inj)
		}},
		{"hypercube+faults", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewCubeSim(combining.CubeConfig{Nodes: procs, WaitBufCap: 64, Faults: p}, inj)
		}},
		{"torus+faults", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewCubeSim(combining.CubeConfig{
				Topology: combining.SquareTorusTopology(procs), WaitBufCap: 64, Faults: p}, inj)
		}},
	}

	for _, e := range engines {
		var injectedTotal int64
		for r := 0; r < rounds; r++ {
			eff := seed + uint64(r)
			rng := rand.New(rand.NewPCG(eff, 1234))
			progs := randomPrograms(rng, procs, ops, addrs)
			plan := combining.DefaultFaultPlan(eff)
			m, inj := combining.NewMachineInjectors(progs)
			eng := e.build(plan, inj)
			m.BindEngine(eng)
			if !m.Run(10_000_000) {
				fmt.Printf("FAIL %s seed %d: programs did not complete, %d in flight (replay: -seed %d -rounds 1 -faults)\n",
					e.name, eff, eng.InFlight(), eff)
				failed++
				continue
			}
			final := map[combining.Addr]combining.Word{}
			for a := 0; a < addrs; a++ {
				final[combining.Addr(a)] = eng.Memory().Peek(combining.Addr(a))
			}
			checked++
			snap := eng.Snapshot()
			injectedTotal += snap.Counters["faults_injected"]
			if err := combining.CheckM2WithFinal(m.History(), nil, final); err != nil {
				fmt.Printf("FAIL %s seed %d: %v (replay: -seed %d -rounds 1 -faults)\n", e.name, eff, err, eff)
				failed++
				continue
			}
			if snap.Counters["issued"] != snap.Counters["completed"] {
				fmt.Printf("FAIL %s seed %d: issued %d != completed %d (replay: -seed %d -rounds 1 -faults)\n",
					e.name, eff, snap.Counters["issued"], snap.Counters["completed"], eff)
				failed++
				continue
			}
			if n := eng.InFlight(); n != 0 {
				fmt.Printf("FAIL %s seed %d: %d requests never delivered (replay: -seed %d -rounds 1 -faults)\n",
					e.name, eff, n, eff)
				failed++
				continue
			}
			if verbose {
				fmt.Printf("ok   %s seed %d: %d faults, %d retries, %d dedup hits\n",
					e.name, eff, snap.Counters["faults_injected"], snap.Counters["retries"], snap.Counters["dedup_hits"])
			}
		}
		if injectedTotal == 0 {
			fmt.Printf("FAIL %s: no faults injected across %d rounds — injection path disconnected\n", e.name, rounds)
			failed++
		}
		fmt.Printf("%-18s %d executions verified (%d faults injected)\n", e.name, rounds, injectedTotal)
	}

	// The goroutine engine: every port hammers one counter under drops;
	// the replies must be a permutation of the serial prefix sums.
	var injectedTotal int64
	for r := 0; r < rounds; r++ {
		eff := seed + uint64(r)
		injected, err := asyncFaultRound(procs, 8*ops, eff)
		checked++
		injectedTotal += injected
		if err != nil {
			fmt.Printf("FAIL asyncnet+faults seed %d: %v (replay: -seed %d -rounds 1 -faults)\n", eff, err, eff)
			failed++
		}
	}
	if injectedTotal == 0 {
		fmt.Printf("FAIL asyncnet+faults: no faults injected across %d rounds\n", rounds)
		failed++
	}
	fmt.Printf("%-18s %d executions verified (%d faults injected)\n", "asyncnet+faults", rounds, injectedTotal)
	return checked, failed
}

// asyncFaultRound runs one exactly-once soak on the goroutine engine.
func asyncFaultRound(procs, opsPerPort int, seed uint64) (injected int64, err error) {
	plan := &combining.FaultPlan{Seed: seed, DropFwd: 0.02, DropRev: 0.02}
	net := combining.NewAsyncNet(combining.AsyncConfig{Procs: procs, Combining: true, Faults: plan})
	defer net.Close()
	const hot = combining.Addr(1)

	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			port := net.Port(p)
			got := make([]int64, 0, opsPerPort)
			for i := 0; i < opsPerPort; i++ {
				got = append(got, port.RMW(hot, combining.FetchAdd(1)).Val)
			}
			vals[p] = got
		}(p)
	}
	wg.Wait()

	total := procs * opsPerPort
	if got := net.Memory().Peek(hot).Val; got != int64(total) {
		return 0, fmt.Errorf("final counter %d, want %d", got, total)
	}
	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			return 0, fmt.Errorf("sorted reply %d = %d, want %d (duplicate or lost RMW)", i, v, i)
		}
	}
	return net.Snapshot().Counters["faults_injected"], nil
}

// overloadSoak drives a pure hot spot through each engine with every
// queue at its minimum capacity — the configuration in which any flaw in
// the credit scheme deadlocks or livelocks — clean and under the default
// fault plan.  Completion with zero watchdog trips plus serial-prefix-sum
// replies is the deadlock-freedom acceptance check; a trip prints the
// engine's replayable stall report.
func overloadSoak(rounds, procs, ops int, seed uint64, verbose bool) (checked, failed int) {
	engines := []struct {
		name  string
		build func(plan *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine
	}{
		{"network", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewSim(combining.NetConfig{
				Procs: procs, QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: 4, Faults: p,
			}, inj)
		}},
		{"busnet", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewBusSim(combining.BusConfig{
				Procs: procs, Banks: 4, QueueCap: 1, BankQueueCap: 1,
				WaitBufCap: 4, Faults: p,
			}, inj)
		}},
		{"hypercube", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewCubeSim(combining.CubeConfig{
				Nodes: procs, QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1,
				WaitBufCap: 4, Faults: p,
			}, inj)
		}},
	}
	const hot = combining.Addr(0)
	modes := []struct {
		name string
		plan func(uint64) *combining.FaultPlan
	}{
		{"clean", func(uint64) *combining.FaultPlan { return nil }},
		{"faults", func(s uint64) *combining.FaultPlan { return combining.DefaultFaultPlan(s) }},
	}
	for _, e := range engines {
		for _, mode := range modes {
			name := e.name + "/overload-" + mode.name
			for r := 0; r < rounds; r++ {
				eff := seed + uint64(r)
				progs := make([][]combining.Instr, procs)
				for p := range progs {
					for i := 0; i < ops; i++ {
						progs[p] = append(progs[p], combining.RMW(hot, combining.FetchAdd(1)))
					}
				}
				m, inj := combining.NewMachineInjectors(progs)
				eng := e.build(mode.plan(eff), inj)
				m.BindEngine(eng)
				if !m.Run(10_000_000) {
					if eng.Stalled() {
						fmt.Printf("FAIL %s seed %d: %s\n", name, eff, eng.StallReport())
					} else {
						fmt.Printf("FAIL %s seed %d: did not complete, %d in flight (replay: -seed %d -rounds 1 -overload)\n",
							name, eff, eng.InFlight(), eff)
					}
					failed++
					continue
				}
				checked++
				total := int64(procs * ops)
				if got := eng.Memory().Peek(hot).Val; got != total {
					fmt.Printf("FAIL %s seed %d: final counter %d, want %d\n", name, eff, got, total)
					failed++
					continue
				}
				var all []int64
				for p := 0; p < procs; p++ {
					for i := 0; i < ops; i++ {
						all = append(all, m.Proc(p).Reply(i).Val)
					}
				}
				sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
				bad := false
				for i, v := range all {
					if v != int64(i) {
						fmt.Printf("FAIL %s seed %d: sorted reply %d = %d, want %d (lost or duplicated RMW)\n", name, eff, i, v, i)
						failed++
						bad = true
						break
					}
				}
				if bad {
					continue
				}
				snap := eng.Snapshot()
				if trips := snap.Counters["watchdog_trips"]; trips != 0 {
					fmt.Printf("FAIL %s seed %d: %d watchdog trips on a completed run\n", name, eff, trips)
					failed++
					continue
				}
				if verbose {
					fmt.Printf("ok   %s seed %d: %d ops, max rev queue %d, max mem queue %d\n",
						name, eff, total, snap.Gauges["max_rev_queue"], snap.Gauges["max_mem_queue"])
				}
			}
			fmt.Printf("%-26s %d executions verified\n", name, rounds)
		}
	}

	// The goroutine engine at channel capacity 1, clean and under drops.
	for _, mode := range modes {
		name := "asyncnet/overload-" + mode.name
		for r := 0; r < rounds; r++ {
			eff := seed + uint64(r)
			if err := asyncOverloadRound(procs, ops, mode.plan(eff)); err != nil {
				fmt.Printf("FAIL %s seed %d: %v (replay: -seed %d -rounds 1 -overload)\n", name, eff, err, eff)
				failed++
			} else {
				checked++
			}
		}
		fmt.Printf("%-26s %d executions verified\n", name, rounds)
	}
	return checked, failed
}

// asyncOverloadRound is one ChanCap=1 hot-spot soak on the goroutine
// engine: pipelined fetch-and-adds from every port, replies checked
// against the serial prefix sums.
func asyncOverloadRound(procs, opsPerPort int, plan *combining.FaultPlan) error {
	net := combining.NewAsyncNet(combining.AsyncConfig{
		Procs: procs, Combining: true, Window: 4, ChanCap: 1, Faults: plan,
	})
	defer net.Close()
	const hot = combining.Addr(1)

	vals := make([][]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			port := net.Port(p)
			got := make([]int64, 0, opsPerPort)
			for i := 0; i < opsPerPort; i++ {
				got = append(got, port.RMW(hot, combining.FetchAdd(1)).Val)
			}
			vals[p] = got
		}(p)
	}
	wg.Wait()

	total := procs * opsPerPort
	if got := net.Memory().Peek(hot).Val; got != int64(total) {
		return fmt.Errorf("final counter %d, want %d", got, total)
	}
	var all []int64
	for _, v := range vals {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != int64(i) {
			return fmt.Errorf("sorted reply %d = %d, want %d (lost or duplicated RMW)", i, v, i)
		}
	}
	return nil
}

// crashSoak runs randomized programs on every cycle-engine wiring under
// crash–restart plans — crash windows alone, then crashes combined with the
// message-drop plan — and verifies exactly-once recovery: the run completes,
// per-location serializability holds against final memory, issued equals
// completed, and every operation a crash flushed was replayed.  Crash and
// restore counts are aggregated per engine/mode; a soak in which no
// component ever died is a vacuous pass and fails.
func crashSoak(rounds, procs, ops, addrs int, seed uint64, verbose bool) (checked, failed int) {
	engines := []struct {
		name  string
		build func(plan *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine
	}{
		{"network", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewSim(combining.NetConfig{Procs: procs, WaitBufCap: 64, Faults: p}, inj)
		}},
		{"fattree", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewSim(combining.NetConfig{
				Topology: combining.FatTreeTopology(procs, 2), WaitBufCap: 64, Faults: p}, inj)
		}},
		{"busnet", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewBusSim(combining.BusConfig{Procs: procs, Banks: 4, WaitBufCap: 64, Faults: p}, inj)
		}},
		{"hypercube", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewCubeSim(combining.CubeConfig{Nodes: procs, WaitBufCap: 64, Faults: p}, inj)
		}},
		{"torus", func(p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewCubeSim(combining.CubeConfig{
				Topology: combining.SquareTorusTopology(procs), WaitBufCap: 64, Faults: p}, inj)
		}},
	}
	modes := []struct {
		name string
		plan func(uint64) *combining.FaultPlan
	}{
		{"crash", func(s uint64) *combining.FaultPlan { return combining.DefaultCrashPlan(s) }},
		{"crash+drop", func(s uint64) *combining.FaultPlan {
			p := combining.DefaultFaultPlan(s)
			c := combining.DefaultCrashPlan(s)
			p.Crashes, p.MemCrashes, p.LinkCrashes = c.Crashes, c.MemCrashes, c.LinkCrashes
			p.CheckpointEvery = c.CheckpointEvery
			return p
		}},
	}
	for _, e := range engines {
		for _, mode := range modes {
			name := e.name + "/" + mode.name
			var crashesTotal, restoresTotal, checkpointsTotal int64
			for r := 0; r < rounds; r++ {
				eff := seed + uint64(r)
				rng := rand.New(rand.NewPCG(eff, 1234))
				progs := randomPrograms(rng, procs, ops, addrs)
				// Hold each program's last operation until past the default
				// plan's final crash window, so a short run can't finish
				// before a single component has died.
				for p := range progs {
					progs[p][len(progs[p])-1].MinCycle = 1000
				}
				m, inj := combining.NewMachineInjectors(progs)
				eng := e.build(mode.plan(eff), inj)
				m.BindEngine(eng)
				if !m.Run(10_000_000) {
					fmt.Printf("FAIL %s seed %d: programs did not complete, %d in flight (replay: -seed %d -rounds 1 -crash)\n",
						name, eff, eng.InFlight(), eff)
					failed++
					continue
				}
				final := map[combining.Addr]combining.Word{}
				for a := 0; a < addrs; a++ {
					final[combining.Addr(a)] = eng.Memory().Peek(combining.Addr(a))
				}
				checked++
				snap := eng.Snapshot()
				crashesTotal += snap.Counters["crashes"]
				restoresTotal += snap.Counters["restores"]
				checkpointsTotal += snap.Counters["checkpoints"]
				if err := combining.CheckM2WithFinal(m.History(), nil, final); err != nil {
					fmt.Printf("FAIL %s seed %d: %v (replay: -seed %d -rounds 1 -crash)\n", name, eff, err, eff)
					failed++
					continue
				}
				if snap.Counters["issued"] != snap.Counters["completed"] {
					fmt.Printf("FAIL %s seed %d: issued %d != completed %d (replay: -seed %d -rounds 1 -crash)\n",
						name, eff, snap.Counters["issued"], snap.Counters["completed"], eff)
					failed++
					continue
				}
				if snap.Counters["replayed_requests"] != snap.Counters["lost_in_flight"] {
					fmt.Printf("FAIL %s seed %d: %d lost in flight but %d replayed (replay: -seed %d -rounds 1 -crash)\n",
						name, eff, snap.Counters["lost_in_flight"], snap.Counters["replayed_requests"], eff)
					failed++
					continue
				}
				if n := eng.InFlight(); n != 0 {
					fmt.Printf("FAIL %s seed %d: %d requests never delivered (replay: -seed %d -rounds 1 -crash)\n",
						name, eff, n, eff)
					failed++
					continue
				}
				if verbose {
					fmt.Printf("ok   %s seed %d: %d crashes, %d restores, %d checkpoints, %d replayed\n",
						name, eff, snap.Counters["crashes"], snap.Counters["restores"],
						snap.Counters["checkpoints"], snap.Counters["replayed_requests"])
				}
			}
			if crashesTotal == 0 || restoresTotal == 0 || checkpointsTotal == 0 {
				fmt.Printf("FAIL %s: crash machinery never engaged across %d rounds (crashes %d, restores %d, checkpoints %d)\n",
					name, rounds, crashesTotal, restoresTotal, checkpointsTotal)
				failed++
			}
			fmt.Printf("%-22s %d executions verified (%d crashes, %d restores)\n",
				name, rounds, crashesTotal, restoresTotal)
		}
	}
	return checked, failed
}

// parallelSoak verifies the determinism contract of the sharded cycle
// steppers (DESIGN.md §6): the same seeded randomized programs run on
// each cycle engine at Workers = 1, 2 and 4, clean and under the default
// fault plan, and every width must reproduce the serial run exactly —
// byte-identical stats snapshot and identical per-processor reply
// sequences.
func parallelSoak(rounds, procs, ops, addrs int, seed uint64, verbose bool) (checked, failed int) {
	engines := []struct {
		name  string
		build func(workers int, plan *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine
	}{
		{"network", func(w int, p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewSim(combining.NetConfig{
				Procs: procs, WaitBufCap: 64, Faults: p, Workers: w}, inj)
		}},
		{"fattree", func(w int, p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewSim(combining.NetConfig{
				Topology: combining.FatTreeTopology(procs, 2), WaitBufCap: 64, Faults: p, Workers: w}, inj)
		}},
		{"busnet", func(w int, p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewBusSim(combining.BusConfig{
				Procs: procs, Banks: 4, WaitBufCap: 64, Faults: p, Workers: w}, inj)
		}},
		{"hypercube", func(w int, p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewCubeSim(combining.CubeConfig{
				Nodes: procs, WaitBufCap: 64, Faults: p, Workers: w}, inj)
		}},
		{"torus", func(w int, p *combining.FaultPlan, inj []combining.Injector) combining.MachineEngine {
			return combining.NewCubeSim(combining.CubeConfig{
				Topology: combining.SquareTorusTopology(procs), WaitBufCap: 64, Faults: p, Workers: w}, inj)
		}},
	}
	modes := []struct {
		name string
		plan func(uint64) *combining.FaultPlan
	}{
		{"clean", func(uint64) *combining.FaultPlan { return nil }},
		{"faults", func(s uint64) *combining.FaultPlan { return combining.DefaultFaultPlan(s) }},
	}
	type outcome struct {
		snap    []byte
		replies []int64
		ok      bool
	}
	for _, e := range engines {
		for _, mode := range modes {
			name := e.name + "/parallel-" + mode.name
			for r := 0; r < rounds; r++ {
				eff := seed + uint64(r)
				run := func(workers int) outcome {
					rng := rand.New(rand.NewPCG(eff, 1234))
					progs := randomPrograms(rng, procs, ops, addrs)
					m, inj := combining.NewMachineInjectors(progs)
					eng := e.build(workers, mode.plan(eff), inj)
					m.BindEngine(eng)
					if !m.Run(10_000_000) {
						fmt.Printf("FAIL %s seed %d workers %d: did not complete, %d in flight (replay: -seed %d -rounds 1 -parallel)\n",
							name, eff, workers, eng.InFlight(), eff)
						return outcome{}
					}
					var replies []int64
					for p := 0; p < procs; p++ {
						for i := 0; i < ops; i++ {
							replies = append(replies, m.Proc(p).Reply(i).Val)
						}
					}
					return outcome{snap: eng.Snapshot().JSON(), replies: replies, ok: true}
				}
				want := run(1)
				if !want.ok {
					failed++
					continue
				}
				checked++
				for _, w := range []int{2, 4} {
					got := run(w)
					if !got.ok {
						failed++
						continue
					}
					if !bytes.Equal(got.snap, want.snap) {
						fmt.Printf("FAIL %s seed %d: Workers=%d snapshot differs from serial (replay: -seed %d -rounds 1 -parallel)\n",
							name, eff, w, eff)
						failed++
						continue
					}
					for i := range want.replies {
						if got.replies[i] != want.replies[i] {
							fmt.Printf("FAIL %s seed %d: Workers=%d reply %d = %d, serial %d (replay: -seed %d -rounds 1 -parallel)\n",
								name, eff, w, i, got.replies[i], want.replies[i], eff)
							failed++
							break
						}
					}
				}
				if verbose {
					fmt.Printf("ok   %s seed %d: widths 1/2/4 identical\n", name, eff)
				}
			}
			fmt.Printf("%-26s %d executions verified\n", name, rounds)
		}
	}
	return checked, failed
}

// chaosSoak runs the fault-plan fuzzer (experiment E17): rounds sampled
// plans per wiring, all seven fault kinds in the mix, seeded randomized
// programs, and the full invariant battery per run.  Violations are shrunk
// to a minimal scenario and reported as a cmd/replay command line.  The
// fuzz seed is -seed, so a CI failure replays with the same flags; the
// vacuous-pass guard fails the soak if any adversarial fault kind never
// fired across the whole budget.
func chaosSoak(rounds int, seed uint64, canary string, verbose bool) (checked, failed int) {
	wirings := combining.ChaosWirings()
	total := map[string]int64{}
	violations := 0
	index := 0
	for round := 0; round < rounds; round++ {
		for _, topo := range wirings {
			sc := combining.NewChaosScenario(topo, seed, index)
			index++
			if canary != "" {
				sc.Plan.Canary = canary
			}
			counters, err := combining.RunChaos(sc)
			checked++
			for k, v := range counters {
				total[k] += v
			}
			if err != nil {
				violations++
				shrunk, runs := combining.ShrinkChaos(sc, 200)
				fmt.Printf("FAIL chaos %s #%d: %v\n", topo, index-1, err)
				fmt.Printf("     shrunk after %d reruns to %d fault window(s): %v\n",
					runs, combining.ChaosWindows(shrunk.Plan), shrunk.Plan)
				fmt.Printf("     replay: %s\n", combining.ChaosRepro(shrunk))
				failed++
				continue
			}
			if verbose {
				fmt.Printf("ok   chaos %s #%d: %d faults (%d reordered, %d dup, %d corrupt-dropped)\n",
					topo, index-1, counters["faults_injected"], counters["reordered_held"],
					counters["dup_injected"], counters["corrupt_dropped"])
			}
		}
	}
	for _, key := range []string{"faults_injected", "reordered_held", "dup_injected", "corrupt_dropped"} {
		if total[key] == 0 {
			fmt.Printf("FAIL chaos: vacuous soak — %s is zero across %d scenarios\n", key, checked)
			failed++
		}
	}
	if canary != "" && violations == 0 {
		fmt.Printf("FAIL chaos: canary %q armed but no violation found across %d scenarios\n", canary, checked)
		failed++
	}
	fmt.Printf("%-18s %d scenarios fuzzed on %d wirings (%d faults injected, %d violations)\n",
		"chaos", checked, len(wirings), total["faults_injected"], violations)
	return checked, failed
}

func isPow(n, k int) bool {
	for n > 1 {
		if n%k != 0 {
			return false
		}
		n /= k
	}
	return n == 1
}

func randomPrograms(rng *rand.Rand, procs, ops, addrs int) [][]combining.Instr {
	progs := make([][]combining.Instr, procs)
	family := rng.IntN(4)
	for p := range progs {
		for i := 0; i < ops; i++ {
			addr := combining.Addr(rng.IntN(addrs))
			var op combining.Mapping
			switch {
			case family == 3:
				v := int64(rng.IntN(100))
				choices := []combining.Mapping{
					combining.FELoad(), combining.FEStoreSet(v),
					combining.FEStoreIfClearSet(v), combining.FELoadClear(),
					combining.StoreOf(v), combining.Load{},
				}
				op = choices[rng.IntN(len(choices))]
			case rng.IntN(3) == 0:
				op = combining.Load{}
			case rng.IntN(2) == 0:
				switch family {
				case 0:
					op = combining.FetchAdd(int64(rng.IntN(19) - 9))
				case 1:
					op = combining.Bool{A: rng.Uint64(), B: rng.Uint64()}
				default:
					op = combining.Affine{A: int64(rng.IntN(5) - 2), B: int64(rng.IntN(50))}
				}
			default:
				op = combining.SwapOf(int64(rng.IntN(100)))
			}
			progs[p] = append(progs[p], combining.RMW(addr, op))
		}
	}
	return progs
}
