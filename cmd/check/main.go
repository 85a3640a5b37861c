// Command check is a correctness soak: it runs randomized programs on the
// combining machine across configurations, seeds and operation families,
// and verifies every execution against Theorem 4.2: per-location
// serializability, and on runs whose trace certifies them, real-time order
// too.  It is the long-running version of the test suite's E4, intended
// for overnight confidence runs.
//
// Every cycle-engine soak is a row of one table (rows, below): the wirings
// it runs on (names internal/wiring registers), their shared config, a
// fault plan and a program set per seed, and the row's own check.  Every
// round of every row first runs the one invariant battery
// (combining.CheckBattery: completion, per-location serializability against
// final memory — by the run's certificate, or by search where retransmits,
// duplicates or crashes leave the trace's order stale — issued ==
// completed, nothing in flight) and then only what the row adds.  Rounds
// are independent machines and run on GOMAXPROCS goroutines; results print
// in seed order, so the output does not depend on the width.  Every failure
// prints the replay command's flags: the effective seed of the run with
// -rounds 1, the workload's shape (-procs, -ops, -addrs, which -quick
// shrinks) and the row's flag, which together replay it exactly.
//
// With -faults it additionally soaks five cycle wirings — omega and the
// fat-tree on the staged engine, the bus machine, the hypercube and the
// torus on the direct engine — under deterministic fault plans (link
// drops, switch blackouts, memory slowdowns), and checks that recovery
// preserves per-location serializability and exactly-once RMW semantics.
// A row whose plan injected nothing across every round is a vacuous pass
// and fails.
//
// With -overload it runs the deadlock-freedom soak: a pure hot spot
// driven through omega, the bus machine and the hypercube with every queue
// at its minimum capacity (forward, reverse, and memory queues at 1), clean
// and under fault plans, watchdog-guarded.  The runs must complete with zero
// watchdog trips and replies matching the serial prefix sums.
//
// With -parallel it runs the determinism soak for the sharded steppers:
// the five cycle wirings of -faults execute the same seeded workload at
// Workers = 1, 2 and 4, and widths 2 and 4 must reproduce width 1's stats
// snapshot byte for byte and its per-processor reply sequences (DESIGN.md
// §6), clean, under fault plans and under adversarial delivery plans
// (reordering, duplication, corruption — each must fire).
//
// With -crash it runs the crash–restart soak (experiment E16): the same
// five cycle wirings execute randomized programs while whole components
// die and come back — a switch flushing its queues, a memory module
// rolling back to its last checkpoint, a link going dark for a burst —
// first under crash windows alone, then under crashes combined with
// message drops.  Acceptance is the battery plus every crash-flushed
// operation replayed, and the crash machinery demonstrably engaging
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
// every sampled plan, to prove the fuzzer finds and shrinks real bugs; a
// name the engines do not know is rejected at flag-parse time.
//
// The pkg/sync primitives' 100k-goroutine soaks are that package's tests
// (TestMCSLockHotSpot100k, TestBarrierWide, TestCounterHotSpot100k), run
// under the race detector by `go test -race ./...`.
//
// -cpuprofile FILE writes a pprof CPU profile of the whole run, every row
// included (go tool pprof -top FILE).
//
// Usage: check [-rounds 50] [-procs 16] [-ops 20] [-addrs 4] [-seed 1]
// [-quick] [-faults] [-overload] [-parallel] [-crash] [-chaos]
// [-canary nodedup] [-cpuprofile FILE] [-v]
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	combining "combining"
)

// maxCycles bounds one execution; the workloads are tiny, so a run that
// needs more than this is wedged.
const maxCycles = 10_000_000

func main() {
	var (
		rounds   = flag.Int("rounds", 50, "randomized executions per configuration")
		procs    = flag.Int("procs", 16, "processors (power of two)")
		ops      = flag.Int("ops", 20, "operations per processor")
		addrs    = flag.Int("addrs", 4, "shared addresses (smaller = hotter)")
		seed     = flag.Uint64("seed", 1, "base seed; round r runs with seed+r")
		quick    = flag.Bool("quick", false, "small CI-sized soak (shrinks rounds/procs/ops)")
		doFaults = flag.Bool("faults", false, "also soak five cycle wirings (omega, fattree, bus, hypercube, torus) under fault plans")
		overload = flag.Bool("overload", false, "deadlock-freedom soak: every queue at capacity 1 on omega, bus and hypercube")
		parallel = flag.Bool("parallel", false, "determinism soak: the five cycle wirings of -faults at Workers = 1, 2, 4, clean, faulted and adversarial, must match byte-for-byte")
		doCrash  = flag.Bool("crash", false, "crash–restart soak: checkpointed recovery on the five cycle wirings of -faults, crash-only and crash+drop")
		doChaos  = flag.Bool("chaos", false, "fault-plan fuzzer: sampled plans mixing every fault kind on all six wirings; violations shrink to a replayable reproducer")
		canary   = flag.String("canary", "", "arm a named seeded bug (e.g. nodedup) in every chaos plan — the fuzzer must find and shrink it")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		verbose  = flag.Bool("v", false, "log every execution")
	)
	flag.Parse()
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "check: "+format+"\n", args...)
		os.Exit(2)
	}
	if *canary != "" && !*doChaos {
		usage("-canary %s without -chaos — nothing to fuzz", *canary)
	}
	if *canary != "" && !slices.Contains(combining.FaultCanaries, *canary) {
		usage("unknown -canary %q (want %s)", *canary, strings.Join(combining.FaultCanaries, ", "))
	}
	if *quick {
		*rounds, *procs, *ops = 6, 8, 12
	}
	on := map[string]bool{"": true, "-faults": *doFaults, "-overload": *overload, "-parallel": *parallel, "-crash": *doCrash}
	table := slices.DeleteFunc(rows(*procs, *ops, *addrs), func(s soak) bool { return !on[s.flag] })
	// Engine-shape validation up front: a bad -procs is a one-line exit,
	// not a stack trace from an engine constructor mid-soak.
	for _, s := range table {
		for _, w := range s.wirings {
			if _, err := combining.NewWiring(w, s.cfg); err != nil {
				usage("%v", err)
			}
		}
	}

	stopProfile := func() {}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			usage("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			usage("-cpuprofile: %v", err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				usage("-cpuprofile: %v", err)
			}
		}
	}

	checked, failed := 0, 0
	count := func(c, f int) { checked, failed = checked+c, failed+f }
	// replay is what a failure's replay command adds to -seed and -rounds:
	// the workload's shape, which -quick may have shrunk, and the row's flag.
	replay := func(flag string) string {
		return strings.TrimSpace(fmt.Sprintf("-procs %d -ops %d -addrs %d %s", *procs, *ops, *addrs, flag))
	}
	for _, s := range table {
		// Rounds are independent machines: all of a row's run at once, and
		// each wiring's are reported in seed order.
		rs := each(len(s.wirings)**rounds, func(i int) result {
			return s.round(s.wirings[i / *rounds], *seed+uint64(i%*rounds))
		})
		for w, wiring := range s.wirings {
			count(report(wiring+"/"+s.name, replay(s.flag), s.engaged, s.retry, rs[w**rounds:(w+1)**rounds], *verbose))
		}
	}
	if *doChaos {
		count(chaosSoak(*rounds, *seed, *canary, *verbose))
	}
	stopProfile() // before any exit: os.Exit runs no deferred call
	fmt.Printf("\n%d executions checked, %d failures\n", checked, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// soak is one row of the table: a set of wirings, what they are built from,
// and what a round on one of them must satisfy beyond the battery.
type soak struct {
	flag    string   // the flag that selects the row ("" = always), repeated in the replay hint
	name    string   // printed after the wiring's
	wirings []string // names internal/wiring registers
	cfg     combining.WiringConfig
	plan    func(seed uint64) *combining.FaultPlan // nil = a healthy machine
	progs   func(seed uint64) [][]combining.Instr
	// widths are the Workers settings a round reruns at (nil = none).  The
	// battery and check run serially; every width must reproduce that run's
	// snapshot and replies exactly.
	widths []int
	// check is what the row adds to the battery, given the finished machine
	// and its snapshot counters (nil = nothing).
	check func(m *combining.Machine, eng combining.MachineEngine, c map[string]int64) error
	// engaged names the counters that must be nonzero over a wiring's rounds:
	// a soak whose faults never fired is a vacuous pass and fails.
	engaged []string
	// retry says the summary line also reports the retry tracker: the range
	// of the rounds' final retransmit timeouts and the retransmits per
	// completion, so a retransmit storm shows in every soak log.
	retry bool
}

// result is one round's verdict, and the retry tracker's timeout (the
// snapshot's retry_timeout_cycles gauge) when the round ends.
type result struct {
	seed     uint64
	counters map[string]int64
	rto      int64
	err      error
}

// rows is the table of cycle-engine soaks.
func rows(procs, ops, addrs int) []soak {
	five := []string{"omega", "fattree", "bus", "hypercube", "torus"}
	base := combining.WiringConfig{Procs: procs, WaitBufCap: 64}
	tight := combining.WiringConfig{Procs: procs, QueueCap: 1, RevQueueCap: 1, MemQueueCap: 1, WaitBufCap: 4}
	random := func(seed uint64) [][]combining.Instr {
		return randomPrograms(rand.New(rand.NewPCG(seed, 1234)), procs, ops, addrs)
	}
	crashDrop := func(seed uint64) *combining.FaultPlan {
		p, c := combining.DefaultFaultPlan(seed), combining.DefaultCrashPlan(seed)
		p.Crashes, p.MemCrashes, p.LinkCrashes = c.Crashes, c.MemCrashes, c.LinkCrashes
		p.CheckpointEvery = c.CheckpointEvery
		return p
	}
	type mode struct {
		name string
		plan func(uint64) *combining.FaultPlan
	}
	cleanAndFaults := []mode{{"clean", nil}, {"faults", combining.DefaultFaultPlan}}

	var table []soak
	// The healthy soak: no faults, across the combining configurations.
	for _, h := range [][2]string{
		{"no-combining", "omega"}, {"partial-1", "omega,wait=1"}, {"partial-4", "omega,wait=4"},
		{"full", "omega,wait=-1"}, {"full+reversal", "omega,wait=-1,reversal"}, {"radix-4", "omega4,wait=-1"},
	} {
		wiring, cfg, err := combining.ParseMachine(fmt.Sprintf("%s,procs=%d", h[1], procs))
		if wiring == "omega4" && err != nil {
			continue // radix 4 runs when -procs is a power of four
		}
		table = append(table, soak{name: h[0], wirings: []string{wiring}, cfg: cfg, progs: random})
	}

	table = append(table, soak{flag: "-faults", name: "faults", wirings: five, cfg: base,
		plan: combining.DefaultFaultPlan, progs: random, engaged: []string{"faults_injected"}, retry: true})

	for _, mode := range cleanAndFaults {
		// -overload: a pure hot spot with every queue at its minimum capacity
		// — the configuration in which any flaw in the credit scheme
		// deadlocks or livelocks.  The replies must be the serial prefix
		// sums, and a completed run must not have tripped the watchdog.
		table = append(table, soak{flag: "-overload", name: "overload-" + mode.name,
			wirings: []string{"omega", "bus", "hypercube"}, cfg: tight, plan: mode.plan,
			progs: func(uint64) [][]combining.Instr { return hotSpot(procs, ops) },
			check: func(m *combining.Machine, eng combining.MachineEngine, c map[string]int64) error {
				if err := prefixSums(m.Replies(), eng.Memory().Peek(0).Val); err != nil {
					return err
				}
				if c["watchdog_trips"] != 0 {
					return fmt.Errorf("%d watchdog trips on a completed run", c["watchdog_trips"])
				}
				return nil
			}})
	}
	for _, mode := range append(cleanAndFaults, mode{"adversarial", combining.DefaultAdversarialPlan}) {
		// -parallel: the determinism contract of the sharded steppers, under
		// every kind of plan.
		row := soak{flag: "-parallel", name: "parallel-" + mode.name, wirings: five,
			cfg: base, plan: mode.plan, progs: random, widths: []int{2, 4}}
		if mode.name == "adversarial" {
			row.engaged = []string{"reordered_held", "dup_injected", "corrupt_dropped"}
		}
		table = append(table, row)
	}
	for _, mode := range []mode{{"crash", combining.DefaultCrashPlan}, {"crash+drop", crashDrop}} {
		table = append(table, soak{flag: "-crash", name: mode.name, wirings: five, cfg: base, plan: mode.plan,
			progs: func(seed uint64) [][]combining.Instr {
				progs := random(seed)
				// Hold each program's last operation until past the default
				// plan's final crash window, so a short run can't finish
				// before a single component has died.
				for p := range progs {
					progs[p][len(progs[p])-1].MinCycle = 1000
				}
				return progs
			},
			check: func(_ *combining.Machine, _ combining.MachineEngine, c map[string]int64) error {
				if c["replayed_requests"] != c["lost_in_flight"] {
					return fmt.Errorf("%d lost in flight but %d replayed", c["lost_in_flight"], c["replayed_requests"])
				}
				return nil
			},
			engaged: []string{"crashes", "restores", "checkpoints"}, retry: true})
	}
	return table
}

// round runs one seed of the row on one wiring: the battery and the row's
// check at Workers 1, then every other width, which must reproduce the
// serial run's snapshot and replies.
func (s soak) round(wiring string, seed uint64) result {
	cfg, progs := s.cfg, s.progs(seed)
	cfg.Workers = 1
	if s.plan != nil {
		cfg.Faults = s.plan(seed)
	}
	m, eng, c, err := combining.CheckBattery(wiring, cfg, progs, maxCycles)
	if err == nil && s.check != nil {
		err = s.check(m, eng, c)
	}
	if err == nil {
		err = combining.CheckWidths(wiring, cfg, progs, m, maxCycles, s.widths...)
	}
	r := result{seed: seed, counters: c, err: err}
	if eng != nil {
		r.rto = eng.Snapshot().Gauges["retry_timeout_cycles"]
	}
	return r
}

// report prints one soak's rounds in order — failures with their replay
// hint (replay is its flags after -seed and -rounds), the vacuous-pass
// guard, the summary line — and counts them.
func report(name, replay string, engaged []string, retry bool, rs []result, verbose bool) (checked, failed int) {
	total := map[string]int64{}
	var rtos []int64
	for _, r := range rs {
		for _, k := range engaged {
			total[k] += r.counters[k]
		}
		total["retries"] += r.counters["retries"]
		total["completed"] += r.counters["completed"]
		rtos = append(rtos, r.rto)
		if r.err != nil {
			fmt.Printf("FAIL %s seed %d: %v (replay: -seed %d -rounds 1 %s)\n", name, r.seed, r.err, r.seed, replay)
			failed++
		} else if verbose {
			fmt.Printf("ok   %s seed %d: %d ops, %d combines, %d faults, %d retries\n", name, r.seed,
				r.counters["completed"], r.counters["combines"], r.counters["faults_injected"], r.counters["retries"])
		}
	}
	var engagement []string
	for _, k := range engaged {
		if total[k] == 0 {
			fmt.Printf("FAIL %s: vacuous soak — %s is zero across %d rounds\n", name, k, len(rs))
			failed++
		}
		engagement = append(engagement, fmt.Sprintf("%d %s", total[k], k))
	}
	if retry && len(rs) > 0 {
		engagement = append(engagement,
			fmt.Sprintf("%.3f retransmits/completion", float64(total["retries"])/float64(max(total["completed"], 1))),
			fmt.Sprintf("final RTO %d–%d cycles", slices.Min(rtos), slices.Max(rtos)))
	}
	tail := ""
	if engagement != nil {
		tail = " (" + strings.Join(engagement, ", ") + ")"
	}
	fmt.Printf("%-30s %d executions verified%s\n", name, len(rs), tail)
	return len(rs), failed
}

// each runs fn(0) … fn(n-1) on GOMAXPROCS goroutines and returns the
// results by index, so what is printed does not depend on the width.
func each[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(n, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// hotSpot is the overload workload: every processor fetch-and-adds 1 to
// address 0, ops times.
func hotSpot(procs, ops int) [][]combining.Instr {
	progs := make([][]combining.Instr, procs)
	for p := range progs {
		for i := 0; i < ops; i++ {
			progs[p] = append(progs[p], combining.RMW(0, combining.FetchAdd(1)))
		}
	}
	return progs
}

// prefixSums checks the replies of a fetch-and-add-1 hot spot against the
// serial execution: final counter len(vals), replies a permutation of 0 … len(vals)-1.
func prefixSums(vals []int64, final int64) error {
	if final != int64(len(vals)) {
		return fmt.Errorf("final counter %d, want %d", final, len(vals))
	}
	slices.Sort(vals)
	for i, v := range vals {
		if v != int64(i) {
			return fmt.Errorf("sorted reply %d = %d, want %d (lost or duplicated RMW)", i, v, i)
		}
	}
	return nil
}

// chaosSoak runs the fault-plan fuzzer (experiment E17): rounds sampled
// plans per wiring, all seven fault kinds in the mix, seeded randomized
// programs, and the invariant battery per run, scenarios side by side on
// GOMAXPROCS goroutines.  Violations are shrunk to a minimal scenario and
// reported as a cmd/replay command line.  The fuzz seed is -seed, so a CI
// failure replays with the same flags; the vacuous-pass guard fails the
// soak if any adversarial fault kind never fired across the whole budget.
// The summary counts the scenarios the battery checked by search rather
// than by certificate, by reason.
func chaosSoak(rounds int, seed uint64, canary string, verbose bool) (checked, failed int) {
	wirings := combining.Wirings()
	type outcome struct {
		counters map[string]int64
		err      error
		shrunk   combining.ChaosScenario
		reruns   int
	}
	// Scenario index = round·len(wirings) + wiring, as the serial loop counted.
	outcomes := each(rounds*len(wirings), func(index int) outcome {
		sc := combining.NewChaosScenario(wirings[index%len(wirings)], seed, index)
		sc.Plan.Canary = canary
		var o outcome
		if o.counters, o.err = combining.RunChaos(sc); o.err != nil {
			o.shrunk, o.reruns = combining.ShrinkChaos(sc, 200)
		}
		return o
	})
	total := map[string]int64{}
	for index, o := range outcomes {
		topo := wirings[index%len(wirings)]
		for k, v := range o.counters {
			total[k] += v
		}
		if o.err != nil {
			fmt.Printf("FAIL chaos %s #%d: %v\n", topo, index, o.err)
			fmt.Printf("     shrunk after %d reruns to %d fault window(s): %v\n",
				o.reruns, combining.ChaosWindows(o.shrunk.Plan), o.shrunk.Plan)
			fmt.Printf("     replay: %s\n", combining.ChaosRepro(o.shrunk))
			failed++
		} else if verbose {
			fmt.Printf("ok   chaos %s #%d: %d faults (%d reordered, %d dup, %d corrupt-dropped)\n",
				topo, index, o.counters["faults_injected"], o.counters["reordered_held"],
				o.counters["dup_injected"], o.counters["corrupt_dropped"])
		}
	}
	violations := failed
	for _, key := range []string{"faults_injected", "reordered_held", "dup_injected", "corrupt_dropped"} {
		if total[key] == 0 {
			fmt.Printf("FAIL chaos: vacuous soak — %s is zero across %d scenarios\n", key, len(outcomes))
			failed++
		}
	}
	if canary != "" && violations == 0 {
		fmt.Printf("FAIL chaos: canary %q armed but no violation found across %d scenarios\n", canary, len(outcomes))
		failed++
	}
	fmt.Printf("%-30s %d scenarios fuzzed on %d wirings (%d faults injected, %d violations; by search: %d crash, %d dup, %d retransmit)\n",
		"chaos", len(outcomes), len(wirings), total["faults_injected"], violations,
		total["searched_crash"], total["searched_dup"], total["searched_retransmit"])
	return len(outcomes), failed
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
