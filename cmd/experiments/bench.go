package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"sync"

	combining "combining"
	"combining/internal/engine"
)

// The -bench mode emits BENCH_combining.json — the cycle-domain baseline the
// repository commits (see EXPERIMENTS.md §Measured baselines).  Every point
// has one shape: the params that identify it, the results read off the
// machine's Snapshot() after the run, and a digest of that whole snapshot, so
// a counter nobody lifted still cannot move unseen.  Everything in the file
// is a function of the seed: `make bench` regenerates it byte for byte, and
// `make benchcmp` fails if any number in it moved (the CI gate).  Nothing
// here reads the wall clock; those measurements live in the go-test
// benchmarks and in bench/.

var (
	bench    = flag.Bool("bench", false, "emit the JSON bench baseline and exit")
	benchOut = flag.String("out", "BENCH_combining.json", "bench output path")
)

const benchSchema = "combining-bench/v2"

// point is the one shape every section's entries have.  cmd/benchcmp matches
// points across files by Params and requires Results and Digest to be equal.
type point struct {
	Params  map[string]any `json:"params"`
	Results map[string]any `json:"results"`
	Digest  string         `json:"digest"`
}

// sweep is one section of the file: its name in the file, the counters and gauges its
// points lift out of the snapshot by name (beside the bandwidth and latency
// figures every point carries), and its parameter grid.
type sweep struct {
	name  string
	lift  []string
	cells []cell
}

// cell is one grid row: the params, and the machine they configure.
type cell struct {
	params map[string]any
	cycles int // run length; the step bound when the rig has a done
	build  func() rig
}

// timed is a cell that runs a fixed number of cycles, itself a param.
func timed(params map[string]any, cycles int, build func() rig) cell {
	params["cycles"] = cycles
	return cell{params, cycles, build}
}

// rig is a built cell.  done, when set, ends the run instead of the cycle
// count; extra adds what only the cell's own injectors know.
type rig struct {
	m     engine.Machine
	done  func() bool
	extra func(res map[string]any)
}

// run drives one cell and distills its point.
func run(c cell, lift []string) point {
	r := c.build()
	if r.done == nil {
		r.m.Run(c.cycles)
	} else {
		for i := 0; !r.done(); i++ {
			if i == c.cycles {
				panic(fmt.Sprintf("bench: %v incomplete after %d cycles", c.params, i))
			}
			r.m.Step()
		}
	}
	snap := r.m.Snapshot()
	lat := snap.Histograms["latency_cycles"]
	res := map[string]any{
		"bandwidth_ops_per_cycle": float64(snap.Counters["completed"]) / float64(snap.Counters["cycles"]),
		"mean_latency_cycles":     lat.Mean,
		"p99_latency_cycles":      lat.Percentile(0.99),
	}
	for _, k := range lift {
		v, ok := snap.Counters[k]
		if !ok {
			v = snap.Gauges[k]
		}
		res[k] = v
	}
	if r.extra != nil {
		r.extra(res)
	}
	h := fnv.New64a()
	h.Write(snap.JSON())
	return point{Params: c.params, Results: res, Digest: fmt.Sprintf("%016x", h.Sum64())}
}

// stochastic gives every processor the same traffic mix.
func stochastic(n int, tc combining.TrafficConfig, seed uint64) []combining.Injector {
	inj := make([]combining.Injector, n)
	for p := range inj {
		inj[p] = combining.NewStochastic(p, n, tc, seed)
	}
	return inj
}

func waitCap(comb bool) int {
	if comb {
		return combining.Unbounded
	}
	return 0
}

// wired is the named wiring's build function.  Every config in this
// command is fixed, so a rejected one is a bug here and panics.
func wired(name string, cfg combining.WiringConfig) func([]combining.Injector) engine.Machine {
	build, err := combining.NewWiring(name, cfg)
	if err != nil {
		panic(err)
	}
	return build
}

// omega builds the machine every section but topology_sweep and
// saturation_curve runs: queues of 4, wait buffers unbounded or absent.
func omega(n int, comb bool, plan *combining.FaultPlan, inj []combining.Injector) engine.Machine {
	return wired("omega", combining.WiringConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap(comb), Faults: plan})(inj)
}

// hot is the workload most sections share: every processor issues at rate
// 0.6, a fraction h of it to one cell.
func hot(n int, h float64) []combining.Injector {
	return stochastic(n, combining.TrafficConfig{Rate: 0.6, HotFraction: h}, 1)
}

var onOff = []bool{false, true}

// benchSections is the table.  The base timeout of every fault plan (512)
// sits above the healthy hot-spot p99 (~400 cycles at this load), so the
// fault curves measure recovery, not spurious retransmits of requests merely
// delayed by congestion.
func benchSections() []sweep {
	const n, cycles = 64, 4000

	// hotspot_sweep: the N × h × combining sweep (experiment E8), beside the
	// asymptotic bound the paper derives for the non-combining network.
	hotspot := sweep{name: "hotspot_sweep", lift: []string{"combines"}}
	for _, procs := range []int{16, 64, 256} {
		for _, h := range []float64{0, 0.0625, 0.125, 0.25} {
			for _, comb := range onOff {
				hotspot.cells = append(hotspot.cells, timed(
					map[string]any{"procs": procs, "hot_fraction": h, "combining": comb}, cycles,
					func() rig {
						return rig{m: omega(procs, comb, nil, hot(procs, h)), extra: func(res map[string]any) {
							res["asymptotic_limit"] = combining.AsymptoticHotBandwidth(procs, h)
						}}
					}))
			}
		}
	}

	// permutation_baselines: each processor owns its target address, so
	// combining never fires.
	perms := sweep{name: "permutation_baselines"}
	for _, pat := range []struct {
		name string
		perm combining.Permutation
	}{
		{"identity", combining.IdentityPerm},
		{"bit_reverse", combining.BitReversePerm},
		{"transpose", combining.TransposePerm},
		{"shift", combining.ShiftPerm},
	} {
		perms.cells = append(perms.cells, timed(
			map[string]any{"pattern": pat.name, "procs": n}, cycles/2,
			func() rig {
				inj := make([]combining.Injector, n)
				for p := range inj {
					inj[p] = combining.NewPermInjector(p, n, pat.perm, 4)
				}
				return rig{m: omega(n, false, nil, inj)}
			}))
	}

	// degradation_curve (E13): hot-spot traffic while every forward and
	// reverse hop drops with the given probability; bandwidth and tail
	// latency show what timeout/retransmit/dedup costs as the network sickens.
	degradation := sweep{name: "degradation_curve", lift: []string{"faults_injected", "retries", "dedup_hits"}}
	for _, rate := range []float64{0, 0.005, 0.01, 0.02, 0.05} {
		for _, comb := range onOff {
			plan := &combining.FaultPlan{Seed: 13, DropFwd: rate, DropRev: rate, RetryTimeout: 512}
			degradation.cells = append(degradation.cells, timed(
				map[string]any{"procs": n, "hot_fraction": 0.125, "drop_rate_per_hop": rate, "combining": comb}, cycles,
				func() rig { return rig{m: omega(n, comb, plan, hot(n, 0.125))} }))
		}
	}

	// saturation_curve (E14): a non-combining network with every queue tight
	// (the configuration tree saturation punishes hardest, Pfister & Norton),
	// fixed window 8 against AIMD admission starting at 8.  saturation_cycles
	// counts cycles with every stage holding a full forward queue; the
	// adaptive side reports its mean window over delivered replies and its
	// multiplicative cuts, so the curve shows the controller throttling.
	saturation := sweep{name: "saturation_curve",
		lift: []string{"saturation_cycles", "saturation_max_streak", "max_mem_queue", "max_rev_queue"}}
	for _, h := range []float64{0.0625, 0.125, 0.25, 0.5} {
		for _, adaptive := range onOff {
			saturation.cells = append(saturation.cells, timed(
				map[string]any{"procs": n, "hot_fraction": h, "adaptive": adaptive}, 2*cycles,
				func() rig {
					traffic := combining.TrafficConfig{
						Rate: 0.8, HotFraction: h, Window: 8,
						Adaptive: adaptive, MinWindow: 1, MaxWindow: 16,
					}
					inj := stochastic(n, traffic, 7)
					m := wired("omega", combining.WiringConfig{Procs: n, QueueCap: 2, RevQueueCap: 2, MemQueueCap: 2})(inj)
					return rig{m: m, extra: func(res map[string]any) {
						meanWin, decreases := float64(traffic.Window), int64(0)
						if adaptive {
							meanWin = 0
							for _, in := range inj {
								c := in.(*combining.Stochastic).Admission()
								meanWin += c.MeanWindow()
								decreases += c.Decreases
							}
							meanWin /= float64(n)
						}
						res["mean_window"], res["window_decreases"] = meanWin, decreases
					}}
				}))
		}
	}

	// topology_sweep: the same hot-spot workload through the staged engine on
	// omega and the fat-tree and the direct engine on the hypercube and the
	// near-square torus, each built from its name.
	topology := sweep{name: "topology_sweep", lift: []string{"combines"}}
	for _, wiring := range []string{"omega", "fattree", "hypercube", "torus"} {
		for _, comb := range onOff {
			topology.cells = append(topology.cells, timed(
				map[string]any{"topology": wiring, "procs": n, "hot_fraction": 0.25, "combining": comb}, cycles,
				func() rig {
					return rig{m: wired(wiring, combining.WiringConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap(comb)})(hot(n, 0.25))}
				}))
		}
	}

	// recovery_curve (E16): hot-spot traffic with combining under a generated
	// crash–restart schedule, sweeping the crash windows per kind (0 = no
	// plan); the replay ledger shows the exactly-once machinery at work.
	recovery := sweep{name: "recovery_curve",
		lift: []string{"crashes", "restores", "checkpoints", "lost_in_flight", "replayed_requests"}}
	for _, windows := range []int{0, 1, 2, 4} {
		recovery.cells = append(recovery.cells, timed(
			map[string]any{"procs": n, "hot_fraction": 0.125, "crash_windows_per_kind": windows}, 2*cycles,
			func() rig { return rig{m: omega(n, true, crashPlan(windows, 2*cycles, 2*cycles/25), hot(n, 0.125))} }))
	}

	// rme_acquire_latency: recoverable mutual exclusion, clean against
	// crashed; the run ends when every client has finished its rounds.
	rme := sweep{name: "rme_acquire_latency"}
	for _, windows := range []int{0, 2} {
		rme.cells = append(rme.cells, cell{
			map[string]any{"procs": 16, "rounds_per_proc": 64, "crash_windows_per_kind": windows}, 4_000_000,
			func() rig { return rmeRig(16, 64, crashPlan(windows, 4000, 80)) }})
	}

	// zipf_sweep: the two-class hot/uniform split replaced by a power-law
	// address distribution, so combining meets a graded head instead of one
	// hot cell; s sweeps from uniform-ish to hot-spot-like.
	zipf := sweep{name: "zipf_sweep", lift: []string{"combines"}}
	for _, s := range []float64{0, 0.8, 1.2} {
		for _, comb := range onOff {
			zipf.cells = append(zipf.cells, timed(
				map[string]any{"procs": n, "zipf_s": s, "zipf_n": 16, "combining": comb}, cycles,
				func() rig {
					return rig{m: omega(n, comb, nil, stochastic(n, combining.TrafficConfig{Rate: 0.6, ZipfN: 16, ZipfS: s}, 1))}
				}))
		}
	}

	// bursty_sweep: every processor issues only during the first on cycles of
	// each on+off period, in phase (the whole machine slams the network at
	// once, then goes quiet).  Duty cycle stays 1/2 while the period sweeps,
	// isolating burst coarseness at fixed offered load; 0/0 is steady.
	bursty := sweep{name: "bursty_sweep"}
	for _, period := range []int64{0, 20, 100, 400} {
		for _, comb := range onOff {
			bursty.cells = append(bursty.cells, timed(
				map[string]any{"procs": n, "burst_on_cycles": period, "burst_off_cycles": period, "combining": comb}, 2*cycles,
				func() rig {
					return rig{m: omega(n, comb, nil, stochastic(n, combining.TrafficConfig{
						Rate: 0.8, HotFraction: 0.25, BurstOn: period, BurstOff: period}, 1))}
				}))
		}
	}

	// adversarial_degradation (E17): hot-spot traffic while terminal links
	// reorder, duplicate and corrupt at the given per-hop rate each, the
	// integrity layer quarantining what fails its checksum and retry/dedup
	// keeping delivery exactly-once.
	adversarial := sweep{name: "adversarial_degradation",
		lift: []string{"faults_injected", "reordered_held", "dup_injected", "corrupt_dropped", "retries", "dedup_hits"}}
	for _, rate := range []float64{0, 0.005, 0.01, 0.02} {
		for _, comb := range onOff {
			var plan *combining.FaultPlan
			if rate > 0 {
				plan = &combining.FaultPlan{Seed: 13, Reorder: rate, ReorderMax: 8, Dup: rate, Corrupt: rate, RetryTimeout: 512}
			}
			adversarial.cells = append(adversarial.cells, timed(
				map[string]any{"procs": n, "hot_fraction": 0.125, "adversary_rate_per_kind": rate, "combining": comb}, cycles,
				func() rig { return rig{m: omega(n, comb, plan, hot(n, 0.125))} }))
		}
	}

	return []sweep{hotspot, perms, degradation, saturation, topology, recovery, rme, zipf, bursty, adversarial}
}

// crashPlan is the generated crash–restart schedule of the given intensity
// over horizon cycles, each window dead cycles long; nil for no windows.
func crashPlan(windows, horizon, dead int) *combining.FaultPlan {
	if windows == 0 {
		return nil
	}
	plan := combining.GenCrashPlan(13, windows, int64(horizon), int64(dead))
	plan.RetryTimeout = 512
	return plan
}

func runBench() {
	secs := benchSections()
	pts := make([][]point, len(secs))
	total := 0
	for s, sec := range secs {
		pts[s] = make([]point, len(sec.cells))
		total += len(sec.cells)
	}

	// Every cell is its own machine with its own seeded injectors and nothing
	// is timed, so the table runs on every processor; points land by index.
	type job struct{ s, c int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				pts[j.s][j.c] = run(secs[j.s].cells[j.c], secs[j.s].lift)
			}
		}()
	}
	for s, sec := range secs {
		for c := range sec.cells {
			jobs <- job{s, c}
		}
	}
	close(jobs)
	wg.Wait()

	// Sections in table order, one point per line (a moved number is a
	// one-line diff); encoding/json sorts the keys inside a point.
	var out bytes.Buffer
	fmt.Fprintf(&out, "{\n  \"schema\": %q", benchSchema)
	for s, sec := range secs {
		fmt.Fprintf(&out, ",\n  %q: [", sec.name)
		for c, p := range pts[s] {
			line, err := json.Marshal(p)
			if err != nil {
				panic(err)
			}
			if c > 0 {
				out.WriteByte(',')
			}
			fmt.Fprintf(&out, "\n    %s", line)
		}
		out.WriteString("\n  ]")
	}
	out.WriteString("\n}\n")
	if err := os.WriteFile(*benchOut, out.Bytes(), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bench baseline written to %s (%d points in %d sections)\n", *benchOut, total, len(secs))
}

// rmeBenchClient is the lock-protocol injector of the RME bench: acquire
// (spin on NAK), a deliberately split read-modify-write of a shared counter
// inside the critical section, release.  The engine's tracking and
// retransmission apply to it like any injector.
type rmeBenchClient struct {
	proc   combining.ProcID
	ids    *combining.IDGen
	nprocs int
	rounds int

	phase     int
	round     int
	pending   bool
	pendingID combining.ReqID
	loaded    int64

	naks      int64
	trying    bool
	tryStart  int64
	latencies []int64
}

const (
	rmeLock = combining.Addr(0)
	rmeCtr  = combining.Addr(1)
)

func (c *rmeBenchClient) Next(cycle int64) (combining.Injection, bool) {
	if c.pending || c.round >= c.rounds {
		return combining.Injection{}, false
	}
	var op combining.Mapping
	addr := rmeLock
	switch c.phase {
	case 0:
		op = combining.RMEAcquire(int64(c.proc) + 1)
		if !c.trying {
			c.trying, c.tryStart = true, cycle
		}
	case 1:
		op, addr = combining.Load{}, rmeCtr
	case 2:
		op, addr = combining.StoreOf(c.loaded+1), rmeCtr
	default:
		op = combining.RMERelease()
	}
	id := c.ids.NextPartitioned(c.nprocs)
	c.pending, c.pendingID = true, id
	return combining.Injection{Req: combining.NewRequest(id, addr, op, c.proc)}, true
}

func (c *rmeBenchClient) Deliver(rep combining.Reply, cycle int64) {
	c.pending = false
	switch c.phase {
	case 0:
		if combining.RMEAcquired(rep.Val) {
			c.latencies = append(c.latencies, cycle-c.tryStart)
			c.trying = false
			c.phase = 1
		} else {
			c.naks++
		}
	case 1:
		c.loaded = rep.Val.Val
		c.phase = 2
	case 2:
		c.phase = 3
	default:
		c.phase = 0
		c.round++
	}
}

// rmeRig builds the lock protocol: every processor loops acquire → critical
// section → release on one lock through the combining network until its
// rounds are done.  The point reports how long a grant takes from the first
// attempt of each round, NAK spins and crash recovery included, and the
// final counter is asserted (a mutual-exclusion violation is a correctness
// bug, not a slow point).
func rmeRig(n, rounds int, plan *combining.FaultPlan) rig {
	clients := make([]*rmeBenchClient, n)
	inj := make([]combining.Injector, n)
	for i := range clients {
		clients[i] = &rmeBenchClient{
			proc: combining.ProcID(i), ids: combining.PartitionIDs(i, n),
			nprocs: n, rounds: rounds,
		}
		inj[i] = clients[i]
	}
	sim := omega(n, true, plan, inj)
	done := func() bool {
		for _, c := range clients {
			if c.round < c.rounds {
				return false
			}
		}
		return sim.InFlight() == 0
	}
	return rig{m: sim, done: done, extra: func(res map[string]any) {
		if got := sim.Memory().Peek(rmeCtr).Val; got != int64(n*rounds) {
			panic(fmt.Sprintf("bench: RME counter %d, want %d — mutual exclusion violated", got, n*rounds))
		}
		var lat []int64
		var naks, sum int64
		for _, c := range clients {
			lat = append(lat, c.latencies...)
			naks += c.naks
		}
		slices.Sort(lat)
		for _, l := range lat {
			sum += l
		}
		res["run_cycles"] = sim.Snapshot().Counter("cycles")
		res["acquire_mean_cycles"] = float64(sum) / float64(len(lat))
		res["acquire_p99_cycles"] = float64(lat[len(lat)*99/100])
		res["acquire_max_cycles"] = lat[len(lat)-1]
		res["acquire_naks"] = naks
	}}
}
