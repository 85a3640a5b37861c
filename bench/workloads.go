package main

import (
	"fmt"

	"combining/internal/core"
)

// kind selects which program an episode drives.
type kind int

const (
	kindOmega   kind = iota // internal/network.Sim, staged omega network
	kindCube                // internal/hypercube.Sim under a crash+drop plan
	kindSynclib             // pkg/sync lock+counter+barrier rounds
)

// workload is one named, frozen set of inputs.  Every size below is fixed
// work (cycles or rounds), never a time limit: an episode of a workload does
// byte-identical simulated work on every host, and only the host time it
// takes varies.  The sizes put the timed part at 0.4–0.6 s and set-up at
// 0.1–0.3 s on the 2-CPU host the benchmark was sized on.
type workload struct {
	name string
	why  string
	kind kind

	// Simulator workloads: closed loops of procs clients, window 4 each.
	procs      int
	workers    int     // Config.Workers
	waitBufCap int     // core.Unbounded = combining on, 0 = off
	rate       float64 // per-cycle issue probability under the window
	hot        float64 // fraction of requests to the hot address
	warm       int     // warm-up cycles (rounds for synclib), part of set-up
	timed      int     // timed cycles (rounds for synclib)

	// Synclib workloads: closed loops of goroutines clients (0 means one
	// per P, GOMAXPROCS), each doing opsPerRound × {Acquire; guarded++;
	// Release; Counter.Add(1)} between two barriers.
	goroutines  int
	opsPerRound int
}

// workloads is the benchmark's whole input space; later issues cite these
// names, so they never change.
var workloads = []workload{
	{
		name: "omega_hotspot", kind: kindOmega,
		why:   "the paper's headline case: a 1/8 hot spot with combining on, where core.Combine/Decombine, the wait buffers and rmw.Compose do most of their work",
		procs: 256, workers: 1, waitBufCap: core.Unbounded, rate: 0.9, hot: 0.125,
		warm: 1000, timed: 3000,
	},
	{
		name: "omega_uniform", kind: kindOmega,
		why:   "bypass: the same machine, no hot spot; switches, queues, memory, stats and traffic run with the combine path idle, so a combine-path change must not move it",
		procs: 256, workers: 1, waitBufCap: core.Unbounded, rate: 0.9, hot: 0,
		warm: 1000, timed: 3000,
	},
	{
		name: "omega_saturated", kind: kindOmega,
		why:   "the same hot-spot traffic with combining off: tree saturation, full queues, credit holds and rejected tail scans, the network layer used the other way",
		procs: 256, workers: 1, waitBufCap: 0, rate: 0.9, hot: 0.125,
		warm: 1000, timed: 4000,
	},
	{
		name: "omega_parallel", kind: kindOmega,
		why:   "1024 processors stepped by 2 workers: the only workload where internal/par (pool, phase barriers) and network/parallel.go are on the blocking path",
		procs: 1024, workers: 2, waitBufCap: core.Unbounded, rate: 0.9, hot: 0.125,
		warm: 300, timed: 600,
	},
	{
		name: "cube_faulted", kind: kindCube,
		why:   "the direct engine under seeded crashes and 0.5% drops: faults, recover, the memory reply cache and the retry trackers, which an engine merge must not slow",
		procs: 256, workers: 1, waitBufCap: core.Unbounded, rate: 0.6, hot: 0.125,
		warm: 1000, timed: 3000,
	},
	{
		name: "sync_matched", kind: kindSynclib,
		why:         "pkg/sync lock+counter+barrier rounds with one goroutine per P: waiters never outnumber processors, so spinning pays",
		opsPerRound: 8,
		warm:        35000, timed: 105000,
	},
	{
		name: "sync_oversub", kind: kindSynclib,
		why: "the same rounds with 64 goroutines on the same Ps: spin-then-yield waiters far outnumber processors, the cliff a parking lock should remove",
		// One operation per round, not eight: with eight, 64 goroutines on 2
		// Ps flip chaotically, inside one episode, between a lock convoy at
		// 1.2e5 ops/s and an uncontended mode at 6.8e6 ops/s, and no estimator
		// steadies that; with one the rate stays within 3.2–4.2e5 throughout.
		goroutines: 64, opsPerRound: 1,
		warm: 1000, timed: 3000,
	},
}

// Fault plan of cube_faulted: faults.GenCrashPlan(seed, crashN, horizon,
// crashDead) with both drop probabilities set.  The horizon is warm+timed
// so every window falls inside the measured run.
const (
	crashN    = 6
	crashDead = 40
	dropProb  = 0.005
)

// sliceCycles is the length of one traced Run call (one span each).
const sliceCycles = 250

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clients describes the closed loop's client count for BENCHMARK.json.
func (w workload) clients() string {
	switch {
	case w.kind != kindSynclib:
		return fmt.Sprintf("%d clients with window %d", w.procs, window)
	case w.goroutines == 0:
		return "one client per P"
	default:
		return fmt.Sprintf("%d clients", w.goroutines)
	}
}
