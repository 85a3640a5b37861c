package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	combining "combining"
	"combining/internal/par"
)

// The -bench mode emits BENCH_combining.json — the measured baseline the
// repository commits (see EXPERIMENTS.md §Measured baselines).  Every number
// is extracted through the engines' shared Snapshot() API rather than from
// ad-hoc counters, so the file doubles as a schema test of the
// instrumentation.  `make bench` regenerates it; `make benchcmp` regenerates
// it into /tmp and fails if any cycle-domain number moved (the CI gate).

var (
	bench    = flag.Bool("bench", false, "emit the JSON bench baseline and exit")
	benchOut = flag.String("out", "BENCH_combining.json", "bench output path")
)

type benchReport struct {
	Schema      string             `json:"schema"`
	Quick       bool               `json:"quick"`
	Hotspot     []hotspotPoint     `json:"hotspot_sweep"`
	Permutation []permPoint        `json:"permutation_baselines"`
	AsyncFAA    []asyncPoint       `json:"asyncnet_faa"`
	Degradation []degradationPoint `json:"degradation_curve"`
	Saturation  []saturationPoint  `json:"saturation_curve"`
	Parallel    []parallelPoint    `json:"parallel_speedup"`
	Topology    []topologyPoint    `json:"topology_sweep"`
	Recovery    []recoveryPoint    `json:"recovery_curve"`
	RMEAcquire  []rmePoint         `json:"rme_acquire_latency"`
	Zipf        []zipfPoint        `json:"zipf_sweep"`
	Bursty      []burstyPoint      `json:"bursty_sweep"`
	Adversarial []adversarialPoint `json:"adversarial_degradation"`
	Barrier     []barrierPoint     `json:"barrier_microbench"`
	SyncPrims   []syncPoint        `json:"sync_primitives"`
}

// barrierPoint is one cell of the barrier microbenchmark: ns per
// episode for each internal/par implementation — counting (the original
// shared-counter spin), central sense-reversing (one flag read per
// waiter), and dissemination (log₂ n rounds of pairwise signals) — at
// each worker width, on persistent pool workers.  On a single-core host
// every number is scheduler round-trips, not cache traffic; the curve is
// only meaningful relative to HostCPUs.
type barrierPoint struct {
	Kind      string  `json:"kind"`
	Workers   int     `json:"workers"`
	Syncs     int     `json:"syncs"`
	NsPerSync float64 `json:"ns_per_sync"`
	HostCPUs  int     `json:"host_cpus"`
}

// benchBarrier times syncs barrier episodes at the given width.
func benchBarrier(kind string, workers, syncs int) barrierPoint {
	var bar par.Barrier
	switch kind {
	case "counting":
		bar = par.NewCountingBarrier(workers)
	case "sense":
		bar = par.NewSenseBarrier(workers)
	case "dissemination":
		bar = par.NewDisseminationBarrier(workers)
	default:
		panic("benchBarrier: unknown kind " + kind)
	}
	pool := par.NewPool(workers)
	pool.Start()
	defer pool.Stop()
	start := time.Now()
	pool.Run(func(w int) {
		for i := 0; i < syncs; i++ {
			bar.Sync(w)
		}
	})
	elapsed := time.Since(start)
	return barrierPoint{
		Kind:      kind,
		Workers:   workers,
		Syncs:     syncs,
		NsPerSync: float64(elapsed.Nanoseconds()) / float64(syncs),
		HostCPUs:  runtime.NumCPU(),
	}
}

// zipfPoint is one cell of the Zipfian-popularity sweep: the two-class
// hot/uniform split replaced by a power-law address distribution, so
// combining meets a graded head instead of one hot cell.  The exponent s
// sweeps from uniform-ish to hot-spot-like; rank 0 carries the hot tally.
type zipfPoint struct {
	Procs       int     `json:"procs"`
	ZipfS       float64 `json:"zipf_s"`
	ZipfN       int     `json:"zipf_n"`
	Combining   bool    `json:"combining"`
	Cycles      int     `json:"cycles"`
	Bandwidth   float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency float64 `json:"mean_latency_cycles"`
	P99Latency  float64 `json:"p99_latency_cycles"`
	Combines    int64   `json:"combines"`
	HostCPUs    int     `json:"host_cpus"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// benchZipf runs one Zipfian-sweep cell on the omega network.
func benchZipf(n int, s float64, zipfN int, comb bool, cycles int) zipfPoint {
	waitCap := 0
	if comb {
		waitCap = combining.Unbounded
	}
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{
			Rate: 0.6, ZipfN: zipfN, ZipfS: s,
		}, 1)
	}
	sim := combining.NewSim(combining.NetConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	snap := sim.Snapshot()
	return zipfPoint{
		Procs:       n,
		ZipfS:       s,
		ZipfN:       zipfN,
		Combining:   comb,
		Cycles:      cycles,
		Bandwidth:   st.Bandwidth(),
		MeanLatency: st.MeanLatency(),
		P99Latency:  st.Percentile(0.99),
		Combines:    snap.Counters["combines"],
		HostCPUs:    runtime.NumCPU(),
		Snapshot:    snap,
	}
}

// burstyPoint is one cell of the on/off burst sweep: every processor
// issues only during the first BurstOn cycles of each BurstOn+BurstOff
// period, in phase (the worst case — the whole machine slams the network
// at once, then goes quiet).  Duty cycle is held near 1/2 while the
// period sweeps, so the point isolates burst *coarseness* at fixed
// offered load.
type burstyPoint struct {
	Procs       int     `json:"procs"`
	BurstOn     int64   `json:"burst_on_cycles"`
	BurstOff    int64   `json:"burst_off_cycles"`
	Combining   bool    `json:"combining"`
	Cycles      int     `json:"cycles"`
	Bandwidth   float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency float64 `json:"mean_latency_cycles"`
	P99Latency  float64 `json:"p99_latency_cycles"`
	HostCPUs    int     `json:"host_cpus"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// benchBursty runs one burst-sweep cell (on == off == 0 is the steady
// baseline).
func benchBursty(n int, on, off int64, comb bool, cycles int) burstyPoint {
	waitCap := 0
	if comb {
		waitCap = combining.Unbounded
	}
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{
			Rate: 0.8, HotFraction: 0.25, BurstOn: on, BurstOff: off,
		}, 1)
	}
	sim := combining.NewSim(combining.NetConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	snap := sim.Snapshot()
	return burstyPoint{
		Procs:       n,
		BurstOn:     on,
		BurstOff:    off,
		Combining:   comb,
		Cycles:      cycles,
		Bandwidth:   st.Bandwidth(),
		MeanLatency: st.MeanLatency(),
		P99Latency:  st.Percentile(0.99),
		HostCPUs:    runtime.NumCPU(),
		Snapshot:    snap,
	}
}

// adversarialPoint is one cell of the E17 adversarial-degradation curve:
// hot-spot traffic while terminal links reorder, duplicate, and corrupt
// messages at the given per-hop rate, the integrity layer quarantining
// what fails its checksum and the retry/dedup machinery keeping delivery
// exactly-once.  The curve shows what end-to-end integrity costs as the
// delivery substrate turns hostile.
type adversarialPoint struct {
	Procs          int     `json:"procs"`
	HotFraction    float64 `json:"hot_fraction"`
	AdversaryRate  float64 `json:"adversary_rate_per_kind"`
	Combining      bool    `json:"combining"`
	Cycles         int     `json:"cycles"`
	Bandwidth      float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency    float64 `json:"mean_latency_cycles"`
	P99Latency     float64 `json:"p99_latency_cycles"`
	FaultsInjected int64   `json:"faults_injected"`
	ReorderedHeld  int64   `json:"reordered_held"`
	DupInjected    int64   `json:"dup_injected"`
	CorruptDropped int64   `json:"corrupt_dropped"`
	Retries        int64   `json:"retries"`
	DedupHits      int64   `json:"dedup_hits"`
	HostCPUs       int     `json:"host_cpus"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// benchAdversarial runs one adversarial-degradation cell: rate arms
// reorder, duplication, and corruption equally (adversarial plans pin the
// serial stepper, which is the default here).
func benchAdversarial(n int, h, rate float64, comb bool, cycles int) adversarialPoint {
	waitCap := 0
	if comb {
		waitCap = combining.Unbounded
	}
	var plan *combining.FaultPlan
	if rate > 0 {
		plan = &combining.FaultPlan{
			Seed: 13, Reorder: rate, ReorderMax: 8, Dup: rate, Corrupt: rate,
			RetryTimeout: 512,
		}
	}
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{Rate: 0.6, HotFraction: h}, 1)
	}
	sim := combining.NewSim(combining.NetConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap, Faults: plan}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	snap := sim.Snapshot()
	return adversarialPoint{
		Procs:          n,
		HotFraction:    h,
		AdversaryRate:  rate,
		Combining:      comb,
		Cycles:         cycles,
		Bandwidth:      st.Bandwidth(),
		MeanLatency:    st.MeanLatency(),
		P99Latency:     st.Percentile(0.99),
		FaultsInjected: snap.Counters["faults_injected"],
		ReorderedHeld:  snap.Counters["reordered_held"],
		DupInjected:    snap.Counters["dup_injected"],
		CorruptDropped: snap.Counters["corrupt_dropped"],
		Retries:        snap.Counters["retries"],
		DedupHits:      snap.Counters["dedup_hits"],
		HostCPUs:       runtime.NumCPU(),
		Snapshot:       snap,
	}
}

// topologyPoint is one cell of the topology sweep: the same hot-spot
// workload driven through every wiring — the staged engine on omega and
// the fat-tree, the direct engine on the hypercube and the near-square
// torus — combining off and on, so the wirings are directly comparable
// under identical offered load.
type topologyPoint struct {
	Topology    string  `json:"topology"`
	Engine      string  `json:"engine"`
	Procs       int     `json:"procs"`
	HotFraction float64 `json:"hot_fraction"`
	Combining   bool    `json:"combining"`
	Cycles      int     `json:"cycles"`
	Bandwidth   float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency float64 `json:"mean_latency_cycles"`
	P99Latency  float64 `json:"p99_latency_cycles"`
	Combines    int64   `json:"combines"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// benchTopology runs one topology-sweep cell.  The wirings are pure
// configuration on the two cycle engines; everything else about the run is
// identical.
func benchTopology(topo string, n int, h float64, comb bool, cycles int) topologyPoint {
	waitCap := 0
	if comb {
		waitCap = combining.Unbounded
	}
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{Rate: 0.6, HotFraction: h}, 1)
	}
	var (
		bandwidth, meanLat float64
		snap               combining.StatsSnapshot
	)
	switch topo {
	case "omega", "fattree":
		cfg := combining.NetConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap}
		if topo == "fattree" {
			cfg.Topology = combining.FatTreeTopology(n, 2)
		}
		sim := combining.NewSim(cfg, inj)
		sim.Run(cycles)
		st := sim.Stats()
		bandwidth, meanLat, snap = st.Bandwidth(), st.MeanLatency(), sim.Snapshot()
	case "hypercube", "torus":
		cfg := combining.CubeConfig{Nodes: n, QueueCap: 4, WaitBufCap: waitCap}
		if topo == "torus" {
			cfg.Topology = combining.SquareTorusTopology(n)
		}
		sim := combining.NewCubeSim(cfg, inj)
		sim.Run(cycles)
		st := sim.Stats()
		bandwidth, meanLat, snap = st.Bandwidth(), st.MeanLatency(), sim.Snapshot()
	default:
		panic("bench: unknown topology " + topo)
	}
	return topologyPoint{
		Topology:    topo,
		Engine:      snap.Engine,
		Procs:       n,
		HotFraction: h,
		Combining:   comb,
		Cycles:      cycles,
		Bandwidth:   bandwidth,
		MeanLatency: meanLat,
		P99Latency:  snap.Histograms["latency_cycles"].Percentile(0.99),
		Combines:    snap.Counters["combines"],
		Snapshot:    snap,
	}
}

// hotspotPoint is one cell of the N × h × combining sweep (experiment E8).
type hotspotPoint struct {
	Procs       int     `json:"procs"`
	HotFraction float64 `json:"hot_fraction"`
	Combining   bool    `json:"combining"`
	Cycles      int     `json:"cycles"`
	Bandwidth   float64 `json:"bandwidth_ops_per_cycle"`
	Limit       float64 `json:"asymptotic_limit"`
	MeanLatency float64 `json:"mean_latency_cycles"`
	P99Latency  float64 `json:"p99_latency_cycles"`
	Combines    int64   `json:"combines"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// permPoint is one permutation-pattern baseline (combining never fires:
// each processor owns its target address).
type permPoint struct {
	Pattern     string  `json:"pattern"`
	Procs       int     `json:"procs"`
	Cycles      int     `json:"cycles"`
	Bandwidth   float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency float64 `json:"mean_latency_cycles"`
	P99Latency  float64 `json:"p99_latency_cycles"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// asyncPoint is fetch-and-add throughput on the goroutine engine, one hot
// cell hammered from every port, with and without combining.
type asyncPoint struct {
	Procs         int     `json:"procs"`
	RoundsPerPort int     `json:"rounds_per_port"`
	Combining     bool    `json:"combining"`
	ElapsedNs     int64   `json:"elapsed_ns"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	Combines      int64   `json:"combines"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// degradationPoint is one cell of the E13 fault-degradation curve: hot-spot
// traffic under a drop-only fault plan, sweeping the per-hop drop
// probability with combining on and off.  Bandwidth and tail latency show
// what the retry/dedup recovery layer costs as the network gets sicker.
type degradationPoint struct {
	Procs          int     `json:"procs"`
	HotFraction    float64 `json:"hot_fraction"`
	DropRate       float64 `json:"drop_rate_per_hop"`
	Combining      bool    `json:"combining"`
	Cycles         int     `json:"cycles"`
	Bandwidth      float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency    float64 `json:"mean_latency_cycles"`
	P99Latency     float64 `json:"p99_latency_cycles"`
	FaultsInjected int64   `json:"faults_injected"`
	Retries        int64   `json:"retries"`
	DedupHits      int64   `json:"dedup_hits"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// saturationPoint is one cell of the E14 saturation curve: hot-spot
// traffic through a tightly bounded non-combining network, fixed window
// versus AIMD adaptive admission.  With every queue small, the hot
// module's congestion backs up through the stages (tree saturation,
// Pfister & Norton); the adaptive controller shrinks the per-processor
// window when round-trip latency spikes, keeping latency bounded and
// degradation smooth where the fixed window piles requests into the tree.
type saturationPoint struct {
	Procs       int     `json:"procs"`
	HotFraction float64 `json:"hot_fraction"`
	Adaptive    bool    `json:"adaptive"`
	Cycles      int     `json:"cycles"`
	Bandwidth   float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency float64 `json:"mean_latency_cycles"`
	P99Latency  float64 `json:"p99_latency_cycles"`
	// SaturationCycles counts cycles with every stage holding a full
	// forward queue; MaxStreak is the longest consecutive run of them.
	SaturationCycles int64 `json:"saturation_cycles"`
	MaxStreak        int64 `json:"saturation_max_streak"`
	// Memory and reverse high-water marks, bounded by the credit scheme.
	MaxMemQueue int64 `json:"max_mem_queue"`
	MaxRevQueue int64 `json:"max_rev_queue"`
	// MeanWindow is the average admission window over delivered replies
	// (the fixed window when not adaptive); Decreases counts the AIMD
	// multiplicative cuts.
	MeanWindow float64 `json:"mean_window"`
	Decreases  int64   `json:"window_decreases"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// parallelPoint is one cell of the E15 parallel-stepper curve: wall-clock
// cost per simulated cycle of the omega engine with its per-cycle work
// sharded across Workers goroutines (DESIGN.md §6).  HostCPUs records the
// cores the measurement actually had — on a single-core host every
// Workers > 1 point is pure scheduling overhead and the speedup sits at
// or below 1.  SnapshotIdentical asserts the determinism contract on the
// exact runs being timed.
type parallelPoint struct {
	Procs             int     `json:"procs"`
	Workers           int     `json:"workers"`
	Cycles            int     `json:"cycles"`
	ElapsedNs         int64   `json:"elapsed_ns"`
	NsPerCycle        float64 `json:"ns_per_cycle"`
	Speedup           float64 `json:"speedup_vs_serial"`
	SnapshotIdentical bool    `json:"snapshot_identical_to_serial"`
	HostCPUs          int     `json:"host_cpus"`
}

// benchParallel times the sharded stepper at one width and returns the
// point plus the end-of-run snapshot for the determinism cross-check.
func benchParallel(n, workers, warmup, cycles int) (parallelPoint, []byte) {
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{Rate: 0.9, HotFraction: 0.3}, 1)
	}
	sim := combining.NewSim(combining.NetConfig{
		Procs: n, QueueCap: 4, WaitBufCap: combining.Unbounded, Workers: workers,
	}, inj)
	sim.Run(warmup)
	start := time.Now()
	sim.Run(cycles)
	elapsed := time.Since(start)
	return parallelPoint{
		Procs:      n,
		Workers:    workers,
		Cycles:     cycles,
		ElapsedNs:  elapsed.Nanoseconds(),
		NsPerCycle: float64(elapsed.Nanoseconds()) / float64(cycles),
		HostCPUs:   runtime.NumCPU(),
	}, sim.Snapshot().JSON()
}

func runBench() {
	rep := benchReport{Schema: "combining-bench/v1", Quick: *quick}

	hotCycles, permCycles := 4000, 2000
	sweepN := []int{16, 64, 256}
	asyncRounds := 2048
	if *quick {
		hotCycles, permCycles = 1000, 600
		sweepN = []int{16, 64}
		asyncRounds = 128
	}

	for _, n := range sweepN {
		for _, h := range []float64{0, 0.0625, 0.125, 0.25} {
			for _, comb := range []bool{false, true} {
				rep.Hotspot = append(rep.Hotspot, benchHotspot(n, h, comb, hotCycles))
			}
		}
	}

	for _, pat := range []struct {
		name string
		perm combining.Permutation
	}{
		{"identity", combining.IdentityPerm},
		{"bit_reverse", combining.BitReversePerm},
		{"transpose", combining.TransposePerm},
		{"shift", combining.ShiftPerm},
	} {
		rep.Permutation = append(rep.Permutation, benchPermutation(pat.name, pat.perm, 64, permCycles))
	}

	for _, comb := range []bool{false, true} {
		rep.AsyncFAA = append(rep.AsyncFAA, benchAsyncFAA(16, asyncRounds, comb))
	}

	degradeN, degradeCycles := 64, hotCycles
	if *quick {
		degradeN = 16
	}
	for _, rate := range []float64{0, 0.005, 0.01, 0.02, 0.05} {
		for _, comb := range []bool{false, true} {
			rep.Degradation = append(rep.Degradation, benchDegradation(degradeN, 0.125, rate, comb, degradeCycles))
		}
	}

	satN, satCycles := 64, 2*hotCycles
	if *quick {
		satN = 16
	}
	for _, h := range []float64{0.0625, 0.125, 0.25, 0.5} {
		for _, adaptive := range []bool{false, true} {
			rep.Saturation = append(rep.Saturation, benchSaturation(satN, h, adaptive, satCycles))
		}
	}

	parN, parWarmup, parCycles := []int{256, 1024}, 64, 512
	if *quick {
		parN, parCycles = []int{64}, 64
	}
	for _, n := range parN {
		var serial parallelPoint
		var serialSnap []byte
		for _, w := range []int{1, 2, 4, 8} {
			pt, snap := benchParallel(n, w, parWarmup, parCycles)
			if w == 1 {
				serial, serialSnap = pt, snap
				pt.Speedup = 1
				pt.SnapshotIdentical = true
			} else {
				pt.Speedup = float64(serial.ElapsedNs) / float64(pt.ElapsedNs)
				pt.SnapshotIdentical = bytes.Equal(snap, serialSnap)
				if !pt.SnapshotIdentical {
					fmt.Fprintf(os.Stderr, "bench: N=%d Workers=%d snapshot differs from serial — determinism broken\n", n, w)
					os.Exit(1)
				}
			}
			rep.Parallel = append(rep.Parallel, pt)
		}
	}

	topoN, topoCycles := 64, hotCycles
	if *quick {
		topoN = 16
	}
	for _, topo := range []string{"omega", "fattree", "hypercube", "torus"} {
		for _, comb := range []bool{false, true} {
			rep.Topology = append(rep.Topology, benchTopology(topo, topoN, 0.25, comb, topoCycles))
		}
	}

	recN, recCycles := 64, 2*hotCycles
	rmeN, rmeRounds := 16, 64
	if *quick {
		recN, rmeRounds = 16, 16
	}
	for _, windows := range []int{0, 1, 2, 4} {
		rep.Recovery = append(rep.Recovery, benchRecovery(recN, 0.125, windows, recCycles))
	}
	for _, windows := range []int{0, 2} {
		rep.RMEAcquire = append(rep.RMEAcquire, benchRME(rmeN, rmeRounds, windows))
	}

	zipfN, zipfCycles := 64, hotCycles
	if *quick {
		zipfN = 16
	}
	for _, s := range []float64{0, 0.8, 1.2} {
		for _, comb := range []bool{false, true} {
			rep.Zipf = append(rep.Zipf, benchZipf(zipfN, s, 16, comb, zipfCycles))
		}
	}

	for _, burst := range []struct{ on, off int64 }{{0, 0}, {20, 20}, {100, 100}, {400, 400}} {
		for _, comb := range []bool{false, true} {
			rep.Bursty = append(rep.Bursty, benchBursty(zipfN, burst.on, burst.off, comb, 2*zipfCycles))
		}
	}

	advN, advCycles := 64, hotCycles
	if *quick {
		advN = 16
	}
	for _, rate := range []float64{0, 0.005, 0.01, 0.02} {
		for _, comb := range []bool{false, true} {
			rep.Adversarial = append(rep.Adversarial, benchAdversarial(advN, 0.125, rate, comb, advCycles))
		}
	}

	barSyncs := 50000
	if *quick {
		barSyncs = 2000
	}
	for _, kind := range []string{"counting", "sense", "dissemination"} {
		for _, w := range []int{2, 4, 8} {
			rep.Barrier = append(rep.Barrier, benchBarrier(kind, w, barSyncs))
		}
	}

	rep.SyncPrims = benchSyncPrimitives(*quick)

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(*benchOut, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bench baseline written to %s (%d hot-spot points, %d permutations, %d async runs, %d degradation points, %d saturation points, %d parallel points, %d topology points, %d recovery points, %d RME points, %d zipf points, %d bursty points, %d adversarial points, %d barrier points, %d sync-primitive points)\n",
		*benchOut, len(rep.Hotspot), len(rep.Permutation), len(rep.AsyncFAA), len(rep.Degradation), len(rep.Saturation), len(rep.Parallel), len(rep.Topology), len(rep.Recovery), len(rep.RMEAcquire), len(rep.Zipf), len(rep.Bursty), len(rep.Adversarial), len(rep.Barrier), len(rep.SyncPrims))
}

// recoveryPoint is one cell of the E16 recovery curve: hot-spot traffic with
// combining under a generated crash–restart schedule, sweeping the number of
// crash windows per kind (0 = clean baseline).  Throughput and tail latency
// show what checkpointed crash recovery costs as components die more often;
// the replay ledger shows the exactly-once machinery at work.
type recoveryPoint struct {
	Procs        int     `json:"procs"`
	HotFraction  float64 `json:"hot_fraction"`
	CrashWindows int     `json:"crash_windows_per_kind"`
	Cycles       int     `json:"cycles"`
	Bandwidth    float64 `json:"bandwidth_ops_per_cycle"`
	MeanLatency  float64 `json:"mean_latency_cycles"`
	P99Latency   float64 `json:"p99_latency_cycles"`
	Crashes      int64   `json:"crashes"`
	Restores     int64   `json:"restores"`
	Checkpoints  int64   `json:"checkpoints"`
	LostInFlight int64   `json:"lost_in_flight"`
	Replayed     int64   `json:"replayed_requests"`
	HostCPUs     int     `json:"host_cpus"`

	Snapshot combining.StatsSnapshot `json:"snapshot"`
}

// benchRecovery runs one recovery-curve cell: benchHotspot's workload under
// a GenCrashPlan schedule of the given intensity (0 windows = no plan, the
// clean baseline).
func benchRecovery(n int, h float64, windows, cycles int) recoveryPoint {
	var plan *combining.FaultPlan
	if windows > 0 {
		dead := int64(cycles / 25)
		if dead < 20 {
			dead = 20
		}
		plan = combining.GenCrashPlan(13, windows, int64(cycles), dead)
		plan.RetryTimeout = 512
	}
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{Rate: 0.6, HotFraction: h}, 1)
	}
	sim := combining.NewSim(combining.NetConfig{
		Procs: n, QueueCap: 4, WaitBufCap: combining.Unbounded, Faults: plan}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	snap := sim.Snapshot()
	return recoveryPoint{
		Procs:        n,
		HotFraction:  h,
		CrashWindows: windows,
		Cycles:       cycles,
		Bandwidth:    st.Bandwidth(),
		MeanLatency:  st.MeanLatency(),
		P99Latency:   st.Percentile(0.99),
		Crashes:      snap.Counters["crashes"],
		Restores:     snap.Counters["restores"],
		Checkpoints:  snap.Counters["checkpoints"],
		LostInFlight: snap.Counters["lost_in_flight"],
		Replayed:     snap.Counters["replayed_requests"],
		HostCPUs:     runtime.NumCPU(),
		Snapshot:     snap,
	}
}

// rmePoint is recoverable-mutual-exclusion acquire latency, clean versus
// crashed: every processor loops acquire → critical section → release on
// one lock through the combining network, and the point reports how long a
// grant takes from the first attempt of each round (NAK spins and crash
// recovery included).
type rmePoint struct {
	Procs        int     `json:"procs"`
	Rounds       int     `json:"rounds_per_proc"`
	CrashWindows int     `json:"crash_windows_per_kind"`
	RunCycles    int64   `json:"run_cycles"`
	AcquireMean  float64 `json:"acquire_mean_cycles"`
	AcquireP99   float64 `json:"acquire_p99_cycles"`
	AcquireMax   int64   `json:"acquire_max_cycles"`
	NAKs         int64   `json:"acquire_naks"`
	HostCPUs     int     `json:"host_cpus"`
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

// benchRME runs the lock protocol to completion and distills the acquire
// latencies.  The final counter is asserted (mutual exclusion would be a
// correctness bug, not a slow point).
func benchRME(n, rounds, windows int) rmePoint {
	var plan *combining.FaultPlan
	if windows > 0 {
		plan = combining.GenCrashPlan(13, windows, 4000, 80)
		plan.RetryTimeout = 512
	}
	clients := make([]*rmeBenchClient, n)
	inj := make([]combining.Injector, n)
	for i := range clients {
		clients[i] = &rmeBenchClient{
			proc: combining.ProcID(i), ids: combining.PartitionIDs(i, n),
			nprocs: n, rounds: rounds,
		}
		inj[i] = clients[i]
	}
	sim := combining.NewSim(combining.NetConfig{
		Procs: n, QueueCap: 4, WaitBufCap: combining.Unbounded, Faults: plan}, inj)
	done := func() bool {
		for _, c := range clients {
			if c.round < c.rounds {
				return false
			}
		}
		return sim.InFlight() == 0
	}
	var ran int64
	for ; ran < 4_000_000 && !done(); ran++ {
		sim.Step()
	}
	if !done() {
		panic(fmt.Sprintf("bench: RME protocol incomplete after %d cycles (windows %d)", ran, windows))
	}
	if got := sim.Memory().Peek(rmeCtr).Val; got != int64(n*rounds) {
		panic(fmt.Sprintf("bench: RME counter %d, want %d — mutual exclusion violated", got, n*rounds))
	}
	var lat []int64
	var naks int64
	for _, c := range clients {
		lat = append(lat, c.latencies...)
		naks += c.naks
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum int64
	for _, l := range lat {
		sum += l
	}
	return rmePoint{
		Procs:        n,
		Rounds:       rounds,
		CrashWindows: windows,
		RunCycles:    ran,
		AcquireMean:  float64(sum) / float64(len(lat)),
		AcquireP99:   float64(lat[len(lat)*99/100]),
		AcquireMax:   lat[len(lat)-1],
		NAKs:         naks,
		HostCPUs:     runtime.NumCPU(),
	}
}

// benchHotspot mirrors RunHotspot but keeps the simulator so the point can
// carry its full instrumentation snapshot.
func benchHotspot(n int, h float64, comb bool, cycles int) hotspotPoint {
	waitCap := 0
	if comb {
		waitCap = combining.Unbounded
	}
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{Rate: 0.6, HotFraction: h}, 1)
	}
	sim := combining.NewSim(combining.NetConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	snap := sim.Snapshot()
	return hotspotPoint{
		Procs:       n,
		HotFraction: h,
		Combining:   comb,
		Cycles:      cycles,
		Bandwidth:   st.Bandwidth(),
		Limit:       combining.AsymptoticHotBandwidth(n, h),
		MeanLatency: st.MeanLatency(),
		P99Latency:  st.Percentile(0.99),
		Combines:    snap.Counters["combines"],
		Snapshot:    snap,
	}
}

// benchDegradation is benchHotspot under a drop-only fault plan: the same
// hot-spot workload, but every forward and reverse hop is dropped with the
// given probability and the engine's timeout/retransmit/dedup recovery
// layer keeps the run exactly-once.
func benchDegradation(n int, h, rate float64, comb bool, cycles int) degradationPoint {
	waitCap := 0
	if comb {
		waitCap = combining.Unbounded
	}
	// The base timeout sits above the healthy hot-spot p99 (~400 cycles
	// at this load), so the curve measures recovery from drops, not
	// spurious retransmits of requests merely delayed by congestion.
	plan := &combining.FaultPlan{Seed: 13, DropFwd: rate, DropRev: rate, RetryTimeout: 512}
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{Rate: 0.6, HotFraction: h}, 1)
	}
	sim := combining.NewSim(combining.NetConfig{Procs: n, QueueCap: 4, WaitBufCap: waitCap, Faults: plan}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	snap := sim.Snapshot()
	return degradationPoint{
		Procs:          n,
		HotFraction:    h,
		DropRate:       rate,
		Combining:      comb,
		Cycles:         cycles,
		Bandwidth:      st.Bandwidth(),
		MeanLatency:    st.MeanLatency(),
		P99Latency:     st.Percentile(0.99),
		FaultsInjected: snap.Counters["faults_injected"],
		Retries:        snap.Counters["retries"],
		DedupHits:      snap.Counters["dedup_hits"],
		Snapshot:       snap,
	}
}

// benchSaturation runs the E14 point: a non-combining network with every
// queue tight (the configuration tree saturation punishes hardest),
// fixed window 8 versus AIMD admission starting at 8.  The adaptive side
// reports its mean window and decrease count so the curve shows the
// controller actually throttling.
func benchSaturation(n int, h float64, adaptive bool, cycles int) saturationPoint {
	traffic := combining.TrafficConfig{
		Rate: 0.8, HotFraction: h, Window: 8,
		Adaptive: adaptive, MinWindow: 1, MaxWindow: 16,
	}
	inj := make([]combining.Injector, n)
	var ctrls []*combining.AIMD
	for p := 0; p < n; p++ {
		s := combining.NewStochastic(p, n, traffic, 7)
		if c := s.Admission(); c != nil {
			ctrls = append(ctrls, c)
		}
		inj[p] = s
	}
	sim := combining.NewSim(combining.NetConfig{
		Procs: n, QueueCap: 2, RevQueueCap: 2, MemQueueCap: 2, WaitBufCap: 0,
	}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	snap := sim.Snapshot()
	meanWin, decreases := float64(traffic.Window), int64(0)
	if len(ctrls) > 0 {
		sum := 0.0
		for _, c := range ctrls {
			sum += c.MeanWindow()
			decreases += c.Decreases
		}
		meanWin = sum / float64(len(ctrls))
	}
	return saturationPoint{
		Procs:            n,
		HotFraction:      h,
		Adaptive:         adaptive,
		Cycles:           cycles,
		Bandwidth:        st.Bandwidth(),
		MeanLatency:      st.MeanLatency(),
		P99Latency:       st.Percentile(0.99),
		SaturationCycles: snap.Counters["saturation_cycles"],
		MaxStreak:        snap.Gauges["saturation_max_streak"],
		MaxMemQueue:      snap.Gauges["max_mem_queue"],
		MaxRevQueue:      snap.Gauges["max_rev_queue"],
		MeanWindow:       meanWin,
		Decreases:        decreases,
		Snapshot:         snap,
	}
}

func benchPermutation(name string, perm combining.Permutation, n, cycles int) permPoint {
	inj := make([]combining.Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = combining.NewPermInjector(p, n, perm, 4)
	}
	sim := combining.NewSim(combining.NetConfig{Procs: n, WaitBufCap: 0}, inj)
	sim.Run(cycles)
	st := sim.Stats()
	return permPoint{
		Pattern:     name,
		Procs:       n,
		Cycles:      cycles,
		Bandwidth:   st.Bandwidth(),
		MeanLatency: st.MeanLatency(),
		P99Latency:  st.Percentile(0.99),
		Snapshot:    sim.Snapshot(),
	}
}

// benchAsyncFAA hammers one address from every port with pipelined
// fetch-and-adds and measures wall-clock throughput; the round-trip latency
// distribution rides along in the snapshot's port_rtt_ns histogram.
func benchAsyncFAA(procs, rounds int, comb bool) asyncPoint {
	net := combining.NewAsyncNet(combining.AsyncConfig{Procs: procs, Combining: comb, Window: 16})
	defer net.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			port := net.Port(p)
			for r := 0; r < rounds; r++ {
				port.RMWAsync(0, combining.FetchAdd(1))
			}
			port.Fence()
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := procs * rounds
	if got := net.Memory().Peek(0).Val; got != int64(total) {
		panic(fmt.Sprintf("bench: async FAA final %d, want %d", got, total))
	}
	return asyncPoint{
		Procs:         procs,
		RoundsPerPort: rounds,
		Combining:     comb,
		ElapsedNs:     elapsed.Nanoseconds(),
		OpsPerSec:     float64(total) / elapsed.Seconds(),
		Combines:      net.Combines(),
		Snapshot:      net.Snapshot(),
	}
}
