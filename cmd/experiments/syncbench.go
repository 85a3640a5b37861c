package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	csync "combining/pkg/sync"
)

// The sync_primitives section of the bench baseline (experiment E18): the
// pkg/sync library primitives against their stdlib baselines, wall-clock,
// on hot-spot workloads.  Counters at a sweep of goroutine counts (the
// software image of the paper's N-processor hot spot), the MCS queue lock
// against sync.Mutex, and the combining-tree barrier against the idiomatic
// WaitGroup fork-join.  HostCPUs is the honesty field: on a single-core
// host the sharded counter cannot beat a bare atomic — there is no cache
// traffic to avoid — and every number is scheduler throughput, not memory
// parallelism.

// syncPoint is one wall-clock cell of the sync_primitives sweep.
type syncPoint struct {
	Primitive  string  `json:"primitive"`
	Goroutines int     `json:"goroutines"`
	TotalOps   int     `json:"total_ops"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	NsPerOp    float64 `json:"ns_per_op"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	HostCPUs   int     `json:"host_cpus"`
}

// benchSyncOp times totalOps calls of op spread over g goroutines.
func benchSyncOp(primitive string, g, totalOps int, op func()) syncPoint {
	per := totalOps / g
	var wg sync.WaitGroup
	wg.Add(g)
	start := time.Now()
	for i := 0; i < g; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				op()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	done := per * g
	return syncPoint{
		Primitive:  primitive,
		Goroutines: g,
		TotalOps:   done,
		ElapsedNs:  elapsed.Nanoseconds(),
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(done),
		OpsPerSec:  float64(done) / elapsed.Seconds(),
		HostCPUs:   runtime.NumCPU(),
	}
}

// benchSyncCounters sweeps the three counter flavours — sharded combining
// counter, bare atomic (the hot cell the shards decompose), and a
// mutex-guarded integer — across goroutine counts on one shared tally.
func benchSyncCounters(gs []int, totalOps int) []syncPoint {
	var pts []syncPoint
	for _, g := range gs {
		c := csync.NewCounter()
		pts = append(pts, benchSyncOp("counter", g, totalOps, func() { c.Add(1) }))

		var a atomic.Int64
		pts = append(pts, benchSyncOp("atomic", g, totalOps, func() { a.Add(1) }))

		var mu sync.Mutex
		var v int64
		pts = append(pts, benchSyncOp("mutex_counter", g, totalOps, func() {
			mu.Lock()
			v++
			mu.Unlock()
		}))
	}
	return pts
}

// benchSyncLocks compares the MCS queue lock against sync.Mutex on the
// same trivial critical section.
func benchSyncLocks(gs []int, totalOps int) []syncPoint {
	var pts []syncPoint
	for _, g := range gs {
		var l csync.MCSLock
		var v1 int64
		pts = append(pts, benchSyncOp("mcs_lock", g, totalOps, func() {
			q := l.Lock()
			v1++
			l.Unlock(q)
		}))

		var mu sync.Mutex
		var v2 int64
		pts = append(pts, benchSyncOp("mutex_lock", g, totalOps, func() {
			mu.Lock()
			v2++
			mu.Unlock()
		}))
	}
	return pts
}

// benchSyncBarriers times episodes of the combining-tree barrier at each width
// against the stdlib equivalent of one episode: forking n-1 goroutines and
// joining them with a WaitGroup.
func benchSyncBarriers(widths []int, episodes int) []syncPoint {
	var pts []syncPoint
	for _, n := range widths {
		b := csync.NewBarrier(n)
		var wg sync.WaitGroup
		wg.Add(n)
		start := time.Now()
		for w := 0; w < n; w++ {
			go func(w int) {
				defer wg.Done()
				for e := 0; e < episodes; e++ {
					b.Wait(w)
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		pts = append(pts, syncPoint{
			// Historical key: the barrier was a static tournament when the
			// committed BENCH_combining.json was cut, and benchcmp matches
			// points by name.  The rename rides with ROADMAP item 4's split.
			Primitive:  "tournament_barrier",
			Goroutines: n,
			TotalOps:   episodes,
			ElapsedNs:  elapsed.Nanoseconds(),
			NsPerOp:    float64(elapsed.Nanoseconds()) / float64(episodes),
			OpsPerSec:  float64(episodes) / elapsed.Seconds(),
			HostCPUs:   runtime.NumCPU(),
		})

		start = time.Now()
		for e := 0; e < episodes; e++ {
			var fj sync.WaitGroup
			fj.Add(n - 1)
			for w := 1; w < n; w++ {
				go func() { defer fj.Done() }()
			}
			fj.Wait()
		}
		elapsed = time.Since(start)
		pts = append(pts, syncPoint{
			Primitive:  "waitgroup_forkjoin",
			Goroutines: n,
			TotalOps:   episodes,
			ElapsedNs:  elapsed.Nanoseconds(),
			NsPerOp:    float64(elapsed.Nanoseconds()) / float64(episodes),
			OpsPerSec:  float64(episodes) / elapsed.Seconds(),
			HostCPUs:   runtime.NumCPU(),
		})
	}
	return pts
}

// benchSyncPrimitives assembles the whole section.
func benchSyncPrimitives(quick bool) []syncPoint {
	counterGs := []int{1, 8, 64, 512, 4096}
	counterOps := 1 << 20
	lockGs := []int{1, 8, 64, 512}
	lockOps := 1 << 18
	barrierWidths := []int{2, 4, 8, 64}
	barrierEpisodes := 5000
	if quick {
		counterGs = []int{1, 8, 64}
		counterOps = 1 << 15
		lockGs = []int{1, 8, 64}
		lockOps = 1 << 13
		barrierWidths = []int{2, 8}
		barrierEpisodes = 200
	}
	var pts []syncPoint
	pts = append(pts, benchSyncCounters(counterGs, counterOps)...)
	pts = append(pts, benchSyncLocks(lockGs, lockOps)...)
	pts = append(pts, benchSyncBarriers(barrierWidths, barrierEpisodes)...)
	return pts
}
