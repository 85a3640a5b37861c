package main

import (
	"fmt"
	"runtime"
	"sort"
	stdsync "sync"
	"time"

	psync "combining/pkg/sync"
)

// acquireSample is how many Acquire calls share one timed call in a traced
// synclib episode.
const acquireSample = 64

// runSyncEpisode drives pkg/sync as a closed loop of persistent goroutines.
// Each round every goroutine does opsPerRound × {MCSLock.Acquire;
// guarded++; Release; Counter.Add(1)} and then meets the others at the
// tournament barrier.  Barrier-separated rounds keep the contention pattern
// the same in every episode: a free-running loop lets a goroutine finish its
// whole quota uncontended inside one time slice, which makes throughput
// bimodal.  The coordinator only waits; it is not a participant.
func runSyncEpisode(e *episode, w workload, tr *tracer) {
	g := w.goroutines
	if g == 0 {
		g = runtime.GOMAXPROCS(0)
	}
	t0 := time.Now()
	sp := tr.begin("construct", 0)
	var (
		lock    psync.MCSLock
		guarded int64 // protected by lock
		counter = psync.NewCounter()
		barrier = psync.NewBarrier(g)
		wg      stdsync.WaitGroup
		// Goroutine 0 stamps both ends of the timed part right after the
		// barrier that ends the warm-up and the one that ends the last round.
		start, stop time.Time
		cpu0, cpu1  float64
		waits       = make([][]int64, g) // sampled Acquire latencies, traced only
	)
	if tr != nil {
		for i := range waits {
			waits[i] = make([]int64, 0, (w.warm+w.timed)*w.opsPerRound/acquireSample+1)
		}
	}
	body := func(id int) {
		defer wg.Done()
		var q psync.QNode
		n := 0
		for round := 0; round < w.warm+w.timed; round++ {
			for op := 0; op < w.opsPerRound; op++ {
				if tr != nil && round >= w.warm && n%acquireSample == 0 {
					ta := time.Now()
					lock.Acquire(&q)
					waits[id] = append(waits[id], int64(time.Since(ta)))
				} else {
					lock.Acquire(&q)
				}
				n++
				guarded++
				lock.Release(&q)
				counter.Add(1)
			}
			barrier.Wait(id)
			if id == 0 && round == w.warm-1 {
				e.SetupS = time.Since(t0).Seconds()
				cpu0 = cpuSeconds()
				start = time.Now()
			}
		}
		if id == 0 {
			stop = time.Now()
			cpu1 = cpuSeconds()
		}
	}
	wg.Add(g)
	for id := 0; id < g; id++ {
		go body(id)
	}
	tr.end(sp)
	sp = tr.begin("rounds", 0)
	wg.Wait()
	tr.end(sp)

	e.TimedS = stop.Sub(start).Seconds()
	e.Ops = int64(w.timed * w.opsPerRound * g)
	e.Attempted = int64((w.warm + w.timed) * w.opsPerRound * g)
	total := counter.Read()
	if guarded != e.Attempted || total != e.Attempted {
		e.fail(abs(guarded-e.Attempted)+abs(total-e.Attempted),
			"guarded %d, counter %d, want %d", guarded, total, e.Attempted)
	}
	e.Counters = map[string]int64{
		"goroutines": int64(g), "rounds": int64(w.warm + w.timed),
		"guarded": guarded, "counter": total,
	}
	e.Digest = fmt.Sprintf("g%d-r%d-%d-%d", g, w.warm+w.timed, guarded, total)

	if tr != nil {
		var all []float64
		for _, ws := range waits {
			for _, v := range ws {
				all = append(all, float64(v))
			}
		}
		sort.Float64s(all)
		pair := clockPairNS()
		if len(all) > 0 {
			e.Layer["sync.acquire_p50_ns"] = max(quantile(all, 0.50)-pair, 0)
			e.Layer["sync.acquire_p99_ns"] = max(quantile(all, 0.99)-pair, 0)
		}
		e.Layer["sync.cpu_us_per_op"] = (cpu1 - cpu0) * 1e6 / float64(e.Ops)
	}
}
