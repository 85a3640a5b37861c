package main

import (
	"math"
	"runtime"
	stdsync "sync"
	"time"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/memory"
	"combining/internal/par"
	"combining/internal/rmw"
	"combining/internal/stats"
	"combining/internal/word"
	psync "combining/pkg/sync"
)

// probes are the prices of single layer operations, in nanoseconds per call
// unless the name says otherwise.  Each is measured from outside, by calling
// the layer's public functions on inputs shaped like the workloads'
// (fetch-and-add(1) requests with one source each, queues of four, width-2
// barriers), after the traced episode in the same process.  Multiplied by
// the exact event counts Snapshot() reports they give each layer's
// attributed share of the episode's host time (layers.go).
type probes struct {
	combine, decombine, reject float64 // core
	integrity                  float64 // core.StampRequest + RequestOK
	compose, apply             float64 // rmw
	tick, tickCached, tickIdle float64 // memory: Enqueue+Tick, and an empty Tick
	barrierSync                float64 // par: one Sync at width 2
	route                      float64 // engine.Staged: NextLine + OutPort
	faultQuery                 float64 // faults: mean of DropForward and SwitchCrashed
	record                     float64 // stats.Histogram.Record
	lockPair                   float64 // pkg/sync: uncontended Acquire+Release
	counterAdd, counterRead    float64
	barrierWaitUS              float64 // pkg/sync: one Barrier.Wait, microseconds
}

// Sinks keep the compiler from discarding probed calls.
var (
	sinkWord  word.Word
	sinkInt   int
	sinkBool  bool
	sinkMap   rmw.Mapping
	sinkReply core.Reply
)

const (
	probeReps  = 5
	probeBatch = 2048
)

// fastest times batch() probeReps times and returns the fastest, divided by
// calls: the same one-sided-noise reasoning as the end-to-end estimator.
func fastest(calls int, batch func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		batch()
		best = min(best, float64(time.Since(t0)))
	}
	return best / float64(calls)
}

// clockPairNS is what an empty time.Now/time.Since pair reads — the part of
// a clock pair's cost that lands inside the interval it measures — and is
// subtracted from sampled in-line timings.
var clockPairNS = stdsync.OnceValue(func() float64 {
	best := math.Inf(1)
	for rep := 0; rep < probeReps; rep++ {
		var sum time.Duration
		for i := 0; i < probeBatch; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		best = min(best, float64(sum)/probeBatch)
	}
	return best
})

func faaRequest(id int, addr word.Addr, src int) core.Request {
	return core.NewRequest(word.ReqID(id), addr, rmw.FetchAdd(1), word.ProcID(src))
}

// runProbes measures every probe.  The pkg/sync barrier is probed at the
// workload's goroutine count, and the fault queries against its seed's plan.
func runProbes(w workload, seed uint64) probes {
	var p probes
	pol := core.Policy{}

	// core: Combine + WaitBuffer.Push, then PopMatch + Decombine of the same
	// records, as a switch does on the way up and on the way back.
	as := make([]core.Request, probeBatch)
	bs := make([]core.Request, probeBatch)
	for i := range as {
		as[i] = faaRequest(2*i+1, hotAddr, i%256)
		bs[i] = faaRequest(2*i+2, hotAddr, (i+1)%256)
	}
	wb := core.NewWaitBuffer[core.Record](core.Unbounded)
	p.combine, p.decombine = math.Inf(1), math.Inf(1)
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for i := range as {
			_, rec, _ := core.Combine(as[i], bs[i], pol)
			wb.Push(rec.ID1, rec)
		}
		p.combine = min(p.combine, float64(time.Since(t0))/probeBatch)
		t0 = time.Now()
		for i := range as {
			reply := core.Reply{ID: as[i].ID, Val: word.W(int64(i))}
			rec, _ := wb.PopMatch(reply.ID, func(r core.Record) bool { return core.CanDecombine(r, reply) })
			sinkReply, _ = core.Decombine(rec, reply)
		}
		p.decombine = min(p.decombine, float64(time.Since(t0))/probeBatch)
	}
	// A rejected tail scan: a queue of four whose tail matches, wait buffer
	// full — what every arrival at a hot queue costs with combining off.
	queue := []core.Request{
		faaRequest(1, 7, 1), faaRequest(2, 9, 2), faaRequest(3, 11, 3), faaRequest(4, hotAddr, 4),
	}
	arrival := faaRequest(5, hotAddr, 5)
	reqOf := func(r *core.Request) *core.Request { return r }
	full := func() bool { return false }
	p.reject = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			_, rejected, _ := core.CombineAtTail(queue, reqOf, arrival, pol, full)
			sinkBool = rejected
		}
	})
	p.integrity = fastest(probeBatch, func() {
		for i := range as {
			sinkBool = core.RequestOK(core.StampRequest(as[i]))
		}
	})

	// rmw.
	var f, g rmw.Mapping = rmw.FetchAdd(1), rmw.FetchAdd(1)
	p.compose = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			sinkMap, sinkBool = rmw.Compose(f, g)
		}
	})
	p.apply = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			sinkWord = f.Apply(word.W(int64(i)))
		}
	})

	// memory: one request through a module's queue and service.
	tick := func(opts ...memory.Option) float64 {
		m := memory.NewModule(append(opts, memory.WithServiceTime(1), memory.WithQueueCap(4))...)
		next := 0
		return fastest(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				next++
				m.Enqueue(faaRequest(next, word.Addr(next%64), 0))
				sinkReply, sinkBool = m.Tick()
			}
		})
	}
	p.tick = tick()
	p.tickCached = tick(memory.WithReplyCache())
	idle := memory.NewModule(memory.WithServiceTime(1), memory.WithQueueCap(4))
	p.tickIdle = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			sinkReply, sinkBool = idle.Tick()
		}
	})

	// par: the phase barrier the parallel stepper uses, at its width.
	p.barrierSync = lockstep(2, par.NewBarrier(2).Sync)

	// engine wiring.
	var topo engine.Staged = engine.OmegaOf(256, 2)
	p.route = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			sinkInt = topo.NextLine(i&7, i&255) + topo.OutPort(i&7, i&255)
		}
	})

	// faults: one per-hop and one per-component-cycle query.
	plan := faults.GenCrashPlan(seed, crashN, 4000, crashDead)
	plan.DropFwd, plan.DropRev = dropProb, dropProb
	flt := faults.NewInjector(*plan)
	p.faultQuery = fastest(2*probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			sinkBool = flt.DropForward(uint64(i&255), word.ReqID(i), 0)
			sinkBool = flt.SwitchCrashed(0, i&255, int64(i))
		}
	})

	// stats.
	var hist stats.Histogram
	p.record = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			hist.Record(int64(i & 63))
		}
	})

	// pkg/sync, each primitive alone.
	var lock psync.MCSLock
	var q psync.QNode
	p.lockPair = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			lock.Acquire(&q)
			lock.Release(&q)
		}
	})
	counter := psync.NewCounter()
	p.counterAdd = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			counter.Add(1)
		}
	})
	p.counterRead = fastest(probeBatch, func() {
		for i := 0; i < probeBatch; i++ {
			sinkInt = int(counter.Read())
		}
	})
	width := w.goroutines
	if w.kind != kindSynclib || width == 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p.barrierWaitUS = lockstep(width, psync.NewBarrier(width).Wait) / 1e3
	return p
}

// lockstep times a barrier alone: n goroutines meet at it lockstepRounds
// times; the result is nanoseconds per meeting, fastest of probeReps.
func lockstep(n int, wait func(id int)) float64 {
	const lockstepRounds = 256
	return fastest(lockstepRounds, func() {
		var wg stdsync.WaitGroup
		wg.Add(n)
		for id := 0; id < n; id++ {
			go func() {
				defer wg.Done()
				for r := 0; r < lockstepRounds; r++ {
					wait(id)
				}
			}()
		}
		wg.Wait()
	})
}
