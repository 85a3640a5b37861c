package main

import (
	"time"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/hypercube"
	"combining/internal/memory"
	"combining/internal/network"
	"combining/internal/stats"
	"combining/internal/word"
)

// machine is what the benchmark needs from a cycle engine; network.Sim and
// hypercube.Sim both provide it.
type machine interface {
	Run(cycles int)
	Drain(maxCycles int) bool
	Stalled() bool
	StallReport() string
	Snapshot() stats.Snapshot
	Memory() *memory.Array
}

const (
	window     = 4 // outstanding requests per processor (closed loop)
	hotAddr    = word.Addr(0)
	drainBound = 200000
	// trafficSample is how many Next/Deliver calls share one timed call in a
	// traced episode: a clock pair costs about as much as the call it times,
	// so timing every call would add a quarter to the episode.
	trafficSample = 8
)

// gate is the benchmark-owned Injector around network.Stochastic — the one
// boundary the engines call out through.  It stops issue when the timed
// cycles end so the machine can drain, counts what crossed the boundary, and
// keeps the fetch-and-add old values returned for the hot address so the
// exactly-once check can be made on results, not on counters.  In a traced
// episode it also times a fixed sample of the calls.
type gate struct {
	inner  *network.Stochastic
	closed *bool

	issued, delivered int64
	hot               [2 * window]word.ReqID // ids of in-flight hot requests
	nhot              int
	overflow          bool
	hotVals           []int64

	timer *trafficTimer // nil unless traced
	calls uint32
}

// trafficTimer accumulates the sampled time inside Next and Deliver.
type trafficTimer struct {
	ns, samples int64
}

// sample starts the clock for every trafficSample-th call of a traced
// episode; stop adds the reading.
func (g *gate) sample() (t0 time.Time, sampled bool) {
	if g.timer == nil {
		return
	}
	g.calls++
	if g.calls%trafficSample != 0 {
		return
	}
	return time.Now(), true
}

func (t *trafficTimer) stop(t0 time.Time) {
	t.ns += int64(time.Since(t0))
	t.samples++
}

func (g *gate) Next(cycle int64) (network.Injection, bool) {
	if *g.closed {
		return network.Injection{}, false
	}
	t0, sampled := g.sample()
	in, ok := g.inner.Next(cycle)
	if sampled {
		g.timer.stop(t0)
	}
	if ok {
		g.issued++
		if in.Hot {
			if g.nhot == len(g.hot) {
				g.overflow = true
			} else {
				g.hot[g.nhot] = in.Req.ID
				g.nhot++
			}
		}
	}
	return in, ok
}

func (g *gate) Deliver(rep core.Reply, cycle int64) {
	t0, sampled := g.sample()
	g.inner.Deliver(rep, cycle)
	if sampled {
		g.timer.stop(t0)
	}
	g.delivered++
	for i := 0; i < g.nhot; i++ {
		if g.hot[i] == rep.ID {
			g.nhot--
			g.hot[i] = g.hot[g.nhot]
			g.hotVals = append(g.hotVals, rep.Val.Val)
			break
		}
	}
}

// buildMachine constructs the workload's machine and its gated injectors.
func buildMachine(w workload, seed uint64, closed *bool, timer *trafficTimer) (machine, []*gate) {
	traffic := network.TrafficConfig{
		Rate: w.rate, HotFraction: w.hot, HotAddr: hotAddr, Window: window,
	}
	gates := make([]*gate, w.procs)
	inj := make([]network.Injector, w.procs)
	for p := range gates {
		gates[p] = &gate{
			inner:  network.NewStochastic(p, w.procs, traffic, seed),
			closed: closed,
			timer:  timer,
		}
		inj[p] = gates[p]
	}
	if w.kind == kindCube {
		plan := faults.GenCrashPlan(seed, crashN, int64(w.warm+w.timed), crashDead)
		plan.DropFwd, plan.DropRev = dropProb, dropProb
		return hypercube.NewSim(hypercube.Config{
			Nodes: w.procs, WaitBufCap: w.waitBufCap, Workers: w.workers, Faults: plan,
		}, inj), gates
	}
	return network.NewSim(network.Config{
		Procs: w.procs, Radix: 2, QueueCap: 4, WaitBufCap: w.waitBufCap, Workers: w.workers,
	}, inj), gates
}

// simRun is what a simulator episode leaves behind for the per-layer
// arithmetic in layers.go.
type simRun struct {
	before, end  stats.Snapshot // around the timed part
	final        stats.Snapshot // after the drain
	timedS       float64
	trafficNS    float64 // estimated time inside Next+Deliver, traced only
	cpuS         float64
	mallocs, bts uint64
	snapshotS    float64
}

// runSimEpisode builds the machine, warms it up, times a fixed number of
// cycles, drains it and checks every result.
func runSimEpisode(e *episode, w workload, tr *tracer) *simRun {
	closed := false
	var timer *trafficTimer
	if tr != nil {
		timer = &trafficTimer{}
	}

	t0 := time.Now()
	sp := tr.begin("construct", 0)
	m, gates := buildMachine(w, e.Seed, &closed, timer)
	tr.end(sp)
	sp = tr.begin("warmup", 0)
	m.Run(w.warm)
	tr.end(sp)
	e.SetupS = time.Since(t0).Seconds()

	run := &simRun{}
	run.before = m.Snapshot()
	if tr != nil {
		*timer = trafficTimer{}
		run.mallocs, run.bts = memCounters()
		run.cpuS = cpuSeconds()
	}

	t1 := time.Now()
	if tr == nil {
		m.Run(w.timed)
	} else {
		timedSpan := tr.begin("timed", 0)
		for done := 0; done < w.timed; done += sliceCycles {
			sp := tr.begin("run_slice", timedSpan)
			m.Run(min(sliceCycles, w.timed-done))
			tr.end(sp)
		}
		tr.end(timedSpan)
	}
	run.timedS = time.Since(t1).Seconds()
	e.TimedS = run.timedS

	if tr != nil {
		run.cpuS = cpuSeconds() - run.cpuS
		mallocs, bts := memCounters()
		run.mallocs, run.bts = mallocs-run.mallocs, bts-run.bts
		if timer.samples > 0 {
			perCall := float64(timer.ns)/float64(timer.samples) - clockPairNS()
			run.trafficNS = max(perCall, 0) * float64(timer.samples) * trafficSample
		}
	}
	sp = tr.begin("snapshot", 0)
	t2 := time.Now()
	run.end = m.Snapshot()
	run.snapshotS = time.Since(t2).Seconds()
	tr.end(sp)
	e.Ops = run.end.Counter("completed") - run.before.Counter("completed")

	closed = true
	sp = tr.begin("drain", 0)
	drained := m.Drain(drainBound)
	tr.end(sp)
	run.final = m.Snapshot()
	e.Digest = digest(run.final)
	e.Counters = run.final.Counters

	sp = tr.begin("checks", 0)
	checkSim(e, w, m, gates, drained, run.final)
	tr.end(sp)

	return run
}

// checkSim verifies the drained machine: nothing lost, nothing executed
// twice, and the hot cell's fetch-and-adds serialized.
func checkSim(e *episode, w workload, m machine, gates []*gate, drained bool, final stats.Snapshot) {
	var issued, delivered int64
	var hotVals []int64
	overflow := false
	for _, g := range gates {
		issued += g.issued
		delivered += g.delivered
		hotVals = append(hotVals, g.hotVals...)
		overflow = overflow || g.overflow || g.nhot != 0
	}
	e.Attempted = issued
	if m.Stalled() {
		e.failAll("machine stalled: %s", m.StallReport())
		return
	}
	if !drained {
		e.failAll("machine did not drain within %d cycles", drainBound)
		return
	}
	if completed := final.Counter("completed"); issued != delivered || issued != completed {
		e.fail(abs(issued-delivered)+abs(issued-completed),
			"issued %d, delivered %d, completed %d", issued, delivered, completed)
	}
	// Every operation is fetch-and-add(1) on a zeroed memory, so the cells
	// sum to the number of operations executed exactly once each.
	var sum int64
	for a := word.Addr(0); a < word.Addr(64*w.procs); a++ {
		sum += m.Memory().Peek(a).Val
	}
	if sum != issued {
		e.fail(abs(sum-issued), "memory cells sum to %d, issued %d", sum, issued)
	}
	// The old values returned for the hot cell must be exactly {0 … k−1}.
	if overflow {
		e.fail(1, "hot-request bookkeeping overflowed or left ids unanswered")
	}
	k := int64(len(hotVals))
	seen := make([]bool, k)
	var bad int64
	for _, v := range hotVals {
		if v < 0 || v >= k || seen[v] {
			bad++
			continue
		}
		seen[v] = true
	}
	if final := m.Memory().Peek(hotAddr).Val; bad != 0 || final != k {
		e.fail(bad+abs(final-k), "hot cell: %d of %d old values out of {0…k−1}, final value %d", bad, k, final)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
