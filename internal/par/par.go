// Package par is the deterministic barrier-phase worker pool the
// cycle-driven engines shard their per-cycle work across.
//
// The design target is bit-identical output, not scheduling freedom.  An
// engine splits each simulated cycle into phases whose work items are
// partitioned into conflict groups — items in different groups touch
// disjoint machine state — spreads whole groups across workers with Split,
// and separates phases with Barrier sync points.  Within a group the owning
// worker replays the exact serial processing order, and everything a group
// shares with the rest of the machine (fault-injector counters, memory
// module mutexes, per-worker stats shards merged after the step) is
// commutative, so the machine state after every phase — and therefore every
// counter, histogram and reply the run produces — is identical to the
// single-threaded stepper no matter how many workers run or how the runtime
// schedules them.  DESIGN.md §6 carries the full argument.
//
// A Pool's workers are persistent: Start spawns Workers-1 goroutines, each
// of which waits for the next Run on its own Wait word (one cache line
// that only the caller sets), and Run publishes a generation number to
// every word, runs fn(0) itself, and awaits a done word that the last
// worker to finish sets.  Every wait is local spinning in the paper's
// sense: the waiter reads a line that only its waker sets.  While the pool
// fits GOMAXPROCS both waits spin long enough to span one cycle's serial
// section (injection and the step frame) before they park, so in the
// steady state a cycle's dispatch is one swap per worker and a join is one
// swap, with no trip through the scheduler; a pool wider than GOMAXPROCS
// parks at once, and an idle pool costs nothing.  The engines bracket
// their Run/Drain loops with Start/Stop, so a million-cycle run costs
// Workers-1 goroutine starts total — not per cycle — and the per-cycle
// dispatch allocates nothing.  Start/Stop nest by refcount, and the
// outermost Stop returns only after its workers have left the pool, so no
// spinning goroutine outlives the engine's Run.  A pool that was never
// started still works: Run falls back to spawning its workers for that one
// call and joining them on a WaitGroup, so a bare Step outside an engine
// Run stays correct, just slower.  Worker 0 always runs on the caller's
// goroutine, so engine phases that must stay single-threaded (injector
// callbacks, delivery commits) can simply be guarded with `if w == 0` and
// still satisfy APIs that assume the simulator's own goroutine.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// dispatchSpin is the spin budget, in loads of the wait word, of a pool
// that fits GOMAXPROCS: a worker awaiting the next Run and the caller
// awaiting the last worker's finish.  It has to outlast the caller's
// serial section between two Runs — injection plus the step prologue and
// epilogue, about 100 µs a cycle at 1024 processors (EXPERIMENTS.md E36) —
// or the worker parks during injection and the next Run pays a wake-up
// through the scheduler.  2^18 loads take about 0.4 ms on a 2-vCPU Xeon
// (EXPERIMENTS.md E43).  There a budget of SpinLimit (256) loads parked
// during injection and stepped the 1024-processor machine no faster than
// the channel dispatch this pool replaced, while 2^18 cut its cycle by a
// fifth or more.
const dispatchSpin = 1 << 18

// Pool runs a function on a fixed set of workers.
type Pool struct {
	workers int
	refs    int    // Start/Stop nesting depth; managed by the owning goroutine
	gen     uint32 // the last generation published; managed by the owning goroutine
	spin    int32  // both waits' spin budget, fixed by the outermost Start
	fn      func(w int)
	lanes   []lane      // lanes[w] wakes worker w ≥ 1
	pending paddedInt32 // workers yet to finish the current generation
	done    lane        // the generation its last worker finished
}

// lane is one Wait word on its own cache line.
type lane struct {
	Wait
	_ [CacheLine - 16]byte
}

// NewPool returns a pool of the given width; widths below 1 clamp to 1.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// Started reports whether persistent workers are running: spinning or
// parked on their wait words between Runs.
func (p *Pool) Started() bool { return p.refs > 0 }

// Start spawns the pool's persistent workers (idempotent by refcount: each
// Start must be matched by one Stop, and only the outermost pair spawns and
// retires goroutines).  Start and Stop must be called from the goroutine
// that calls Run — the same single-threaded discipline Run itself requires.
// The outermost Start also fixes whether the pool's waits spin: they do
// while the width fits GOMAXPROCS, and park at once otherwise.
func (p *Pool) Start() {
	if p.workers == 1 {
		return
	}
	p.refs++
	if p.refs > 1 {
		return
	}
	if p.lanes == nil {
		// Each word's park channel is made here, not on its owner's first
		// park, so no Run of the steady state allocates.
		p.lanes = make([]lane, p.workers)
		for w := range p.lanes {
			p.lanes[w].ch = make(chan struct{}, 1)
		}
		p.done.ch = make(chan struct{}, 1)
	}
	p.spin = 0
	if p.workers <= runtime.GOMAXPROCS(0) {
		p.spin = dispatchSpin
	}
	for w := 1; w < p.workers; w++ {
		go p.worker(w, p.gen, p.spin)
	}
}

// Stop retires the persistent workers started by the matching Start.  The
// outermost Stop publishes a generation with no function, which each
// worker finishes by leaving, and returns once the last has: no worker
// touches the pool, or spins, after Stop returns.
func (p *Pool) Stop() {
	if p.workers == 1 || p.refs == 0 {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	p.dispatch(nil)
}

// worker runs worker w's side of every generation after gen, until the
// generation that carries no function.
func (p *Pool) worker(w int, gen uint32, spin int32) {
	for {
		gen = nextGen(gen)
		p.lanes[w].Await(gen, spin)
		fn := p.fn
		if fn != nil {
			fn(w)
		}
		if p.pending.v.Add(-1) == 0 {
			p.done.Set(gen)
		}
		if fn == nil {
			return
		}
	}
}

// nextGen steps a generation number, skipping values that carry Wait's
// parked bit.
func nextGen(gen uint32) uint32 { return (gen + 1) &^ parked }

// Run executes fn(w) for every worker index w in [0, Workers) concurrently
// and returns when all have finished.  fn(0) runs on the calling goroutine.
// Between Start and Stop the persistent workers are dispatched — the swap
// that publishes a generation happens-before the worker's read of fn, and
// the caller's read of the done word happens-after every worker's call —
// and the dispatch allocates nothing.  Outside Start/Stop the workers are
// spawned fresh for this one call.
func (p *Pool) Run(fn func(w int)) {
	if p.workers == 1 {
		fn(0)
		return
	}
	if p.refs == 0 {
		// A fresh goroutine starts on the caller's own run queue, so
		// waiting for it must park, not spin: join them on a WaitGroup.
		var wg sync.WaitGroup
		wg.Add(p.workers - 1)
		for w := 1; w < p.workers; w++ {
			go func(w int) {
				defer wg.Done()
				fn(w)
			}(w)
		}
		fn(0)
		wg.Wait()
		return
	}
	p.dispatch(fn)
}

// dispatch publishes the next generation with fn to every worker, runs
// fn(0) on the caller when fn is not nil, and returns once every worker has
// finished the generation.
func (p *Pool) dispatch(fn func(w int)) {
	p.gen = nextGen(p.gen)
	p.fn = fn
	p.pending.v.Store(int32(p.workers - 1))
	for w := 1; w < p.workers; w++ {
		p.lanes[w].Set(p.gen)
	}
	if fn != nil {
		fn(0)
	}
	p.done.Await(p.gen, p.spin)
	p.fn = nil
}

// Barrier is a reusable phase barrier for exactly n participants: every
// caller of Sync blocks until all n have arrived, then all proceed.  Sync
// takes the caller's worker index so implementations can keep per-worker
// local state (a local sense) that is read and written without
// cross-worker contention.
//
// All implementations re-evaluate their spin-versus-yield policy against
// runtime.GOMAXPROCS on every barrier episode (not once at construction):
// when the barrier is wider than the processors available, the stragglers a
// waiter is spinning for may need the waiter's own processor to run, so
// waiters yield immediately instead of burning the spin budget.
type Barrier interface {
	// Sync blocks worker w until all n participants have arrived at the
	// current phase.  Each participant must pass its own fixed index in
	// [0, n); no index may be used by two goroutines concurrently.
	Sync(w int)
}

// NewBarrier returns a barrier for n participants (n ≥ 1): a
// cache-line-padded central sense-reversing barrier, whose arrival is one
// fetch-and-add on a line nothing else shares and whose release is one
// store every waiter reads.  For one participant its Sync returns at once.
func NewBarrier(n int) Barrier { return NewSenseBarrier(n) }

type paddedInt32 struct {
	v atomic.Int32
	_ [CacheLine - 4]byte
}

type paddedUint32 struct {
	v uint32
	_ [CacheLine - 4]byte
}

// SenseBarrier is a central sense-reversing barrier with cache-line-padded
// state: the arrival count, the release sense, and each worker's local
// sense all live on their own lines, so arrivals contend only on the count
// and release waiters spin on a line that is written exactly once per
// episode.  A straggler still waiting for the current release blocks the
// count from refilling (it has not arrived at the next episode), so the
// sense cannot flip back underneath it — the classic argument for why a
// one-bit sense needs no ABA-proof phase number.
type SenseBarrier struct {
	SpinPolicy
	_     [CacheLine]byte
	count paddedInt32
	sense paddedUint32 // written by the last arriver, read by waiters
	local []paddedUint32
}

// NewSenseBarrier returns a sense-reversing barrier for n participants
// (n ≥ 1).
func NewSenseBarrier(n int) *SenseBarrier {
	if n < 1 {
		n = 1
	}
	b := &SenseBarrier{local: make([]paddedUint32, n)}
	b.Init(n)
	return b
}

// Sync blocks worker w until all n participants have arrived.
func (b *SenseBarrier) Sync(w int) {
	if b.n == 1 {
		return
	}
	s := b.local[w].v ^ 1
	b.local[w].v = s
	if b.count.v.Add(1) == b.n {
		b.Refresh()
		b.count.v.Store(0)
		atomic.StoreUint32(&b.sense.v, s)
		return
	}
	spin := b.SpinBudget()
	for spins := int32(0); atomic.LoadUint32(&b.sense.v) != s; spins++ {
		if spins >= spin {
			runtime.Gosched()
		}
	}
}

// Split partitions n work items into contiguous per-worker ranges,
// returning worker w's half-open slice [lo, hi).  The split is balanced
// (sizes differ by at most one) and purely arithmetic, so the assignment of
// items to workers is the same on every run — though, because items in
// different groups are independent, correctness never depends on it.
func Split(n, workers, w int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}
