// Package memory implements the shared-memory modules of Section 3: each
// module is a FIFO server that accepts RMW request messages, executes them
// atomically memory-side (Section 2's preferred implementation), and
// returns the old value.  A module satisfies conditions (M2.1)–(M2.3) by
// construction: it processes one request at a time in arrival order.
//
// The package offers two driving styles for the two network engines, and
// they lock differently:
//
//   - Cycle-driven (Enqueue, CanEnqueue, Tick, QueueLen, MaxQueue,
//     Work, Checkpoint, Crash):
//     the cycle-accurate simulators feed requests and collect replies on a
//     clock, with a configurable service time per request.  These methods
//     take no lock.  They are single-owner: one engine owns the module and
//     calls them either from its stepping goroutine or — under a parallel
//     stepper — from exactly one worker per barrier-separated phase (the
//     barrier is the happens-before edge that hands the module from the
//     phase that ticks it to the phase that feeds it).  A mutex here bought
//     nothing, since the engines never share a module inside a phase, and
//     cost a lock and an unlock per module per cycle whether or not the
//     module held work.
//   - Direct (Do, and Peek, Poke, DedupHitCount):
//     the asynchronous goroutine network calls Do from many goroutines at
//     once, so these run under the module's mutex — the module acts as a
//     monitor, which is exactly "memory is locked only during the execution
//     of the update operation".  Tests and drivers read cells with Peek
//     while asynchronous traffic is still executing, so the readers lock
//     too.
//
// The two styles do not mix on one module while it is being stepped: an
// engine's driver calls Peek, Poke or Do between steps, never during one.
// Different modules of one Array are independent — stepping one while
// another serves Do is fine (TestModuleOwnershipHandoff).
package memory

import (
	"sync"

	"combining/internal/core"
	"combining/internal/word"
)

// Module is one memory module: a bank of cells plus a FIFO request queue.
type Module struct {
	// The fields a cycle-driven tick reads come first, so an idle tick — most
	// ticks of most modules — stays within the struct's first cache lines.

	// queue is the cycle-driven request FIFO, bounded by queueCap (0 means
	// unbounded); the request in service stays at its front until it
	// completes, so its length is the module's occupancy.
	queue    core.FIFO[core.Request]
	queueCap int
	// serviceTime is cycles per request (≥ 1).
	serviceTime int
	// busy counts remaining cycles of the request in service (the queue's
	// front); 0 means no request is in service.
	busy int
	// ckpt selects checkpoint mode (WithCheckpoints); its state is below.
	ckpt bool

	// The cells (load, store): cell addr has index i = addr/stride, and
	// lives in page i/pageCells of the dense window while i is inside it,
	// and in sparse, made by the first store past it, beyond.  A page is
	// made by the first store into it and never moves, so the window grows
	// without copying a cell.  stride is the module count of the Array the
	// module belongs to (1 alone), so a module of an Array holds only the
	// addresses the Array homes on it.
	pages  []*cellPage
	sparse map[word.Addr]word.Word
	stride int

	// mu makes the module a monitor for Do and the direct-mode readers; the
	// cycle-driven methods do not take it (see the package comment).
	mu sync.Mutex

	// Served counts completed requests.
	Served int64
	// BusyCycles counts cycles the module spent serving.
	BusyCycles int64

	// canaryNoDedup disables reply-cache lookups (WithNoDedupCanary): the
	// ledger still records executions but never answers from them, so any
	// duplicated delivery double-executes.  Exists solely to give the
	// chaos fuzzer a real bug to find; nothing enables it outside
	// faults.Plan.Canary == "nodedup".
	canaryNoDedup bool

	// replyCache, when non-nil, is the exactly-once ledger: for every
	// original (leaf) request already executed, the value its operation
	// saw.  Request ids are partitioned per processor (word.IDGen), so
	// this flat map is the paper-level "per-processor reply cache" —
	// retransmits of a delivered request hit the cache instead of
	// re-executing a non-idempotent RMW.
	replyCache map[word.ReqID]word.Word
	// DedupHits counts leaf executions answered from the cache.
	DedupHits int64

	// Checkpoint mode (WithCheckpoints): the module keeps an incremental
	// recovery image so a crash rolls back to the last checkpoint in
	// O(changes since checkpoint), not O(total state).  replyCache then
	// holds only committed leaves; delta holds leaves executed since the
	// last checkpoint; undo holds the pre-image of every cell modified
	// since the last checkpoint.  held are replies produced since the last
	// checkpoint — the output-commit rule keeps them inside the module
	// until the checkpoint that covers their effects commits, so a crash
	// can never un-execute an operation whose reply already escaped.
	// releasable are committed replies draining to the network one per
	// Tick.
	delta      map[word.ReqID]word.Word
	undo       map[word.Addr]word.Word
	held       []core.Reply
	releasable core.FIFO[core.Reply]
}

// Option configures a Module.
type Option func(*Module)

// WithServiceTime sets the cycles each request occupies the module.
func WithServiceTime(cycles int) Option {
	return func(m *Module) {
		if cycles < 1 {
			panic("memory: service time must be at least 1 cycle")
		}
		m.serviceTime = cycles
	}
}

// WithQueueCap bounds the cycle-driven input FIFO (including the request in
// service): a full module refuses Enqueue, and the network holds the request
// upstream instead — the backpressure that lets hot-spot congestion surface
// as tree saturation in the switches rather than as unbounded memory-side
// buffering no hardware could provide.  cap ≤ 0 means unbounded (the
// pre-flow-control behavior).
func WithQueueCap(cap int) Option {
	return func(m *Module) { m.queueCap = cap }
}

// WithReplyCache arms the module's exactly-once ledger.  Requests are then
// executed leaf by leaf (they must carry Reps — see core.Request.WithReps):
// leaves already in the cache are skipped, fresh leaves execute and are
// recorded, and the reply carries the exact per-leaf value map so transports
// decombine with core.DecombineExact.  The cache is unbounded for the run —
// a simulator-side simplification of the bounded per-processor caches a real
// machine would age out after the retransmit window closes.
func WithReplyCache() Option {
	return func(m *Module) {
		m.replyCache = make(map[word.ReqID]word.Word)
	}
}

// WithCheckpoints arms checkpoint/crash–restart mode (implies
// WithReplyCache).  The engine calls Checkpoint every K cycles and Crash on
// a crash-window entry; replies are withheld until the checkpoint after
// their execution commits (output commit) and then drain one per Tick.
func WithCheckpoints() Option {
	return func(m *Module) {
		if m.replyCache == nil {
			m.replyCache = make(map[word.ReqID]word.Word)
		}
		m.ckpt = true
		m.delta = make(map[word.ReqID]word.Word)
		m.undo = make(map[word.Addr]word.Word)
	}
}

// WithNoDedupCanary seeds the "nodedup" canary bug: the reply cache stops
// answering lookups, so retransmit-born and network-born duplicates
// double-execute their non-idempotent RMWs.  The chaos fuzzer
// (internal/chaos, cmd/check -chaos) must detect the resulting
// exactly-once/M2 violations and shrink a triggering plan to a minimal
// reproducer — this option is the planted ground truth for that test, not
// a feature.
func WithNoDedupCanary() Option {
	return func(m *Module) { m.canaryNoDedup = true }
}

// NewModule returns an empty module; all cells read as the zero word.
func NewModule(opts ...Option) *Module {
	m := new(Module)
	m.init(1, opts)
	return m
}

// denseWindow is how many cells a module keeps in its dense pages: a
// machine's address space is a few dozen cells per module, and pages are
// made only where a cell is stored.
const denseWindow = 1024

// pageCells is the size of a dense page.  The tests and commands touch a
// handful of cells per module — a hot cell, a counter, a program's few
// variables, spread over the modules by interleaving — so a small page
// wastes little on a module that holds two cells, and a module whose cells
// run densely to a few dozen fills whole pages.
const pageCells = 16

type cellPage [pageCells]word.Word

// load reads cell addr; store writes it.  Every cell access goes through
// the pair.
func (m *Module) load(addr word.Addr) word.Word {
	if i := int(addr) / m.stride; i < denseWindow {
		if p := i / pageCells; p < len(m.pages) && m.pages[p] != nil {
			return m.pages[p][i%pageCells]
		}
		return word.Word{}
	}
	return m.sparse[addr]
}

func (m *Module) store(addr word.Addr, w word.Word) {
	if i := int(addr) / m.stride; i < denseWindow {
		p := i / pageCells
		for len(m.pages) <= p {
			m.pages = append(m.pages, nil)
		}
		if m.pages[p] == nil {
			m.pages[p] = new(cellPage)
		}
		m.pages[p][i%pageCells] = w
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[word.Addr]word.Word)
	}
	m.sparse[addr] = w
}

// init makes the zero Module an empty one holding every stride-th address,
// in place (an Array's modules are contiguous).
func (m *Module) init(stride int, opts []Option) {
	m.stride = stride
	m.serviceTime = 1
	for _, o := range opts {
		o(m)
	}
	m.queue = core.NewFIFO[core.Request](m.queueCap)
}

// Peek reads a cell without a memory operation (test/diagnostic use).
func (m *Module) Peek(addr word.Addr) word.Word {
	m.mu.Lock()
	defer m.mu.Unlock()

	return m.load(addr)
}

// Poke sets a cell directly (initialization use).
func (m *Module) Poke(addr word.Addr, w word.Word) {
	m.mu.Lock()
	defer m.mu.Unlock()

	m.store(addr, w)
}

// Do executes one request immediately and atomically, returning its reply.
// It is safe for concurrent use; the module's lock is held only for the
// read-modify-write itself.
func (m *Module) Do(req core.Request) core.Reply {
	m.mu.Lock()
	defer m.mu.Unlock()

	return m.exec(&req)
}

// exec executes one request against the cells.  Its caller holds the lock
// (Do) or owns the module (Tick).
func (m *Module) exec(req *core.Request) core.Reply {
	if m.replyCache != nil {
		return m.execCached(req)
	}
	cell := m.load(req.Addr)
	reply := core.Execute(&cell, *req)
	m.store(req.Addr, cell)
	m.Served++
	return reply
}

// execCached executes a request leaf by leaf against the reply cache.
// A request without Reps (plain traffic on a fault-armed module) is treated
// as its own single leaf.  Each uncached leaf applies its own mapping in
// representation (serialization) order; cached leaves are skipped, so a
// message mixing delivered and undelivered leaves — an original overtaken by
// a partial retransmit, or vice versa — still executes every operation
// exactly once.  The reply's leaf list names every leaf's value in the same
// order.
func (m *Module) execCached(req *core.Request) core.Reply {
	leaves := req.Reps()
	if leaves == nil {
		leaves = []core.Leaf{{ID: req.ID, Src: 0, Op: req.Op}}
	}
	before := m.load(req.Addr)
	cell := before
	vals := core.NewLeafList(len(leaves))
	for i, lf := range leaves {
		v, ok := m.cacheGet(lf.ID)
		if ok {
			m.DedupHits++
		} else {
			v = cell
			cell = lf.Op.Apply(v)
			m.cachePut(lf.ID, v)
		}
		(*vals)[i] = core.LeafVal{ID: lf.ID, Val: v}
	}
	if m.ckpt {
		if _, logged := m.undo[req.Addr]; !logged {
			m.undo[req.Addr] = before
		}
	}
	m.store(req.Addr, cell)
	m.Served++
	rep := core.Reply{ID: req.ID, Attempt: req.Attempt, Leaves: vals}
	rep.Val, _ = rep.Leaf(req.ID)
	return rep
}

// cacheGet consults the exactly-once ledger: the uncommitted delta first,
// then the committed cache.
func (m *Module) cacheGet(id word.ReqID) (word.Word, bool) {
	if m.canaryNoDedup {
		return word.Word{}, false
	}
	if m.ckpt {
		if v, ok := m.delta[id]; ok {
			return v, true
		}
	}
	v, ok := m.replyCache[id]
	return v, ok
}

// cachePut records a fresh leaf execution — uncommitted until the next
// checkpoint when in checkpoint mode.
func (m *Module) cachePut(id word.ReqID, v word.Word) {
	if m.ckpt {
		m.delta[id] = v
		return
	}
	m.replyCache[id] = v
}

// DedupHitCount returns the reply-cache hit count under the module lock,
// safe to read while direct-mode traffic is still executing.
func (m *Module) DedupHitCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()

	return m.DedupHits
}

// Enqueue appends a request to the module's FIFO (cycle-driven mode; owner
// only, see the package comment).  On a bounded module the caller must check
// CanEnqueue first and hold the request upstream when it reports false;
// overflowing a bounded queue is an engine bug and panics.
func (m *Module) Enqueue(req core.Request) {
	if m.queue.Full() {
		panic("memory: Enqueue on a full bounded module (caller must check CanEnqueue)")
	}
	*m.queue.Push() = req
}

// CanEnqueue reports whether the module has room for one more request
// (owner only).
func (m *Module) CanEnqueue() bool { return !m.queue.Full() }

// QueueCap returns the configured input-queue bound (0 when unbounded).
func (m *Module) QueueCap() int { return m.queueCap }

// MaxQueue returns the input-queue high-water mark, including the request
// in service (owner only).
func (m *Module) MaxQueue() int { return m.queue.Peak() }

// QueueLen reports pending requests, including the one in service (owner
// only).
func (m *Module) QueueLen() int { return m.queue.Len() }

// Tick advances the module one cycle (owner only).  It returns a completed
// reply, if any, and ok reporting whether a reply was produced this cycle.
// With service time s, a request completes s cycles after it starts service.
func (m *Module) Tick() (core.Reply, bool) {
	if !m.ckpt {
		return m.service()
	}
	// Checkpoint mode: service continues (completed replies join held),
	// while at most one previously committed reply drains per Tick — the
	// output-commit gate adds latency but preserves the engines'
	// one-reply-per-module-per-cycle contract and steady-state rate.
	if rep, ok := m.service(); ok {
		m.held = append(m.held, rep)
	}
	if m.releasable.Len() == 0 {
		return core.Reply{}, false
	}
	rep := *m.releasable.Front()
	m.releasable.Pop()
	return rep, true
}

// service advances the service pipeline one cycle.  The request in service
// executes in place at the queue's front and leaves the queue on completion.
func (m *Module) service() (core.Reply, bool) {
	if m.busy == 0 {
		if m.queue.Len() == 0 {
			return core.Reply{}, false
		}
		m.busy = m.serviceTime
	}
	m.BusyCycles++
	m.busy--
	if m.busy > 0 {
		return core.Reply{}, false
	}
	rep := m.exec(m.queue.Front())
	m.queue.Pop()
	return rep, true
}

// Checkpoint commits the module's recovery image: leaves executed since the
// last checkpoint join the committed cache, the undo log clears, and held
// replies become releasable.  It returns how many it released, by which Work
// rises.  Engines call it every Plan.CheckpointEvery cycles (owner only); the
// cost is O(changes since the last checkpoint).
func (m *Module) Checkpoint() int {
	if !m.ckpt {
		return 0
	}
	released := len(m.held)
	for id, v := range m.delta {
		m.replyCache[id] = v
	}
	clear(m.delta)
	clear(m.undo)
	for i := range m.held {
		*m.releasable.Push() = m.held[i]
	}
	m.held = m.held[:0]
	return released
}

// Crash loses the module's volatile state and rolls persistent state back
// to the last checkpoint: cells revert via the undo log, uncommitted cache
// entries vanish (those operations will re-execute on retransmit), and the
// input queue, in-service request, and withheld replies are flushed.  It
// returns the leaf request ids whose messages were lost — the recovery
// layer tracks them and counts the ones the retry machinery later
// re-drives to completion.  Committed cache entries survive, so leaves of
// flushed-but-committed replies are answered from the cache on retransmit.
// Owner only.
func (m *Module) Crash() []word.ReqID {
	if !m.ckpt {
		return nil
	}
	lost := make(map[word.ReqID]struct{})
	for id := range m.delta {
		lost[id] = struct{}{}
	}
	// The queue's front is the request in service, if any.
	queued := m.queue.View()
	for i := range queued {
		req := &queued[i]
		if req.Reps() == nil {
			lost[req.ID] = struct{}{}
			continue
		}
		for _, lf := range req.Reps() {
			lost[lf.ID] = struct{}{}
		}
	}
	addRep := func(rep core.Reply) {
		if rep.Leaves == nil {
			lost[rep.ID] = struct{}{}
			return
		}
		for _, lv := range *rep.Leaves {
			lost[lv.ID] = struct{}{}
		}
	}
	for _, rep := range m.held {
		addRep(rep)
	}
	for _, rep := range m.releasable.View() {
		addRep(rep)
	}
	for addr, w := range m.undo {
		m.store(addr, w)
	}
	clear(m.undo)
	clear(m.delta)
	m.queue.Clear()
	m.busy = 0
	m.held = m.held[:0]
	m.releasable.Clear()

	ids := make([]word.ReqID, 0, len(lost))
	for id := range lost {
		ids = append(ids, id)
	}
	return ids
}

// Work reports what a Tick can act on (owner only): the queued requests,
// including the one in service, and the released replies.  Withheld replies
// are not work — no Tick moves them before the next Checkpoint — so a module
// with Work 0 ticks to no effect until something is enqueued or released.
// Work falls by one when a request completes (Served counts it) and, in
// checkpoint mode, by one more when a released reply emerges.
func (m *Module) Work() int { return m.queue.Len() + m.releasable.Len() }
