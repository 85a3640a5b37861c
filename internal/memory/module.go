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
//     a caller may call Do from many goroutines at once, so these run under
//     the module's mutex — the module acts as a monitor, which is exactly
//     "memory is locked only during the execution of the update operation".
//     Tests read cells with Peek while other goroutines' Do traffic is
//     still executing, so the readers lock too.
//
// The two styles do not mix on one module while it is being stepped: an
// engine's driver calls Peek, Poke or Do between steps, never during one.
// Different modules of one Array are independent — stepping one while
// another serves Do is fine (TestModuleOwnershipHandoff).
package memory

import (
	"slices"
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
	// saw and its processor (leaves.go).  Request ids are partitioned per
	// processor (word.IDGen), so this flat table is the paper-level
	// "per-processor reply cache" — retransmits of a delivered request hit
	// the cache instead of re-executing a non-idempotent RMW.
	replyCache *leafTable
	// DedupHits counts leaf executions answered from the cache, or skipped
	// below their processor's delivered floor.
	DedupHits int64
	// floors, when non-nil, are the processors' delivered floors
	// (WithDeliveredFloors), and pruneAt the cache size at which a module
	// without checkpoints next prunes.
	floors  []word.ReqID
	pruneAt int
	// order lists the cached leaves in the order they were executed, while
	// a prune (floors) or a crash (checkpoints) may need them: prune walks
	// it, not the map.  In checkpoint mode order[committed:] are the leaves
	// executed since the last checkpoint, which a crash forgets.
	order     []entry
	committed int

	// Checkpoint mode (WithCheckpoints): the module keeps an incremental
	// recovery image so a crash rolls back to the last checkpoint in
	// O(changes since checkpoint), not O(total state).  replyCache holds
	// committed and uncommitted leaves alike, order's tail names the
	// uncommitted ones, and undo logs the pre-image of every cell write
	// since the last checkpoint, oldest first.  out holds the replies
	// produced and not yet emitted, oldest first: its first released are
	// committed and drain to the network one per Tick, and the rest, produced
	// since the last checkpoint, are withheld — the output-commit rule keeps
	// them inside the module until the checkpoint that covers their effects
	// commits, so a crash can never un-execute an operation whose reply
	// already escaped.  A checkpoint releases them all by moving the count.
	undo     []preimage
	out      core.FIFO[core.Reply]
	released int
}

// entry names one cached leaf in order.
type entry struct {
	id  word.ReqID
	src word.ProcID
}

// preimage is one undo record: a cell's value before a write.
type preimage struct {
	addr word.Addr
	val  word.Word
}

// minPrune is the committed cache size below which a module without
// checkpoints does not prune.
const minPrune = 64

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
// executed leaf by leaf (core.Request.Leaves: a combined request must carry
// its representation list — see core.Policy.Bookkeeping): leaves already in
// the cache are skipped, fresh leaves execute and are recorded, and the
// reply is exact, naming every leaf's value, so transports decombine with
// core.DecombineExact.  Without WithDeliveredFloors the
// cache keeps every leaf for the run.
func WithReplyCache() Option {
	return func(m *Module) {
		m.replyCache = new(leafTable)
	}
}

// WithDeliveredFloors lets the reply cache forget what no copy can need:
// floors[p] is processor p's delivered floor (faults.Tracker.Floors) —
// every id of p below it has had its reply — which the caller writes
// between ticks and a tick only reads.  A leaf below its processor's floor
// is skipped and counted as a cache hit, its value never read (the port
// suppresses the duplicate), and the cache drops such leaves at each
// checkpoint, or without checkpoints whenever it has doubled since its last
// prune.  The nodedup canary skips nothing.
func WithDeliveredFloors(floors []word.ReqID) Option {
	return func(m *Module) { m.floors, m.pruneAt = floors, minPrune }
}

// WithCheckpoints arms checkpoint/crash–restart mode (implies
// WithReplyCache).  The engine calls Checkpoint every K cycles and Crash on
// a crash-window entry; replies are withheld until the checkpoint after
// their execution commits (output commit) and then drain one per Tick.
func WithCheckpoints() Option {
	return func(m *Module) {
		if m.replyCache == nil {
			m.replyCache = new(leafTable)
		}
		m.ckpt = true
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
// An uncombined request is its own single leaf (core.Request.Leaves), whose
// source is the processor that issued it.  Each uncached leaf applies its
// own mapping in representation (serialization) order; cached leaves are
// skipped, so a message mixing delivered and undelivered leaves — an
// original overtaken by a partial retransmit, or vice versa — still
// executes every operation exactly once.  The reply is exact: a one-leaf
// reply carries its value inline (core.ExactReply), a longer one a leaf
// list naming every leaf's value in the same order.
func (m *Module) execCached(req *core.Request) core.Reply {
	var one [1]core.Leaf
	leaves := req.Leaves(&one)
	before := m.load(req.Addr)
	cell := before
	var vals *[]core.LeafVal
	if len(leaves) > 1 {
		vals = core.NewLeafList(len(leaves))
	}
	var v word.Word
	for i, lf := range leaves {
		var ok bool
		v, ok = m.cacheGet(lf.ID)
		if ok || m.delivered(lf) {
			m.DedupHits++
		} else {
			v = cell
			cell = lf.Op.Apply(v)
			m.cachePut(lf, v)
		}
		if vals != nil {
			(*vals)[i] = core.LeafVal{ID: lf.ID, Val: v}
		}
	}
	if m.ckpt {
		m.undo = append(m.undo, preimage{req.Addr, before})
	}
	m.store(req.Addr, cell)
	m.Served++
	if vals == nil {
		return core.ExactReply(req.ID, v, req.Attempt)
	}
	rep := core.Reply{ID: req.ID, Attempt: req.Attempt, Leaves: vals}
	rep.Val, _ = rep.Leaf(req.ID)
	return rep
}

// cacheGet consults the exactly-once ledger.
func (m *Module) cacheGet(id word.ReqID) (word.Word, bool) {
	if m.canaryNoDedup {
		return word.Word{}, false
	}
	return m.replyCache.get(id)
}

// delivered reports whether leaf lf is below its processor's delivered
// floor: its reply has reached the processor, so a copy here is stale.
func (m *Module) delivered(lf core.Leaf) bool {
	return m.floors != nil && !m.canaryNoDedup && lf.Src >= 0 && lf.ID < m.floors[lf.Src]
}

// cachePut records a fresh leaf execution — uncommitted until the next
// checkpoint when in checkpoint mode.  Without checkpoints a cache that has
// doubled since its last prune prunes now.
func (m *Module) cachePut(lf core.Leaf, v word.Word) {
	m.replyCache.put(lf.ID, v, lf.Src)
	if m.floors == nil && !m.ckpt {
		return // nothing is ever pruned or rolled back
	}
	m.order = append(m.order, entry{lf.ID, lf.Src})
	if !m.ckpt && m.replyCache.len() >= m.pruneAt {
		m.prune()
	}
}

// prune drops the cached leaves below their processors' delivered floors,
// walking order and keeping the survivors in it, and sets the size of the
// next prune without checkpoints.
func (m *Module) prune() {
	keep := m.order[:0]
	for _, e := range m.order {
		if e.src >= 0 && e.id < m.floors[e.src] {
			m.replyCache.del(e.id)
		} else {
			keep = append(keep, e)
		}
	}
	m.order = keep
	m.pruneAt = max(2*m.replyCache.len(), minPrune)
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
	// Checkpoint mode: service continues (completed replies are withheld
	// behind the released ones), while at most one previously committed
	// reply drains per Tick — the output-commit gate adds latency but
	// preserves the engines' one-reply-per-module-per-cycle contract and
	// steady-state rate.
	if rep, ok := m.service(); ok {
		*m.out.Push() = rep
	}
	if m.released == 0 {
		return core.Reply{}, false
	}
	rep := *m.out.Front()
	m.out.Pop()
	m.released--
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
// last checkpoint become committed, the undo log truncates, and withheld
// replies are released, each in O(changes since the last checkpoint).  With
// delivered floors it then prunes: one pass over order, which holds only
// the cached leaves not yet below their floors.  It returns how many
// replies it released, by which Work rises.  Engines call it every
// Plan.CheckpointEvery cycles (owner only).
func (m *Module) Checkpoint() int {
	if !m.ckpt {
		return 0
	}
	released := m.out.Len() - m.released
	if m.floors != nil {
		m.prune()
	} else {
		m.order = m.order[:0] // committed leaves are never forgotten
	}
	m.committed = len(m.order)
	m.undo = m.undo[:0]
	m.released = m.out.Len()
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
	var ids []word.ReqID
	for _, e := range m.order[m.committed:] {
		m.replyCache.del(e.id)
		ids = append(ids, e.id)
	}
	m.order = m.order[:m.committed]
	// The queue's front is the request in service, if any.
	queued := m.queue.View()
	for i := range queued {
		ids = queued[i].AppendLeafIDs(ids)
	}
	for _, rep := range m.out.View() {
		ids = rep.AppendLeafIDs(ids)
	}
	// Newest first, so each cell ends at its oldest pre-image.
	for i := len(m.undo) - 1; i >= 0; i-- {
		m.store(m.undo[i].addr, m.undo[i].val)
	}
	m.undo = m.undo[:0]
	m.queue.Clear()
	m.busy = 0
	m.out.Clear()
	m.released = 0

	// A leaf can be both executed (uncommitted) and still named by a
	// withheld reply.
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Work reports what a Tick can act on (owner only): the queued requests,
// including the one in service, and the released replies.  Withheld replies
// are not work — no Tick moves them before the next Checkpoint — so a module
// with Work 0 ticks to no effect until something is enqueued or released.
// Work falls by one when a request completes (Served counts it) and, in
// checkpoint mode, by one more when a released reply emerges.
func (m *Module) Work() int { return m.queue.Len() + m.released }
