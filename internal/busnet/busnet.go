// Package busnet models the last architecture of Section 7: "Combining
// can also be used on machines where multiple processors are connected to
// a shared memory by a bus.  The shared memory is often heavily
// interleaved; thus it achieves high, but uneven, throughput.  A FIFO
// buffer is often used to decouple memory from the shared bus.  Combining
// in this queue will improve the memory throughput by reducing conflicting
// accesses to the same memory bank."
//
// The machine: processors arbitrate for a bus carrying one request per
// cycle into a central FIFO; the FIFO head dispatches to an interleaved
// bank when that bank is idle (head-of-line blocking on a busy bank is
// precisely the conflict combining removes); replies decombine against the
// FIFO's wait buffer and return to the issuing processor.
package busnet

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/par"
	"combining/internal/stats"
	"combining/internal/word"
)

// Config parameterizes the bus machine.
type Config struct {
	// Procs is the number of processors (any count ≥ 1).
	Procs int
	// Banks is the number of interleaved memory banks (≥ 1).
	Banks int
	// QueueCap bounds the decoupling FIFO (default 8).
	QueueCap int
	// BankQueueCap bounds each bank's input queue, including the request
	// in service; the FIFO head dispatches only while the target bank is
	// below it, holding (head-of-line blocking) otherwise.  0 defaults to
	// 1 — the classic decoupled-bus design where a bank accepts the next
	// request only when idle.
	BankQueueCap int
	// WatchdogCycles is the progress watchdog limit (see
	// internal/network.Config.WatchdogCycles): 0 defaults to
	// engine.DefaultWatchdogCycles, negative disables.
	WatchdogCycles int64
	// WaitBufCap bounds the FIFO's wait buffer (0 disables combining).
	WaitBufCap int
	// BankService is cycles per memory operation (default 4 — banks are
	// slower than the bus, which is why they are interleaved).
	BankService int
	// AllowReversal enables the Section 5.1 optimization.
	AllowReversal bool
	// Workers shards the bank-service scan of each cycle across this many
	// goroutines (see internal/par and DESIGN.md §6): banks tick in
	// parallel — each touches only its own module — and completions commit
	// serially in bank order, so output is byte-for-byte identical at any
	// setting.  0 or 1 keep the single-threaded stepper.
	Workers int
	// Faults, when non-nil, arms the deterministic fault plan and the
	// recovery layer (see internal/faults and internal/network.Config).
	// The bus machine has one switch site (0, 0): a stall window there
	// freezes the bus and decoupling FIFO; bank slowdowns key on the
	// window's Index as the bank number.
	Faults *faults.Plan
}

// qmsg is a request in the decoupling FIFO: the rim's message as it is.
// Replies return by Src.
type qmsg = engine.Fwd

type brec struct {
	core.Record
	src2   int
	issue2 int64
	hot2   bool
	// reps2 names the second request's leaves so a crash flushing this
	// record can report exactly which operations lost their reply path.
	reps2 []core.Leaf
}

// Stats summarizes a run: the rim's totals plus the bus's own counters.
type Stats struct {
	engine.Totals

	Combines int64
	// BusOps counts requests the bus carried into the decoupling FIFO —
	// the movement signature the progress watchdog keys on.
	BusOps int64
	// HOLBlocked counts cycles the FIFO head was stalled on a busy bank.
	HOLBlocked int64
}

// Sim is the cycle-driven bus machine: the rim (processor ports, terminal
// links, banks, step frame — the embedded engine.Shell) around one bus and
// its decoupling FIFO.  The machine has two kinds of fault domain: the bus
// + FIFO (switch site (0, 0) — a stall window freezes it, a crash flushes
// the FIFO, the wait buffer and the reply metadata) and each bank (a crash
// rolls the module back to its last checkpoint).
type Sim struct {
	engine.Shell

	cfg   Config
	queue core.FIFO[qmsg] // the decoupling FIFO, bounded by Config.QueueCap
	wait  *core.WaitBuffer[brec]
	pol   core.Policy

	// stats holds the bus's own counters (the rim's are in the Shell);
	// fifoHW tracks the deepest decoupling FIFO observed.
	stats  Stats
	fifoHW stats.HighWater

	// Parallel bank-scan state (Config.Workers > 1, nil otherwise): the
	// worker pool (persistent workers bracketed by Run/Drain), the scan
	// function bound once at construction so the cycle loop builds no
	// closures, and the per-bank completion buffer filled in the compute
	// phase and committed serially in bank order.  See DESIGN.md §6.
	pool    *par.Pool
	tickFn  func(w int)
	tickBuf []bankTick
}

// bankTick is one bank's compute-phase result: the reply its module
// completed this cycle with the request it answers (the rim's filed box,
// good until the bank's next reply), if any, and the rim counts the tick
// made — each bank is its own shard.  Padded: workers write
// adjacent entries of the contiguous buffer during the compute phase, and
// unpadded neighbors would false-share at the split boundaries.
type bankTick struct {
	rep core.Reply
	m   *qmsg
	ok  bool
	rim engine.Shard
	_   [64]byte
}

// Validate reports whether the configuration is usable, with the
// documented zero-value defaults applied first; all config policing
// funnels through the engine core's Spec path (NewSim panics with the
// same error).
func (c Config) Validate() error {
	return c.normalize()
}

// normalize applies the defaults in place and validates the result.
func (c *Config) normalize() error {
	spec := engine.Spec{
		Engine:   "busnet",
		Procs:    c.Procs,
		MinProcs: 1,
		Banks:    c.Banks,
		Workers:  c.Workers,
		Service:  c.BankService,
		AdversarialSerial: c.Faults != nil && c.Faults.HasAdversarial() &&
			c.Workers > 1,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if c.QueueCap == 0 {
		c.QueueCap = 8
	}
	if c.BankQueueCap == 0 {
		c.BankQueueCap = 1
	}
	if c.WatchdogCycles == 0 {
		c.WatchdogCycles = engine.DefaultWatchdogCycles
	}
	if c.BankService == 0 {
		c.BankService = 4
	}
	return nil
}

// NewSim builds the machine.
func NewSim(cfg Config, inj []engine.Injector) *Sim {
	if err := cfg.normalize(); err != nil {
		panic(err)
	}
	if len(inj) != cfg.Procs {
		panic(fmt.Sprintf("busnet: got %d injectors for %d processors", len(inj), cfg.Procs))
	}
	s := &Sim{
		cfg:   cfg,
		queue: core.NewFIFO[qmsg](cfg.QueueCap),
		wait:  core.NewWaitBuffer[brec](cfg.WaitBufCap),
		pol:   core.Policy{AllowReversal: cfg.AllowReversal},
	}
	if cfg.Workers > 1 {
		s.pool = par.NewPool(cfg.Workers)
		s.tickFn = s.tickWorker
		s.tickBuf = make([]bankTick, cfg.Banks)
	}
	s.Shell.Init(engine.ShellConfig{
		Engine: "busnet",
		Hooks: engine.Hooks{
			Sweep:     s.sweep,
			Flush:     func(_, _ int) []word.ReqID { return s.crashBus() },
			CanFeed:   func(bank int) bool { return s.Memory().Module(bank).CanEnqueue() },
			Saturated: s.saturated,
			Hops:      func() int64 { return s.stats.BusOps },
			Queued:    func() int { return s.queue.Len() + s.wait.Len() },
			Detail:    s.stallDetail,
			Observe:   s.observe,
			// The wait buffer sits on the processor side of the return bus.
			Reassemble: s.fanOut,
		},
		Injectors:      inj,
		Pool:           s.pool,
		Modules:        cfg.Banks,
		Service:        cfg.BankService,
		MemQueueCap:    cfg.BankQueueCap,
		Stages:         1,
		Width:          1,
		WatchdogCycles: cfg.WatchdogCycles,
		Faults:         cfg.Faults,
	})
	return s
}

// Stats snapshots the counters.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.Totals = s.Totals()
	return st
}

// observe adds the bus's counters and gauges to a snapshot the rim has
// started.  HOLBlocked doubles as holds_mem: a head-of-line block IS this
// machine's memory-input hold (the blocked request sits at the FIFO head
// waiting for its bank), published under both the bus-specific and the
// cross-engine name.
func (s *Sim) observe(c *engine.Counters, gauges map[string]int64) {
	c.Combines = s.stats.Combines
	c.CombineRejects = s.wait.Rejections
	c.BankOps = s.Totals().MemRequests
	c.BusOps = s.stats.BusOps
	c.HOLBlocked = s.stats.HOLBlocked
	c.HoldsMem = s.stats.HOLBlocked
	gauges["fifo_max"] = s.fifoHW.Load()
	gauges["max_mem_queue"] = int64(s.Memory().MaxQueueDepth())
}

// saturated: the decoupling FIFO is full AND its head is blocked on a busy
// bank — offered load has nowhere to go but the bus arbitration holds, the
// bus machine's tree-saturation analogue.
func (s *Sim) saturated() bool {
	if !s.queue.Full() {
		return false
	}
	bank := s.Memory().HomeOf(s.queue.Front().Req.Addr)
	return !s.Memory().Module(bank).CanEnqueue()
}

func (s *Sim) stallDetail() string {
	banks := 0
	for b := 0; b < s.cfg.Banks; b++ {
		banks += s.Memory().Module(b).QueueLen()
	}
	return fmt.Sprintf("fifo=%d wait=%d banks=%d", s.queue.Len(), s.wait.Len(), banks)
}

// sweep is the fabric's share of one cycle: bank completions return (and
// decombine), the FIFO head dispatches, and one processor wins the bus.
func (s *Sim) sweep() {
	// Bank completions: tick every bank (compute — bank-local), then
	// commit the completed replies in ascending bank order (drop decisions,
	// decombining and delivery all touch shared state).
	if s.pool != nil {
		s.pool.Run(s.tickFn)
		for b := range s.tickBuf {
			t := &s.tickBuf[b]
			s.Merge(&t.rim)
			if t.ok {
				s.commitBank(t.rep, t.m)
			}
		}
	} else {
		for b := 0; b < s.cfg.Banks; b++ {
			if rep, m, ok := s.tickBank(b, s.Own()); ok {
				s.commitBank(rep, m)
			}
		}
	}

	if s.SwitchStalled(0, 0) || s.SwitchDead(0, 0) {
		return // blackout or crash: the bus and decoupling FIFO freeze
	}

	// Dispatch the FIFO head when its bank has input-queue room (with the
	// default BankQueueCap of 1: when the bank is idle).  A dead bank holds
	// the head like a busy one.
	if s.queue.Len() > 0 {
		head := s.queue.Front()
		bank := s.Memory().HomeOf(head.Req.Addr)
		if s.ModuleDead(bank) || !s.Memory().Module(bank).CanEnqueue() {
			s.stats.HOLBlocked++
		} else {
			if !s.LinkDropsFwd(1, bank, 0, &head.Req) {
				s.EnterMemory(faults.Site(1, bank, 0), bank, head, s.Own())
			}
			s.queue.Pop()
		}
	}

	// Bus arbitration: round-robin; the bus carries one request per cycle,
	// and a transfer lost on the bus still consumes it.
	rot := int(s.Cycle())
	for off := 0; off < s.cfg.Procs; off++ {
		p := (off + rot) % s.cfg.Procs
		m := s.Offer(p)
		if m == nil {
			continue
		}
		if s.LinkDropsFwd(0, 0, p, &m.Req) {
			s.Lost(p)
			break
		}
		if s.enqueue(m) {
			s.Sent(p)
			break
		}
	}
}

// tickWorker is the per-worker body of the parallel bank compute phase,
// bound to Sim.tickFn once at construction.
func (s *Sim) tickWorker(w int) {
	lo, hi := par.Split(s.cfg.Banks, s.pool.Workers(), w)
	for b := lo; b < hi; b++ {
		t := &s.tickBuf[b]
		t.rep, t.m, t.ok = s.tickBank(b, &t.rim)
	}
}

// tickBank advances bank b one service cycle, returning a completed reply
// and the request it answers if one emerged.  Everything here is bank-local
// (the slowdown-window decision is a pure hash with atomic counters), so
// banks tick in parallel under Config.Workers.
func (s *Sim) tickBank(b int, sh *engine.Shard) (core.Reply, *qmsg, bool) {
	if !s.ModuleUp(b, sh) || s.MemStalled(b) {
		return core.Reply{}, nil, false
	}
	return s.Serve(b, sh)
}

// commitBank sends one completed reply down the return bus — the
// processor terminal link — unless the link drops it.
func (s *Sim) commitBank(rep core.Reply, m *qmsg) {
	if s.LinkDropsRev(2, 0, m.Src, &rep) {
		return // reply lost on the return path
	}
	s.Deliver(faults.Site(2, 0, m.Src), m.Src, rep, m.Issue, m.Hot)
}

// crashBus flushes the bus fault domain: the decoupling FIFO, the wait
// buffer, and the reply metadata all vanish.  Requests already inside a
// bank keep executing, but with their metadata gone the replies surface as
// orphans at a dead FIFO — the retransmission path re-drives them through
// the bank reply caches, so exactly-once survives the flush.  The returned
// leaf ids are the operations whose reply path was lost.
func (s *Sim) crashBus() []word.ReqID {
	var lost []word.ReqID
	queued := s.queue.View()
	for i := range queued {
		lost = engine.LostLeaves(lost, queued[i].Req.Reps, queued[i].Req.ID)
	}
	for _, rec := range s.wait.Flush() {
		lost = engine.LostLeaves(lost, rec.reps2, rec.ID2)
	}
	s.FlushMeta(func(m *qmsg) { lost = engine.LostLeaves(lost, m.Req.Reps, m.Req.ID) })
	s.queue.Clear()
	return lost
}

// fanOut is the far side of the return bus: a reply decombines against the
// FIFO's wait buffer and every leaf completes at its own processor.
func (s *Sim) fanOut(src int, rep core.Reply, issue int64, hot bool) {
	if s.wait.Len() > 0 {
		match := func(r brec) bool { return core.CanDecombine(r.Record, rep) }
		if rec, ok := s.wait.PopMatch(rep.ID, match); ok {
			r1, r2 := core.DecombineExact(rec.Record, rep)
			s.fanOut(src, r1, issue, hot)
			s.fanOut(rec.src2, r2, rec.issue2, rec.hot2)
			return
		}
	}
	s.Complete(src, rep, issue, hot)
}

// enqueue inserts a request into the FIFO, combining with the most recent
// same-address entry when possible (the M2.3 scan shared with the other
// engines via core.CombineAtTail).  m stays at its port, only read; the
// FIFO's slot takes the one copy.
func (s *Sim) enqueue(m *qmsg) bool {
	if s.queue.Len() > 0 && s.tryCombine(m) {
		s.stats.BusOps++
		return true
	}
	if s.queue.Full() {
		return false
	}
	*s.queue.Push() = *m
	s.fifoHW.Observe(int64(s.queue.Len()))
	s.stats.BusOps++
	return true
}

// tryCombine attempts to merge m into the non-empty FIFO.
func (s *Sim) tryCombine(m *qmsg) bool {
	tc, rejected, ok := core.CombineAtTail(s.queue.View(), qmsgReq, m.Req, s.pol, s.wait.CanPush)
	if rejected {
		s.wait.Rejections++
	}
	if !ok {
		return false
	}
	queued := &s.queue.View()[tc.Index]
	first, second := queued, m
	if tc.Swapped {
		first, second = m, queued
	}
	if !s.wait.Push(tc.Rec.ID1, brec{
		Record: tc.Rec,
		src2:   second.Src,
		issue2: second.Issue,
		hot2:   second.Hot,
		reps2:  second.Req.Reps,
	}) {
		return false
	}
	*queued = qmsg{Req: tc.Combined, Src: first.Src, Issue: first.Issue, Hot: first.Hot}
	s.stats.Combines++
	return true
}

// qmsgReq projects a queued message to its request for the shared scan.
func qmsgReq(m *qmsg) *core.Request { return &m.Req }
