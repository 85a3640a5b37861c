// Package machine runs *programs* — instruction streams with data
// dependencies and fences — on the cycle-accurate combining network,
// recording a history for the consistency checkers.
//
// It provides the experiments of Sections 2, 3 and 5.1:
//
//   - processors pipeline independent accesses (condition M2 only), so
//     Collier's example can produce a non-sequentially-consistent outcome;
//   - the RP3 fence instruction restores sequential consistency;
//   - memory-side RMW versus the processor-side load/compute/store cycle
//     (message counts and lost atomicity);
//   - the incorrect "satisfy the load immediately" combining optimization;
//   - the stronger memory (M1), on which the same programs are always
//     sequentially consistent.
package machine

import (
	"fmt"

	"combining/internal/busnet"
	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/memory"
	"combining/internal/network"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/word"
)

// Instr is one instruction of a processor program.
type Instr struct {
	// Fence, when set, stalls issue until every outstanding access by
	// this processor has completed (the RP3 fence, Section 3.2).  The
	// remaining fields are ignored.
	Fence bool

	// Addr is the target location.  If DynAddr is non-nil it is called
	// with earlier replies to compute the address instead.
	Addr    word.Addr
	DynAddr func(replies []word.Word) word.Addr

	// Op is the mapping to apply.  If DynOp is non-nil it is called with
	// earlier replies to build the mapping (data dependence through a
	// register, e.g. "store B ← a" after "a ← load A").
	Op    rmw.Mapping
	DynOp func(replies []word.Word) rmw.Mapping

	// After lists instruction indexes whose replies must have arrived
	// before this instruction issues (data dependencies).  Instructions
	// with no dependencies issue back to back, pipelined.
	After []int

	// MinCycle delays issue until the given simulator cycle, for
	// constructing specific interleavings in experiments.
	MinCycle int64
}

// RMW builds a plain instruction.
func RMW(addr word.Addr, op rmw.Mapping) Instr { return Instr{Addr: addr, Op: op} }

// Fence builds a fence instruction.
func Fence() Instr { return Instr{Fence: true} }

// Proc is a program-driven injector for one processor port.
type Proc struct {
	proc    word.ProcID
	prog    []Instr
	ids     *word.IDGen
	nprocs  int
	machine *Machine

	next        int
	outstanding int
	replies     []word.Word // by instruction index; valid once done[i]
	done        []bool
	ops         []serial.Op // by instruction index, as issued and then answered
	idToInstr   map[word.ReqID]int
	issueSeq    int
}

var _ network.Injector = (*Proc)(nil)

// Next implements network.Injector.  A fence or a dependency waiting on a
// reply answers UntilReply: only Deliver can satisfy it.
func (p *Proc) Next(cycle int64) (network.Injection, bool) {
	for p.next < len(p.prog) && p.prog[p.next].Fence {
		if p.outstanding > 0 {
			return network.Injection{UntilReply: true}, false
		}
		p.next++ // fence satisfied
	}
	if p.next >= len(p.prog) {
		return network.Injection{}, false
	}
	in := p.prog[p.next]
	if cycle < in.MinCycle {
		return network.Injection{}, false
	}
	for _, dep := range in.After {
		if !p.done[dep] {
			return network.Injection{UntilReply: true}, false
		}
	}
	addr := in.Addr
	if in.DynAddr != nil {
		addr = in.DynAddr(p.replies)
	}
	op := in.Op
	if in.DynOp != nil {
		op = in.DynOp(p.replies)
	}
	id := p.ids.NextPartitioned(p.nprocs)
	p.idToInstr[id] = p.next
	p.issueSeq++
	p.ops[p.next] = serial.Op{Proc: p.proc, Seq: p.issueSeq, Addr: addr, Op: op, ID: id, IssueAt: cycle}
	p.next++
	p.outstanding++
	return network.Injection{Req: core.NewRequest(id, addr, op, p.proc)}, true
}

// Deliver implements network.Injector.
func (p *Proc) Deliver(rep core.Reply, cycle int64) {
	idx, ok := p.idToInstr[rep.ID]
	if !ok {
		panic(fmt.Sprintf("machine: proc %d got foreign reply %v", p.proc, rep))
	}
	delete(p.idToInstr, rep.ID)
	p.replies[idx] = rep.Val
	p.done[idx] = true
	p.ops[idx].Reply, p.ops[idx].DoneAt = rep.Val, cycle
	p.outstanding--
	p.machine.hist.Add(p.ops[idx])
}

// Done reports whether the program has fully completed.
func (p *Proc) Done() bool {
	return p.next >= len(p.prog) && p.outstanding == 0
}

// Reply returns the reply to instruction i (zero Word until it arrives).
func (p *Proc) Reply(i int) word.Word { return p.replies[i] }

// DoneCycle returns the cycle instruction i's reply arrived (0 if pending).
func (p *Proc) DoneCycle(i int) int64 { return p.ops[i].DoneAt }

// Engine is any cycle-driven transport the programs can run on: the Omega
// network, the hypercube, or the bus machine — the one method set
// internal/engine declares for all of them.
type Engine = engine.Machine

// Machine couples programs to a simulated transport and records a timed
// history for the consistency checkers.
type Machine struct {
	sim    *network.Sim
	engine Engine
	procs  []*Proc

	hist serial.History
}

// New builds a machine running one program per processor on an Omega
// network; programs may be nil (idle processor).  The config's Procs must
// match len(programs).
func New(cfg network.Config, programs [][]Instr) *Machine {
	m, inj := newProcs(programs)
	m.sim = network.NewSim(cfg, inj)
	m.engine = m.sim
	return m
}

// NewM1 builds a machine with the stronger memory of Section 3.2: "The
// memory receives a sequential stream of requests from the processors; this
// stream is obtained by merging the serial streams of requests generated by
// individual processors…  The requests are processed in the order they
// appear in this stream."  That stream is the bus machine with one bank and
// combining off: the bus merges one request a cycle into the FIFO, and the
// FIFO head is served in order.  Condition (M1) enforces sequential
// consistency at the price of a central controller, so Collier's non-SC
// outcome never appears here, with or without fences.
func NewM1(programs [][]Instr) *Machine {
	m, inj := newProcs(programs)
	m.engine = busnet.NewSim(busnet.Config{Procs: len(programs), Banks: 1, BankService: 1}, inj)
	return m
}

// NewInjectors builds the program-driven injectors without an engine, so
// the same programs can run on any transport (hypercube, bus): construct
// the engine from the returned injectors, then call BindEngine before Run.
func NewInjectors(programs [][]Instr) (*Machine, []network.Injector) {
	return newProcs(programs)
}

// BindEngine attaches the transport the injectors were wired into.
func (m *Machine) BindEngine(e Engine) { m.engine = e }

func newProcs(programs [][]Instr) (*Machine, []network.Injector) {
	m := &Machine{}
	inj := make([]network.Injector, len(programs))
	m.procs = make([]*Proc, len(programs))
	for i, prog := range programs {
		p := &Proc{
			proc:      word.ProcID(i),
			prog:      prog,
			ids:       word.Partition(i, len(programs)),
			nprocs:    len(programs),
			machine:   m,
			replies:   make([]word.Word, len(prog)),
			done:      make([]bool, len(prog)),
			ops:       make([]serial.Op, len(prog)),
			idToInstr: make(map[word.ReqID]int),
		}
		m.procs[i] = p
		inj[i] = p
	}
	return m, inj
}

// Sim exposes the underlying Omega network simulator (nil when the
// machine was bound to another engine via NewInjectors/BindEngine).
func (m *Machine) Sim() *network.Sim { return m.sim }

// Memory returns the bound engine's memory.
func (m *Machine) Memory() *memory.Array { return m.engine.Memory() }

// Proc returns processor i's program state.
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// History returns the recorded execution history, each operation with its
// request id and its issue and completion cycles.
func (m *Machine) History() *serial.History { return &m.hist }

// Run steps the machine until every program completes or maxCycles pass;
// it reports whether all programs completed.  Run fails fast when the
// engine's progress watchdog trips instead of burning the rest of the cycle
// budget on a wedged network; the engine's StallReport has the replayable
// queue snapshot.
func (m *Machine) Run(maxCycles int) bool {
	for c := 0; c < maxCycles; c++ {
		m.engine.Step()
		if m.allDone() {
			return true
		}
		if m.engine.Stalled() {
			return false
		}
	}
	return m.allDone()
}

func (m *Machine) allDone() bool {
	for _, p := range m.procs {
		if !p.Done() {
			return false
		}
	}
	return true
}
