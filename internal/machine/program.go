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

var _ engine.Injector = (*Proc)(nil)

// Next implements engine.Injector.  A fence or a dependency waiting on a
// reply answers UntilReply: only Deliver can satisfy it.
func (p *Proc) Next(cycle int64) (engine.Injection, bool) {
	for p.next < len(p.prog) && p.prog[p.next].Fence {
		if p.outstanding > 0 {
			return engine.Injection{UntilReply: true}, false
		}
		p.next++ // fence satisfied
	}
	if p.next >= len(p.prog) {
		return engine.Injection{}, false
	}
	in := p.prog[p.next]
	if cycle < in.MinCycle {
		return engine.Injection{}, false
	}
	for _, dep := range in.After {
		if !p.done[dep] {
			return engine.Injection{UntilReply: true}, false
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
	return engine.Injection{Req: core.NewRequest(id, addr, op, p.proc)}, true
}

// Deliver implements engine.Injector.
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

// Machine couples programs to a simulated transport and records a timed
// history for the consistency checkers.
type Machine struct {
	engine engine.Machine
	procs  []*Proc

	hist serial.History
}

// New builds a machine running one program per processor (a nil program is
// an idle processor) on the transport build makes from the processors'
// injectors: a wiring.New result, M1, or any engine constructor.
func New(programs [][]Instr, build func([]engine.Injector) engine.Machine) *Machine {
	m := &Machine{}
	inj := make([]engine.Injector, len(programs))
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
	m.engine = build(inj)
	return m
}

// M1 builds the stronger memory of Section 3.2: "The memory receives a
// sequential stream of requests from the processors; this stream is
// obtained by merging the serial streams of requests generated by
// individual processors…  The requests are processed in the order they
// appear in this stream."  That stream is the bus machine with one bank and
// combining off: the bus merges one request a cycle into the FIFO, and the
// FIFO head is served in order.  Condition (M1) enforces sequential
// consistency at the price of a central controller, so Collier's non-SC
// outcome never appears here, with or without fences.
func M1(inj []engine.Injector) engine.Machine {
	return busnet.NewSim(busnet.Config{Procs: len(inj), Banks: 1, BankService: 1}, inj)
}

// Engine returns the transport the programs run on.
func (m *Machine) Engine() engine.Machine { return m.engine }

// Memory returns the engine's memory.
func (m *Machine) Memory() *memory.Array { return m.engine.Memory() }

// Proc returns processor i's program state.
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// History returns the recorded execution history, each operation with its
// request id and its issue and completion cycles.
func (m *Machine) History() *serial.History { return &m.hist }

// Replies lists every reply value, processor by processor in program order.
func (m *Machine) Replies() []int64 {
	var vals []int64
	for _, p := range m.procs {
		for _, r := range p.replies {
			vals = append(vals, r.Val)
		}
	}
	return vals
}

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
