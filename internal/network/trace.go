package network

import (
	"fmt"

	"combining/internal/core"
	"combining/internal/word"
)

// Event tracing for the cycle simulator: every injection, hop, combine,
// decombine, memory access and delivery can be observed, which is how the
// tests audit the mechanism's bookkeeping (every combine is undone by
// exactly one decombine) and how cmd/trace renders a Figure 1 walkthrough
// on a live machine.

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds.
const (
	EvInject EventKind = iota + 1
	EvHop
	EvCombine
	EvCombineReject
	EvMemServe
	EvDecombine
	EvDeliver
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvHop:
		return "hop"
	case EvCombine:
		return "combine"
	case EvCombineReject:
		return "reject"
	case EvMemServe:
		return "memory"
	case EvDecombine:
		return "decombine"
	case EvDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one observation.
type Event struct {
	Cycle int64
	Kind  EventKind
	// ID is the (combined) message id; ID2 the absorbed or split-off
	// message for combine/decombine events.
	ID, ID2 word.ReqID
	Addr    word.Addr
	// Stage and Switch locate the event (-1 when not applicable:
	// injections carry the processor in Switch, deliveries likewise,
	// memory events carry the module).
	Stage, Switch int
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case EvInject:
		return fmt.Sprintf("c%-4d proc %-3d inject    ⟨%d⟩ @%d", e.Cycle, e.Switch, e.ID, e.Addr)
	case EvCombine:
		return fmt.Sprintf("c%-4d s%d/sw%-2d  combine   ⟨%d⟩+⟨%d⟩→⟨%d⟩ @%d", e.Cycle, e.Stage, e.Switch, e.ID, e.ID2, e.ID, e.Addr)
	case EvCombineReject:
		return fmt.Sprintf("c%-4d s%d/sw%-2d  reject    ⟨%d⟩ @%d (wait buffer full)", e.Cycle, e.Stage, e.Switch, e.ID, e.Addr)
	case EvMemServe:
		return fmt.Sprintf("c%-4d mod %-4d memory    ⟨%d⟩ @%d", e.Cycle, e.Switch, e.ID, e.Addr)
	case EvDecombine:
		return fmt.Sprintf("c%-4d s%d/sw%-2d  decombine ⟨%d⟩→⟨%d⟩,⟨%d⟩", e.Cycle, e.Stage, e.Switch, e.ID, e.ID, e.ID2)
	case EvDeliver:
		return fmt.Sprintf("c%-4d proc %-3d deliver   ⟨%d⟩", e.Cycle, e.Switch, e.ID)
	default:
		return fmt.Sprintf("c%-4d s%d/sw%-2d  %-9s ⟨%d⟩ @%d", e.Cycle, e.Stage, e.Switch, e.Kind, e.ID, e.Addr)
	}
}

// TraceLog collects events in order.
type TraceLog struct {
	Events []Event
}

// Record appends an event.
func (l *TraceLog) Record(e Event) { l.Events = append(l.Events, e) }

// Count tallies events of one kind.
func (l *TraceLog) Count(kind EventKind) int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// tracedPort wraps one processor's injector so the port's two events —
// issue and delivery — reach the trace; the rim that owns the port is
// trace-free.
type tracedPort struct {
	Injector
	proc  int
	trace func(Event)
}

func (t tracedPort) Next(cycle int64) (Injection, bool) {
	in, ok := t.Injector.Next(cycle)
	if ok {
		t.trace(Event{Cycle: cycle, Kind: EvInject,
			ID: in.Req.ID, Addr: in.Req.Addr, Stage: -1, Switch: t.proc})
	}
	return in, ok
}

func (t tracedPort) Deliver(rep core.Reply, cycle int64) {
	t.trace(Event{Cycle: cycle, Kind: EvDeliver, ID: rep.ID, Stage: -1, Switch: t.proc})
	t.Injector.Deliver(rep, cycle)
}

// tracedPorts wraps every injector of a traced machine.
func tracedPorts(inj []Injector, trace func(Event)) []Injector {
	out := make([]Injector, len(inj))
	for p := range inj {
		out[p] = tracedPort{Injector: inj[p], proc: p, trace: trace}
	}
	return out
}
