package engine

import (
	"fmt"

	"combining/internal/word"
)

// Event tracing: every injection, combine, refused combine, memory access,
// decombine and delivery can be observed, which is how the tests audit the
// mechanism's bookkeeping (every combine is undone by exactly one decombine)
// and how cmd/trace renders a Figure 1 walkthrough on a live machine.
//
// The events are written where they happen, by whoever owns the place: a
// station's into its own buffer (stationEvent, and Tick for the
// module service it routes there), a module's with no station in front of
// its reply into its own (Tick, on the bus), a port's into its own buffer
// (Offer and complete, on whichever goroutine serves the port).  Each
// buffer has one writer per barrier-separated phase, so its sequence is
// the same at every width, and Step hands the sink the cycle's events in a
// fixed order — each port's in processor order, then each station's in
// station order, then each such module's — with no merge and no sort.

// EventKind classifies trace events.
type EventKind uint8

// Trace event kinds.
const (
	Injected   EventKind = iota + 1 // processor Switch issued id
	Combined                        // id absorbed id2
	Rejected                        // id's combine forfeited to a full wait buffer
	Served                          // module Switch answered id (Tick)
	Decombined                      // id's reply split off id2's
	Delivered                       // processor Switch received id's reply
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case Injected:
		return "inject"
	case Combined:
		return "combine"
	case Rejected:
		return "reject"
	case Served:
		return "memory"
	case Decombined:
		return "decombine"
	case Delivered:
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
	// Stage and Switch locate the event: a station's (stage, index), or
	// Stage -1 with the processor in Switch for injections and deliveries
	// and the module for memory events.
	Stage, Switch int
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case Injected:
		return fmt.Sprintf("c%-4d proc %-3d inject    ⟨%d⟩ @%d", e.Cycle, e.Switch, e.ID, e.Addr)
	case Combined:
		return fmt.Sprintf("c%-4d s%d/sw%-2d  combine   ⟨%d⟩+⟨%d⟩→⟨%d⟩ @%d", e.Cycle, e.Stage, e.Switch, e.ID, e.ID2, e.ID, e.Addr)
	case Rejected:
		return fmt.Sprintf("c%-4d s%d/sw%-2d  reject    ⟨%d⟩ @%d (wait buffer full)", e.Cycle, e.Stage, e.Switch, e.ID, e.Addr)
	case Served:
		return fmt.Sprintf("c%-4d mod %-4d memory    ⟨%d⟩ @%d", e.Cycle, e.Switch, e.ID, e.Addr)
	case Decombined:
		return fmt.Sprintf("c%-4d s%d/sw%-2d  decombine ⟨%d⟩→⟨%d⟩,⟨%d⟩", e.Cycle, e.Stage, e.Switch, e.ID, e.ID, e.ID2)
	case Delivered:
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

// stationEvent records an event at station at, stamped with the cycle and
// the station's (stage, index), in the station's buffer: the stations'
// trace hook (Shell.Init).
func (s *Shell) stationEvent(at int, kind EventKind, id, id2 word.ReqID, addr word.Addr) {
	s.events[at] = append(s.events[at],
		Event{Cycle: s.tot.Cycles, Kind: kind, ID: id, ID2: id2, Addr: addr, Stage: at / s.st.rowLen, Switch: at % s.st.rowLen})
}

// portEvent records an injection or delivery at processor p, in p's
// buffer.
func (s *Shell) portEvent(kind EventKind, id word.ReqID, addr word.Addr, p int) {
	s.portEvents[p] = append(s.portEvents[p],
		Event{Cycle: s.tot.Cycles, Kind: kind, ID: id, Addr: addr, Stage: -1, Switch: p})
}

// emitEvents hands the sink the cycle's events — each port's in processor
// order, then each station's, then each module's own — and empties the
// buffers.
func (s *Shell) emitEvents() {
	for _, bufs := range [3][][]Event{s.portEvents, s.events, s.modEvents} {
		for i, buf := range bufs {
			for _, e := range buf {
				s.trace(e)
			}
			bufs[i] = buf[:0]
		}
	}
}
