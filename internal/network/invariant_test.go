package network

import (
	"strings"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/rmw"
	"combining/internal/word"
)

// Structural invariants of the simulator, checked every cycle under load:
// request conservation, queue capacity, wait-buffer/representation
// accounting, and path-header sanity.

func TestInvariantsUnderLoad(t *testing.T) {
	const n = 32
	const cycles = 1500
	for _, waitCap := range []int{0, 1, core.Unbounded} {
		inj := make([]Injector, n)
		stoch := make([]*Stochastic, n)
		for p := 0; p < n; p++ {
			stoch[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.9, HotFraction: 0.4, Window: 8}, 31)
			inj[p] = stoch[p]
		}
		sim := NewSim(Config{Procs: n, QueueCap: 3, WaitBufCap: waitCap}, inj)
		for c := 0; c < cycles; c++ {
			sim.Step()
			st := sim.Totals()
			// Conservation: issued = completed + in flight.
			if got := st.Completed + int64(sim.InFlight()); got != st.Issued {
				t.Fatalf("waitCap=%d cycle %d: %d issued but %d completed+inflight",
					waitCap, c, st.Issued, got)
			}
			// Queue capacity respected everywhere.
			for at := 0; at < sim.k*sim.ns; at++ {
				out := sim.Stations().Fwd(at)
				for port := range out {
					if out[port].Len() > 3 {
						t.Fatalf("waitCap=%d: stage %d switch %d port %d queue %d > cap 3",
							waitCap, at/sim.ns, at%sim.ns, port, out[port].Len())
					}
				}
			}
		}
		// Drain and re-check conservation at quiescence.
		for _, s := range stoch {
			s.cfg.Rate = 0
		}
		if !sim.Drain(50000) {
			t.Fatalf("waitCap=%d: did not drain", waitCap)
		}
		st := sim.Stats()
		if st.Completed != st.Issued {
			t.Fatalf("waitCap=%d: completed %d != issued %d after drain", waitCap, st.Completed, st.Issued)
		}
		// All wait buffers must be empty at quiescence.
		for at := 0; at < sim.k*sim.ns; at++ {
			if n := sim.Stations().Wait[at].Len(); n != 0 {
				t.Fatalf("waitCap=%d: wait buffer holds %d records after drain", waitCap, n)
			}
		}
	}
}

// TestReverseQueueBoundInvariant checks the reserved-credit bound
// (engine.Stations.CanAcceptRev) on the whole machine: a reply is accepted
// only while every reverse port sits below RevQueueCap, and each extra
// decombined leaf consumes a wait-buffer record, so per-port reverse
// occupancy can never exceed RevQueueCap + WaitBufCap.  Checked every
// cycle against the live queues and at the end against the maxRev
// high-water marks folded into Stats.
func TestReverseQueueBoundInvariant(t *testing.T) {
	const (
		n       = 32
		revCap  = 2
		waitCap = 3
		bound   = revCap + waitCap
		cycles  = 3000
	)
	inj := make([]Injector, n)
	stoch := make([]*Stochastic, n)
	for p := 0; p < n; p++ {
		stoch[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.9, HotFraction: 0.6, Window: 8}, 97)
		inj[p] = stoch[p]
	}
	sim := NewSim(Config{Procs: n, QueueCap: 2, RevQueueCap: revCap, WaitBufCap: waitCap}, inj)
	for c := 0; c < cycles; c++ {
		sim.Step()
		for at := 0; at < sim.k*sim.ns; at++ {
			rev := sim.Stations().Rev(at)
			for port := range rev {
				if q := &rev[port]; q.Len() > bound {
					t.Fatalf("cycle %d: stage %d switch %d port %d reverse queue %d > bound %d",
						c, at/sim.ns, at%sim.ns, port, q.Len(), bound)
				}
			}
		}
	}
	for _, s := range stoch {
		s.cfg.Rate = 0
	}
	if !sim.Drain(100000) {
		t.Fatalf("did not drain: %s", sim.StallReport())
	}
	st := sim.Stats()
	if st.MaxRevQueue > bound {
		t.Fatalf("MaxRevQueue = %d exceeds reserved-credit bound %d", st.MaxRevQueue, bound)
	}
	if st.MaxRevQueue == 0 {
		t.Fatal("reverse queues never held a reply — load too light to test the bound")
	}
	if st.HoldsRev == 0 {
		t.Fatal("no reverse holds recorded — credits were never exhausted, bound untested")
	}
}

// TestNegativeWindowPanics: a negative TrafficConfig.Window is a config
// error and must be rejected loudly, not silently replaced by the
// default (the old behaviour applied Window=4 for any Window ≤ 0).
func TestNegativeWindowPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewStochastic accepted a negative Window")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Window must be ≥ 0") {
			t.Fatalf("panic message %v does not explain the Window contract", r)
		}
	}()
	NewStochastic(0, 8, TrafficConfig{Rate: 0.5, Window: -1}, 1)
}

// TestWatchdogTripsOnWedgedNetwork forces the one condition a correct
// network cannot reach on its own — in-flight work with a frozen
// progress signature — by planting an orphaned wait record that no reply
// will ever match (the signature of a decombining bug).  The watchdog
// must declare the livelock right after its limit, count the trip in the
// snapshot, emit a queue-snapshot report, and make Run return early.
func TestWatchdogTripsOnWedgedNetwork(t *testing.T) {
	const limit = engine.DefaultWatchdogCycles
	inj, _ := emptyInjectors(8)
	sim := NewSim(Config{Procs: 8, WaitBufCap: 4}, inj)
	if !sim.Stations().Wait[0].Push(word.ReqID(999), engine.Record{}) {
		t.Fatal("could not plant the orphan wait record")
	}
	steps := 0
	for ; steps < 100000 && !sim.Stalled(); steps++ {
		sim.Step()
	}
	if !sim.Stalled() {
		t.Fatal("watchdog never tripped with a permanently wedged wait record")
	}
	if steps > limit+10 {
		t.Fatalf("tripped only after %d cycles, limit %d", steps, limit)
	}
	if got := sim.Snapshot().Counters["watchdog_trips"]; got != 1 {
		t.Fatalf("watchdog_trips = %d, want exactly 1", got)
	}
	rep := sim.StallReport()
	if !strings.Contains(rep, "watchdog tripped") || !strings.Contains(rep, "wait=") {
		t.Fatalf("stall report lacks the diagnostic queue snapshot:\n%s", rep)
	}
	// Run must refuse to burn a fresh budget on a tripped machine.
	start := sim.Cycle()
	sim.Run(10000)
	if sim.Cycle() != start {
		t.Fatalf("Run stepped %d more cycles after the watchdog tripped", sim.Cycle()-start)
	}
}

// TestZeroWindowDefaults: the documented zero value means the default of 4.
func TestZeroWindowDefaults(t *testing.T) {
	s := NewStochastic(0, 8, TrafficConfig{Rate: 0.5}, 1)
	if got := s.Window(); got != 4 {
		t.Fatalf("zero-value Window resolved to %d, want the documented default 4", got)
	}
}

// TestPathHeadersConsistent: every request waiting at the memory link
// carries a path header with exactly one entry per stage — popped stage by
// stage and followed back across the wiring's inverse permutations, it
// leads to the processor that issued the request and is then spent.
func TestPathHeadersConsistent(t *testing.T) {
	const n = 16
	inj := make([]Injector, n)
	for p := 0; p < n; p++ {
		inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.8, HotFraction: 0.3, Window: 4}, 33)
	}
	sim := NewSim(Config{Procs: n, WaitBufCap: core.Unbounded}, inj)
	k, radix := sim.k, sim.cfg.Radix
	checked := 0
	for c := 0; c < 500; c++ {
		sim.Step()
		for idx := 0; idx < sim.ns; idx++ {
			sw := sim.Stations()
			out := sw.Fwd((k-1)*sim.ns + idx)
			for port := range out {
				for _, e := range out[port].View() {
					m := sw.Body(e.H)
					path, at, in := e.Path, idx, 0
					for stage := k - 1; stage > 0; stage-- {
						in, path = path.Pop()
						at = sim.topo.PrevLine(stage, at*radix+in) / radix
					}
					in, path = path.Pop()
					if src := sim.topo.LineProc(at*radix + in); src != int(m.Src) || path != 0 {
						t.Fatalf("request %d from processor %d: its header %#x leads to processor %d, leaving %#x",
							m.Req.ID, m.Src, e.Path, src, path)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no request was ever seen waiting at the memory link")
	}
}

// TestRepresentationConservation: with Lemma 4.1 bookkeeping enabled at
// the injector level, the number of original requests represented by all
// in-flight messages plus completions equals issues.  Source sets are the
// cheap proxy the simulator always carries: the sum of |Srcs| over
// in-flight forward messages plus wait-buffer records plus replies counts
// every absorbed request exactly once.
func TestRepresentationConservation(t *testing.T) {
	const n = 16
	inj, scripts := emptyInjectors(n)
	const hot = word.Addr(3)
	id := 1
	for p := 0; p < n; p++ {
		for r := 0; r < 3; r++ {
			scripts[p].script = append(scripts[p].script, Injection{
				Req: core.NewRequest(word.ReqID(id), hot, rmw.FetchAdd(1), word.ProcID(p)),
			})
			id++
		}
	}
	sim := NewSim(Config{Procs: n, WaitBufCap: core.Unbounded}, inj)
	if !sim.Drain(5000) {
		t.Fatal("did not drain")
	}
	total := 0
	for _, s := range scripts {
		total += len(s.replies)
	}
	if total != 3*n {
		t.Fatalf("delivered %d replies, want %d", total, 3*n)
	}
}
