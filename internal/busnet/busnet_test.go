package busnet

import (
	"sort"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/network"
	"combining/internal/rmw"
	"combining/internal/word"
)

type scriptInjector struct {
	script  []network.Injection
	next    int
	replies []core.Reply
}

func (s *scriptInjector) Next(int64) (network.Injection, bool) {
	if s.next >= len(s.script) {
		return network.Injection{}, false
	}
	inj := s.script[s.next]
	s.next++
	return inj, true
}

func (s *scriptInjector) Deliver(rep core.Reply, _ int64) {
	s.replies = append(s.replies, rep)
}

func TestBusFAA(t *testing.T) {
	for _, waitCap := range []int{0, core.Unbounded} {
		const n = 12
		inj := make([]network.Injector, n)
		scripts := make([]*scriptInjector, n)
		for p := 0; p < n; p++ {
			scripts[p] = &scriptInjector{script: []network.Injection{{
				Req: core.NewRequest(word.ReqID(p+1), 5, rmw.FetchAdd(1<<p), word.ProcID(p)),
				Hot: true,
			}}}
			inj[p] = scripts[p]
		}
		sim := NewSim(Config{Procs: n, Banks: 4, WaitBufCap: waitCap}, inj)
		if !sim.Drain(5000) {
			t.Fatalf("waitCap=%d: bus did not drain", waitCap)
		}
		final := sim.Memory().Peek(5).Val
		if final != int64(1)<<n-1 {
			t.Fatalf("waitCap=%d: final %d", waitCap, final)
		}
		var vals []int64
		for p := 0; p < n; p++ {
			if len(scripts[p].replies) != 1 {
				t.Fatalf("proc %d: %d replies", p, len(scripts[p].replies))
			}
			vals = append(vals, scripts[p].replies[0].Val.Val)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		seen := int64(0)
		for i, v := range vals {
			if v != seen {
				t.Fatalf("waitCap=%d: reply %d is %d, want %d (not a serialization)", waitCap, i, v, seen)
			}
			var inc int64
			if i+1 < len(vals) {
				inc = vals[i+1] - v
			} else {
				inc = final - v
			}
			if inc <= 0 || inc&(inc-1) != 0 || seen&inc != 0 {
				t.Fatalf("waitCap=%d: bad increment at %d", waitCap, i)
			}
			seen += inc
		}
	}
}

// TestBusCombining (A2): combining in the decoupling FIFO improves
// throughput under bank conflicts, as Section 7 claims.
func TestBusCombining(t *testing.T) {
	run := func(combining bool) engine.Totals {
		const n = 16
		waitCap := 0
		if combining {
			waitCap = core.Unbounded
		}
		inj := make([]network.Injector, n)
		for p := 0; p < n; p++ {
			inj[p] = network.NewStochastic(p, n, network.TrafficConfig{
				Rate: 1.0, HotFraction: 0.5, Window: 4, AddrSpace: 64,
			}, 21)
		}
		sim := NewSim(Config{Procs: n, Banks: 8, WaitBufCap: waitCap, BankService: 4}, inj)
		sim.Run(6000)
		return sim.Totals()
	}
	noComb := run(false)
	comb := run(true)
	t.Logf("bus h=0.5: no-combining %.3f ops/cycle (HOL %d), combining %.3f (HOL %d, %d combines)",
		noComb.Bandwidth(), noComb.HoldsMem, comb.Bandwidth(), comb.HoldsMem, comb.Combines)
	if comb.Combines == 0 {
		t.Fatal("no combining in the FIFO under a hot bank")
	}
	if comb.Bandwidth() < 1.3*noComb.Bandwidth() {
		t.Errorf("combining bandwidth %.3f not ≥1.3× uncombined %.3f",
			comb.Bandwidth(), noComb.Bandwidth())
	}
	if comb.HoldsMem >= noComb.HoldsMem {
		t.Errorf("combining did not reduce head-of-line blocking: %d vs %d",
			comb.HoldsMem, noComb.HoldsMem)
	}
}

func TestBusInterleavingSpreads(t *testing.T) {
	// Uniform traffic across banks completes at bus rate despite slow
	// banks (the point of interleaving): with 8 banks at service 4 and
	// addresses striped, throughput approaches 1 op/cycle.
	const n = 8
	inj := make([]network.Injector, n)
	scripts := make([]*scriptInjector, n)
	const perProc = 100
	id := word.ReqID(1)
	for p := 0; p < n; p++ {
		scripts[p] = &scriptInjector{}
		for i := 0; i < perProc; i++ {
			// Processor p walks its own stripe of addresses.
			addr := word.Addr((p + i*3) % 64)
			scripts[p].script = append(scripts[p].script, network.Injection{
				Req: core.NewRequest(id, addr, rmw.FetchAdd(1), word.ProcID(p)),
			})
			id++
		}
		inj[p] = scripts[p]
	}
	sim := NewSim(Config{Procs: n, Banks: 8, WaitBufCap: 0, BankService: 4}, inj)
	if !sim.Drain(20000) {
		t.Fatal("bus did not drain")
	}
	st := sim.Totals()
	bw := float64(st.Completed) / float64(st.Cycles)
	t.Logf("uniform bus throughput: %.3f ops/cycle over %d cycles", bw, st.Cycles)
	if bw < 0.5 {
		t.Errorf("interleaved banks delivered only %.3f ops/cycle", bw)
	}
}

func TestBusConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no processors", func() {
		NewSim(Config{Procs: 0, Banks: 4}, nil)
	})
	mustPanic("no banks", func() {
		NewSim(Config{Procs: 4, Banks: 0}, make([]network.Injector, 4))
	})
	mustPanic("injector mismatch", func() {
		NewSim(Config{Procs: 4, Banks: 2}, make([]network.Injector, 2))
	})
}

func TestBusDrainTimeout(t *testing.T) {
	inj := make([]network.Injector, 2)
	for p := range inj {
		inj[p] = network.NewStochastic(p, 2, network.TrafficConfig{Rate: 1, Window: 4}, 1)
	}
	sim := NewSim(Config{Procs: 2, Banks: 2}, inj)
	if sim.Drain(20) {
		t.Fatal("drained despite endless traffic")
	}
	if sim.InFlight() == 0 {
		t.Fatal("InFlight must be positive under endless traffic")
	}
}

func TestBusStatsZero(t *testing.T) {
	var st engine.Totals
	if st.MeanLatency() != 0 || st.Bandwidth() != 0 {
		t.Fatal("zero stats must report zeros")
	}
}
