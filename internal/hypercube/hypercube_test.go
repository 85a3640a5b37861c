package hypercube

import (
	"sort"
	"strings"
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

func emptyInjectors(n int) ([]network.Injector, []*scriptInjector) {
	inj := make([]network.Injector, n)
	scripts := make([]*scriptInjector, n)
	for i := range inj {
		scripts[i] = &scriptInjector{}
		inj[i] = scripts[i]
	}
	return inj, scripts
}

// TestRoutingAllPairs: every node stores a distinct value at every other
// node's memory; values land correctly and acknowledgments return.
func TestRoutingAllPairs(t *testing.T) {
	const n = 8
	for off := 0; off < n; off++ {
		inj, scripts := emptyInjectors(n)
		for p := 0; p < n; p++ {
			dst := word.Addr((p + off) % n)
			scripts[p].script = []network.Injection{{
				Req: core.NewRequest(word.ReqID(p+1), dst, rmw.SwapOf(int64(1000*off+p)), word.ProcID(p)),
			}}
		}
		sim := NewSim(Config{Nodes: n, WaitBufCap: core.Unbounded}, inj)
		if !sim.Drain(1000) {
			t.Fatalf("off=%d: cube did not drain", off)
		}
		for p := 0; p < n; p++ {
			dst := word.Addr((p + off) % n)
			if got := sim.Memory().Peek(dst).Val; got != int64(1000*off+p) {
				t.Errorf("off=%d: node %d holds %d, want %d", off, dst, got, 1000*off+p)
			}
			if len(scripts[p].replies) != 1 || scripts[p].replies[0].ID != word.ReqID(p+1) {
				t.Errorf("off=%d: node %d replies %v", off, p, scripts[p].replies)
			}
		}
	}
}

// TestHypercubeFAA: simultaneous fetch-and-adds of distinct powers of two
// serialize correctly through per-node combining (the same witness check
// as the Omega network).
func TestHypercubeFAA(t *testing.T) {
	for _, waitCap := range []int{0, 1, core.Unbounded} {
		const n = 16
		inj, scripts := emptyInjectors(n)
		const hot = word.Addr(5)
		for p := 0; p < n; p++ {
			scripts[p].script = []network.Injection{{
				Req: core.NewRequest(word.ReqID(p+1), hot, rmw.FetchAdd(1<<p), word.ProcID(p)),
				Hot: true,
			}}
		}
		sim := NewSim(Config{Nodes: n, WaitBufCap: waitCap}, inj)
		if !sim.Drain(5000) {
			t.Fatalf("waitCap=%d: cube did not drain", waitCap)
		}
		final := sim.Memory().Peek(hot).Val
		if final != int64(1)<<n-1 {
			t.Fatalf("waitCap=%d: final %d, want %d", waitCap, final, int64(1)<<n-1)
		}
		var vals []int64
		for p := 0; p < n; p++ {
			vals = append(vals, scripts[p].replies[0].Val.Val)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		seen := int64(0)
		for i, v := range vals {
			if v != seen {
				t.Fatalf("waitCap=%d: reply %d is %d, want %d", waitCap, i, v, seen)
			}
			var inc int64
			if i+1 < len(vals) {
				inc = vals[i+1] - v
			} else {
				inc = final - v
			}
			if inc <= 0 || inc&(inc-1) != 0 || seen&inc != 0 {
				t.Fatalf("waitCap=%d: step %d adds %d", waitCap, i, inc)
			}
			seen += inc
		}
		st := sim.Totals()
		if waitCap == 0 && st.Combines != 0 {
			t.Errorf("combining happened with waitCap 0")
		}
		if waitCap == core.Unbounded && st.Combines == 0 {
			t.Errorf("no combining on an aligned burst")
		}
	}
}

// TestHypercubeHotspot (A2): combining improves hot-spot throughput on the
// direct network too.
func TestHypercubeHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	run := func(combining bool) engine.Totals {
		const n = 64
		waitCap := 0
		if combining {
			waitCap = core.Unbounded
		}
		inj := make([]network.Injector, n)
		for p := 0; p < n; p++ {
			inj[p] = network.NewStochastic(p, n, network.TrafficConfig{
				Rate: 0.5, HotFraction: 0.25, Window: 8,
			}, 11)
		}
		sim := NewSim(Config{Nodes: n, WaitBufCap: waitCap}, inj)
		sim.Run(4000)
		return sim.Totals()
	}
	noComb := run(false)
	comb := run(true)
	t.Logf("hypercube h=0.25: no-combining %.2f ops/cycle (lat %.1f), combining %.2f (lat %.1f)",
		noComb.Bandwidth(), noComb.MeanLatency(), comb.Bandwidth(), comb.MeanLatency())
	if comb.Bandwidth() < 1.5*noComb.Bandwidth() {
		t.Errorf("combining bandwidth %.2f not ≥1.5× uncombined %.2f",
			comb.Bandwidth(), noComb.Bandwidth())
	}
	if comb.Combines == 0 {
		t.Error("no combining under hot spot")
	}
}

// TestHypercubeSameNodeOrdering: per-location FIFO through the cube.
func TestHypercubeSameNodeOrdering(t *testing.T) {
	for _, waitCap := range []int{0, core.Unbounded} {
		inj, scripts := emptyInjectors(8)
		const addr = word.Addr(6)
		scripts[1].script = []network.Injection{
			{Req: core.NewRequest(1, addr, rmw.StoreOf(1), 1)},
			{Req: core.NewRequest(2, addr, rmw.StoreOf(2), 1)},
			{Req: core.NewRequest(3, addr, rmw.Load{}, 1)},
		}
		sim := NewSim(Config{Nodes: 8, WaitBufCap: waitCap}, inj)
		if !sim.Drain(1000) {
			t.Fatal("cube did not drain")
		}
		if got := sim.Memory().Peek(addr).Val; got != 2 {
			t.Errorf("waitCap=%d: final %d, want 2", waitCap, got)
		}
		for _, rep := range scripts[1].replies {
			if rep.ID == 3 && rep.Val.Val != 2 {
				t.Errorf("waitCap=%d: load saw %d, want 2", waitCap, rep.Val.Val)
			}
		}
	}
}

func TestECubeRouting(t *testing.T) {
	// The cube wiring ascends dimensions forward, descends in reverse, and
	// the reply path retraces the request path in reverse for every pair.
	const n = 16
	topo := engine.CubeOf(n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			var fwd []int
			cur := src
			for cur != dst {
				d := topo.FwdLink(cur, dst)
				cur = topo.Neighbor(cur, d)
				fwd = append(fwd, cur)
			}
			var rev []int
			cur = dst
			for cur != src {
				d := topo.RevLink(cur, src)
				cur = topo.Neighbor(cur, d)
				rev = append(rev, cur)
			}
			// rev visits fwd's nodes in reverse (shifted by one:
			// fwd ends at dst, rev ends at src).
			full := append([]int{src}, fwd...)
			for i, node := range rev {
				want := full[len(full)-2-i]
				if node != want {
					t.Fatalf("src=%d dst=%d: reply hop %d visits %d, want %d",
						src, dst, i, node, want)
				}
			}
		}
	}
}

func TestCubeConfigValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("non power of two", func() {
		NewSim(Config{Nodes: 6}, make([]network.Injector, 6))
	})
	mustPanic("injector mismatch", func() {
		NewSim(Config{Nodes: 8}, make([]network.Injector, 4))
	})
	// Sixteen rings of two: degree 32 and the memory queue, one queue more
	// than a station's occupancy masks hold.
	dims := make([]int, 16)
	for i := range dims {
		dims[i] = 2
	}
	if err := (Config{Topology: engine.TorusOf(dims...)}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "33 queues a side") {
		t.Errorf("a 33-queue node: want the occupancy-index error, got %v", err)
	}
}

func TestCubeStatsZero(t *testing.T) {
	var st engine.Totals
	if st.MeanLatency() != 0 || st.Bandwidth() != 0 {
		t.Fatal("zero stats must report zeros")
	}
}
