package network

import (
	"fmt"
	"sort"
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/rmw"
	"combining/internal/word"
)

// Radix-k switches: the Omega construction generalizes to k×k switches
// with log_k N stages.  The paper's concrete design is 2×2; higher radix
// trades network depth for per-switch contention.

func TestRadixRoutingAllPairs(t *testing.T) {
	for _, tc := range []struct{ n, radix int }{
		{16, 4}, {64, 4}, {8, 8}, {64, 8}, {4, 4}, {27, 3},
	} {
		t.Run(fmt.Sprintf("n=%d/k=%d", tc.n, tc.radix), func(t *testing.T) {
			for off := 0; off < tc.n; off += max(1, tc.n/7) {
				inj, scripts := emptyInjectors(tc.n)
				for p := 0; p < tc.n; p++ {
					dst := word.Addr((p + off) % tc.n)
					scripts[p].script = []Injection{{
						Req: core.NewRequest(word.ReqID(p+1), dst,
							rmw.SwapOf(int64(1000*off+p)), word.ProcID(p)),
					}}
				}
				sim := NewSim(Config{Procs: tc.n, Radix: tc.radix, WaitBufCap: core.Unbounded}, inj)
				if !sim.Drain(2000) {
					t.Fatalf("off=%d: did not drain", off)
				}
				for p := 0; p < tc.n; p++ {
					dst := word.Addr((p + off) % tc.n)
					if got := sim.Memory().Peek(dst).Val; got != int64(1000*off+p) {
						t.Errorf("off=%d: module %d holds %d, want %d", off, dst, got, 1000*off+p)
					}
					if len(scripts[p].replies) != 1 || scripts[p].replies[0].ID != word.ReqID(p+1) {
						t.Errorf("off=%d: proc %d replies %v", off, p, scripts[p].replies)
					}
				}
			}
		})
	}
}

func TestRadixFAASerialization(t *testing.T) {
	for _, radix := range []int{4, 8} {
		const n = 16
		if !engine.IsPowerOf(n, radix) && radix != 4 {
			continue
		}
		nn := n
		if radix == 8 {
			nn = 64
		}
		inj, scripts := emptyInjectors(nn)
		const hot = word.Addr(5)
		for p := 0; p < nn; p++ {
			scripts[p].script = []Injection{{
				Req: core.NewRequest(word.ReqID(p+1), hot, rmw.FetchAdd(1), word.ProcID(p)),
				Hot: true,
			}}
		}
		sim := NewSim(Config{Procs: nn, Radix: radix, WaitBufCap: core.Unbounded}, inj)
		if !sim.Drain(5000) {
			t.Fatalf("radix=%d: did not drain", radix)
		}
		if got := sim.Memory().Peek(hot).Val; got != int64(nn) {
			t.Fatalf("radix=%d: final %d, want %d", radix, got, nn)
		}
		var vals []int64
		for p := 0; p < nn; p++ {
			vals = append(vals, scripts[p].replies[0].Val.Val)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for i, v := range vals {
			if v != int64(i) {
				t.Fatalf("radix=%d: replies not a serialization at %d (%d)", radix, i, v)
			}
		}
		if sim.Stats().Combines == 0 {
			t.Errorf("radix=%d: no combining on an aligned burst", radix)
		}
	}
}

// TestRadixAblation: with equal N, radix 4 halves the stage count (lower
// zero-load latency) and both radices recover hot-spot bandwidth with
// combining.
func TestRadixAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	const n = 64
	run := func(radix int, h float64, comb bool) Stats {
		waitCap := 0
		if comb {
			waitCap = core.Unbounded
		}
		inj := make([]Injector, n)
		for p := 0; p < n; p++ {
			inj[p] = NewStochastic(p, n, TrafficConfig{Rate: 0.5, HotFraction: h, Window: 4}, 9)
		}
		sim := NewSim(Config{Procs: n, Radix: radix, WaitBufCap: waitCap}, inj)
		sim.Run(3000)
		return sim.Stats()
	}
	lat2 := run(2, 0, false).MeanLatency()
	lat4 := run(4, 0, false).MeanLatency()
	t.Logf("uniform latency: radix 2 = %.1f, radix 4 = %.1f cycles", lat2, lat4)
	if lat4 >= lat2 {
		t.Errorf("radix 4 (3 stages) should beat radix 2 (6 stages) on uniform latency")
	}
	for _, radix := range []int{2, 4} {
		no := run(radix, 0.25, false)
		yes := run(radix, 0.25, true)
		t.Logf("radix %d h=0.25: %.2f → %.2f ops/cycle", radix, no.Bandwidth(), yes.Bandwidth())
		if yes.Bandwidth() < 2*no.Bandwidth() {
			t.Errorf("radix %d: combining did not recover hot-spot bandwidth", radix)
		}
	}
}

// BenchmarkRadix is the switch-radix ablation: the same 1/4 hot spot on 64
// processors through 2×2, 4×4 and 8×8 switches, with combining on.
func BenchmarkRadix(b *testing.B) {
	for _, radix := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", radix), func(b *testing.B) {
			var st Stats
			for i := 0; i < b.N; i++ {
				inj := make([]Injector, 64)
				for p := 0; p < 64; p++ {
					inj[p] = NewStochastic(p, 64, TrafficConfig{
						Rate: 0.5, HotFraction: 0.25, Window: 4,
					}, uint64(i+1))
				}
				sim := NewSim(Config{Procs: 64, Radix: radix, WaitBufCap: core.Unbounded}, inj)
				sim.Run(2000)
				st = sim.Stats()
			}
			b.ReportMetric(st.Bandwidth(), "ops/cycle")
			b.ReportMetric(st.MeanLatency(), "cycles/op")
			b.ReportMetric(st.Percentile(0.99), "p99-cycles")
		})
	}
}
