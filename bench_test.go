package combining_test

// The benchmark harness: one benchmark (or family) per experiment in
// DESIGN.md §4.  Simulation benchmarks report domain metrics —
// ops/cycle (delivered memory bandwidth) and cycles/op (latency) — via
// b.ReportMetric in addition to wall-clock time, so the paper-shaped
// numbers appear directly in `go test -bench` output; EXPERIMENTS.md
// records them.

import (
	"fmt"
	"testing"

	combining "combining"
	"combining/internal/engine"
)

// ---- T1–T3, E12: mapping composition (tractability condition 2) ----

func BenchmarkCompose(b *testing.B) {
	cases := []struct {
		name string
		f, g combining.Mapping
	}{
		{"load-store-swap", combining.SwapOf(7), combining.StoreOf(9)},
		{"fetch-and-add", combining.FetchAdd(3), combining.FetchAdd(5)},
		{"bool-mask", combining.Bool{A: 0xff00, B: 0x0ff0}, combining.Bool{A: 0xf0f0, B: 0x00ff}},
		{"affine", combining.Affine{A: 3, B: 1}, combining.Affine{A: -2, B: 7}},
		{"moebius", combining.Moebius{A: 1, B: 2, C: 3, D: 4}, combining.Moebius{A: 2, B: 0, C: 0, D: 1}},
		{"full-empty", combining.FEStoreIfClearSet(5), combining.FELoadClear()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := combining.Compose(tc.f, tc.g); !ok {
					b.Fatal("must combine")
				}
			}
		})
	}
}

func BenchmarkApply(b *testing.B) {
	w := combining.W(12345)
	cases := []struct {
		name string
		m    combining.Mapping
	}{
		{"fetch-and-add", combining.FetchAdd(3)},
		{"bool-mask", combining.Bool{A: 0xff00ff00, B: 0x00ff00ff}},
		{"affine", combining.Affine{A: 3, B: 1}},
		{"full-empty", combining.FEStoreIfClearSet(5)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w = tc.m.Apply(w)
			}
		})
	}
	_ = w
}

func BenchmarkEncodeDecode(b *testing.B) {
	m := combining.FEStoreIfClearSet(42)
	buf := combining.EncodeMapping(m)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = combining.EncodeMapping(m)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := combining.DecodeMapping(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- F1: the combine/decombine cycle at one switch ----

func BenchmarkCombineDecombine(b *testing.B) {
	ra := combining.NewRequest(1, 100, combining.FetchAdd(3), 0)
	rb := combining.NewRequest(2, 100, combining.FetchAdd(5), 1)
	cell := combining.W(10)
	for i := 0; i < b.N; i++ {
		comb, rec, ok := combining.Combine(ra, rb, combining.Policy{})
		if !ok {
			b.Fatal("must combine")
		}
		rep := combining.Execute(&cell, comb)
		combining.Decombine(rec, rep)
	}
}

// ---- E8: hot-spot bandwidth sweep ----

func benchHotspot(b *testing.B, nprocs int, h float64, comb bool) {
	b.ReportAllocs()
	var last combining.HotspotResult
	for i := 0; i < b.N; i++ {
		last = combining.RunHotspot(nprocs, 0.6, h, comb, 2000, uint64(i+1))
	}
	b.ReportMetric(last.Stats.Bandwidth(), "ops/cycle")
	b.ReportMetric(last.Stats.MeanLatency(), "cycles/op")
}

func BenchmarkHotspot(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		for _, h := range []float64{0, 0.0625, 0.125, 0.25} {
			for _, comb := range []bool{false, true} {
				name := fmt.Sprintf("N=%d/h=%.4f/combining=%v", n, h, comb)
				b.Run(name, func(b *testing.B) { benchHotspot(b, n, h, comb) })
			}
		}
	}
}

// ---- E9: tree saturation (cold-traffic latency) ----

func BenchmarkTreeSaturation(b *testing.B) {
	traffic := func(h float64) combining.TrafficConfig {
		return combining.TrafficConfig{Rate: 0.3, HotFraction: h, Window: 16}
	}
	for _, tc := range []struct {
		name string
		h    float64
		comb bool
	}{
		{"baseline", 0, false},
		{"hot-no-combining", 0.25, false},
		{"hot-combining", 0.25, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var last combining.HotspotResult
			for i := 0; i < b.N; i++ {
				last = combining.RunHotspotTraffic(64, traffic(tc.h), tc.comb, 2000, uint64(i+1))
			}
			b.ReportMetric(last.Stats.ColdMeanLatency(), "cold-cycles/op")
		})
	}
}

// ---- A1: partial combining (wait-buffer capacity ablation) ----

func BenchmarkPartialCombining(b *testing.B) {
	for _, cap := range []struct {
		name string
		cap  int
	}{
		{"cap=0", 0}, {"cap=1", 1}, {"cap=4", 4}, {"cap=unbounded", combining.Unbounded},
	} {
		b.Run(cap.name, func(b *testing.B) {
			build := wired(b, "omega", combining.WiringConfig{Procs: 64, WaitBufCap: cap.cap})
			var st engine.Totals
			for i := 0; i < b.N; i++ {
				inj := make([]combining.Injector, 64)
				for p := 0; p < 64; p++ {
					inj[p] = combining.NewStochastic(p, 64, combining.TrafficConfig{
						Rate: 0.6, HotFraction: 0.25,
					}, uint64(i+1))
				}
				sim := build(inj)
				sim.Run(2000)
				st = sim.Totals()
			}
			b.ReportMetric(st.Bandwidth(), "ops/cycle")
			b.ReportMetric(float64(st.Combines), "combines")
		})
	}
}

// ---- E1: memory-side vs processor-side RMW ----

func BenchmarkRMWImplementation(b *testing.B) {
	const n, perProc = 16, 10
	build := wired(b, "omega", combining.WiringConfig{Procs: n, WaitBufCap: combining.Unbounded})
	run := func(progs [][]combining.Instr) engine.Totals {
		m := combining.NewMachine(progs, build)
		if !m.Run(1000000) {
			b.Fatal("did not complete")
		}
		return m.Engine().Totals()
	}
	b.Run("memory-side", func(b *testing.B) {
		var st engine.Totals
		for i := 0; i < b.N; i++ {
			progs := make([][]combining.Instr, n)
			for p := 0; p < n; p++ {
				for j := 0; j < perProc; j++ {
					progs[p] = append(progs[p], combining.RMW(3, combining.FetchAdd(1)))
				}
			}
			st = run(progs)
		}
		b.ReportMetric(float64(st.Cycles), "machine-cycles")
		b.ReportMetric(float64(st.Issued), "messages")
	})
	b.Run("processor-side", func(b *testing.B) {
		var st engine.Totals
		for i := 0; i < b.N; i++ {
			progs := make([][]combining.Instr, n)
			for p := 0; p < n; p++ {
				for j := 0; j < perProc; j++ {
					loadIdx := len(progs[p])
					progs[p] = append(progs[p],
						combining.RMW(3, combining.Load{}),
						combining.Instr{
							Addr: 3,
							DynOp: func(rep []combining.Word) combining.Mapping {
								return combining.StoreOf(rep[loadIdx].Val + 1)
							},
							After: []int{loadIdx},
						})
				}
			}
			st = run(progs)
		}
		b.ReportMetric(float64(st.Cycles), "machine-cycles")
		b.ReportMetric(float64(st.Issued), "messages")
	})
}

// ---- A2: the Section 7 topology variants ----

func BenchmarkHypercubeHotspot(b *testing.B) {
	for _, comb := range []bool{false, true} {
		b.Run(fmt.Sprintf("combining=%v", comb), func(b *testing.B) {
			waitCap := 0
			if comb {
				waitCap = combining.Unbounded
			}
			const n = 64
			build := wired(b, "hypercube", combining.WiringConfig{Procs: n, WaitBufCap: waitCap})
			var st engine.Totals
			for i := 0; i < b.N; i++ {
				inj := make([]combining.Injector, n)
				for p := 0; p < n; p++ {
					inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{
						Rate: 0.5, HotFraction: 0.25, Window: 8,
					}, uint64(i+1))
				}
				sim := build(inj)
				sim.Run(2000)
				st = sim.Totals()
			}
			b.ReportMetric(st.Bandwidth(), "ops/cycle")
			b.ReportMetric(st.MeanLatency(), "cycles/op")
		})
	}
}

func BenchmarkBusCombining(b *testing.B) {
	for _, comb := range []bool{false, true} {
		b.Run(fmt.Sprintf("combining=%v", comb), func(b *testing.B) {
			waitCap := 0
			if comb {
				waitCap = combining.Unbounded
			}
			const n = 16
			build := wired(b, "bus", combining.WiringConfig{Procs: n, Banks: 8, WaitBufCap: waitCap})
			var st engine.Totals
			for i := 0; i < b.N; i++ {
				inj := make([]combining.Injector, n)
				for p := 0; p < n; p++ {
					inj[p] = combining.NewStochastic(p, n, combining.TrafficConfig{
						Rate: 1.0, HotFraction: 0.5, Window: 4, AddrSpace: 64,
					}, uint64(i+1))
				}
				sim := build(inj)
				sim.Run(4000)
				st = sim.Totals()
			}
			b.ReportMetric(st.Bandwidth(), "ops/cycle")
		})
	}
}

// ---- Checker cost ----

func BenchmarkCheckM2(b *testing.B) {
	h := &combining.History{}
	for i := 0; i < 128; i++ {
		h.Add(combining.HistOp{
			Proc:  combining.ProcID(i % 8),
			Seq:   i / 8,
			Addr:  7,
			Op:    combining.FetchAdd(1),
			Reply: combining.W(int64(i)),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := combining.CheckM2(h, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- A4: permutation baselines ----

func BenchmarkPermutation(b *testing.B) {
	for _, tc := range []struct {
		name string
		perm combining.Permutation
	}{
		{"identity", combining.IdentityPerm},
		{"shift", combining.ShiftPerm},
		{"bit-reverse", combining.BitReversePerm},
		{"transpose", combining.TransposePerm},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var bandwidth float64
			for i := 0; i < b.N; i++ {
				bandwidth = combining.RunPermutation(64, tc.perm, 2000).Bandwidth()
			}
			b.ReportMetric(bandwidth, "ops/cycle")
		})
	}
}

// ---- A5: M1 central FIFO vs the M2 network ----

func BenchmarkM1VersusM2(b *testing.B) {
	progs := func() [][]combining.Instr {
		out := make([][]combining.Instr, 16)
		for p := range out {
			for i := 0; i < 20; i++ {
				out[p] = append(out[p], combining.RMW(combining.Addr(i%8), combining.FetchAdd(1)))
			}
		}
		return out
	}
	b.Run("m1-central-fifo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := combining.NewMachine(progs(), combining.M1)
			if !m.Run(100000) {
				b.Fatal("did not complete")
			}
		}
	})
	b.Run("m2-omega-combining", func(b *testing.B) {
		build := wired(b, "omega", combining.WiringConfig{Procs: 16, WaitBufCap: combining.Unbounded})
		for i := 0; i < b.N; i++ {
			m := combining.NewMachine(progs(), build)
			if !m.Run(100000) {
				b.Fatal("did not complete")
			}
		}
	})
}

// ---- Path expression compilation ----

func BenchmarkCompilePath(b *testing.B) {
	const expr = "(open (read | write | append)* (sync | close))*"
	for i := 0; i < b.N; i++ {
		if _, err := combining.CompilePath(expr); err != nil {
			b.Fatal(err)
		}
	}
}
