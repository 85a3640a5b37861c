package network

import (
	"testing"

	"combining/internal/core"
	"combining/internal/word"
)

// drain pulls up to want injections from the injector over cycles,
// delivering immediately so the window never throttles the draw.
func drain(s *Stochastic, cycles int64) []Injection {
	var out []Injection
	for c := int64(0); c < cycles; c++ {
		if inj, ok := s.Next(c); ok {
			out = append(out, inj)
			s.Deliver(core.Reply{ID: inj.Req.ID}, c)
		}
	}
	return out
}

// TestZipfSkew checks the Zipfian generator actually follows a power law:
// rank 0 dominates, counts fall monotonically-ish with rank, and every
// address stays inside [HotAddr, HotAddr+ZipfN).
func TestZipfSkew(t *testing.T) {
	cfg := TrafficConfig{Rate: 1, ZipfN: 8, ZipfS: 1.2, HotAddr: 100}
	s := NewStochastic(0, 16, cfg, 7)
	counts := make(map[word.Addr]int)
	for _, inj := range drain(s, 4000) {
		a := inj.Req.Addr
		if a < 100 || a >= 108 {
			t.Fatalf("Zipfian draw %d outside [100, 108)", a)
		}
		counts[a]++
	}
	if counts[100] == 0 {
		t.Fatal("rank 0 never drawn")
	}
	// With s = 1.2 over 8 ranks, rank 0 holds ~37% of the mass; require it
	// to beat the uniform share decisively and to beat the tail rank.
	total := 0
	for _, c := range counts {
		total += c
	}
	if counts[100]*4 < total {
		t.Errorf("rank 0 drew %d of %d — no Zipfian head", counts[100], total)
	}
	if counts[100] <= counts[107] {
		t.Errorf("rank 0 (%d) not more popular than rank 7 (%d)", counts[100], counts[107])
	}
	// The head rank is the hot class.
	if s.Hot != int64(counts[100]) || s.Cold != int64(total-counts[100]) {
		t.Errorf("hot/cold tallies %d/%d disagree with rank-0 count %d of %d",
			s.Hot, s.Cold, counts[100], total)
	}
}

// TestZipfUniformLimit pins the s → 0 limit: ZipfS 0 is uniform over the
// ZipfN addresses (every rank within a loose tolerance of the mean).
func TestZipfUniformLimit(t *testing.T) {
	s := NewStochastic(0, 16, TrafficConfig{Rate: 1, ZipfN: 4, ZipfS: 0}, 9)
	counts := make(map[word.Addr]int)
	for _, inj := range drain(s, 4000) {
		counts[inj.Req.Addr]++
	}
	for a := word.Addr(0); a < 4; a++ {
		if c := counts[a]; c < 700 || c > 1300 {
			t.Errorf("rank %d drew %d of ~4000 — not uniform at s=0", a, c)
		}
	}
}

// TestBurstGate checks the deterministic on/off schedule: with Rate 1 the
// injector issues every on-phase cycle and never in an off-phase cycle.
func TestBurstGate(t *testing.T) {
	cfg := TrafficConfig{Rate: 1, BurstOn: 10, BurstOff: 30, Window: 1}
	s := NewStochastic(0, 16, cfg, 3)
	for c := int64(0); c < 200; c++ {
		inj, ok := s.Next(c)
		if on := c%40 < 10; ok != on {
			t.Fatalf("cycle %d: issued=%v, want %v (phase %d of 40)", c, ok, on, c%40)
		}
		if ok {
			s.Deliver(core.Reply{ID: inj.Req.ID}, c)
		}
	}
}

// TestBurstPreservesStream pins that the burst gate only delays the
// request stream: the same seed with and without bursting produces the
// same sequence of addresses, just issued later.
func TestBurstPreservesStream(t *testing.T) {
	plain := NewStochastic(0, 16, TrafficConfig{Rate: 0.8, HotFraction: 0.25}, 11)
	burst := NewStochastic(0, 16, TrafficConfig{Rate: 0.8, HotFraction: 0.25, BurstOn: 5, BurstOff: 5}, 11)
	a := drain(plain, 400)
	b := drain(burst, 800)
	if len(b) == 0 || len(b) > len(a) {
		t.Fatalf("burst stream has %d requests vs %d plain", len(b), len(a))
	}
	for i := range b {
		if b[i].Req.Addr != a[i].Req.Addr || b[i].Hot != a[i].Hot {
			t.Fatalf("request %d diverges under bursting: %v vs %v", i, b[i].Req, a[i].Req)
		}
	}
}

// TestTrafficConfigPanics pins the loud rejection of nonsense configs.
func TestTrafficConfigPanics(t *testing.T) {
	for name, cfg := range map[string]TrafficConfig{
		"negative window":    {Window: -1},
		"negative zipfN":     {ZipfN: -4},
		"negative burst on":  {BurstOn: -1},
		"negative burst off": {BurstOn: 2, BurstOff: -2},
		"off without on":     {BurstOff: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewStochastic did not panic", name)
				}
			}()
			NewStochastic(0, 16, cfg, 1)
		}()
	}
}

func TestAIMDDecreasesUnderCongestionAndRecovers(t *testing.T) {
	a := newAIMD(8, 1, 16)
	if a.Window() != 8 {
		t.Fatalf("initial window %d, want 8", a.Window())
	}

	// Establish the baseline RTT.
	now := int64(0)
	for i := 0; i < 10; i++ {
		now += 10
		a.OnDeliver(10, now)
	}
	if a.Window() < 8 {
		t.Fatalf("window shrank to %d on uncongested deliveries", a.Window())
	}

	// Congested RTTs (>4× baseline): multiplicative decrease, rate-limited
	// to one cut per RTT.
	now += 1000
	a.OnDeliver(100, now)
	if a.Window() > 8/2 {
		t.Fatalf("window %d after congestion, want ≤ 4", a.Window())
	}
	cutsSoFar := a.Decreases
	a.OnDeliver(100, now+1) // within the same RTT window: no second cut
	if a.Decreases != cutsSoFar {
		t.Fatalf("second cut within one RTT (decreases %d → %d)", cutsSoFar, a.Decreases)
	}

	// Keep congesting across RTT windows: floor at min.
	for i := 0; i < 20; i++ {
		now += 200
		a.OnDeliver(100, now)
	}
	if a.Window() != 1 {
		t.Fatalf("window %d under sustained congestion, want floor 1", a.Window())
	}

	// Drained RTTs: additive recovery back toward max.
	for i := 0; i < 500; i++ {
		now += 10
		a.OnDeliver(10, now)
	}
	if a.Window() != 16 {
		t.Fatalf("window %d after sustained drain, want ceiling 16", a.Window())
	}
	if a.Decreases == 0 || a.Samples == 0 || a.MeanWindow() <= 0 {
		t.Fatalf("instrumentation not populated: decreases=%d samples=%d mean=%g",
			a.Decreases, a.Samples, a.MeanWindow())
	}
}

func TestAIMDClamping(t *testing.T) {
	a := newAIMD(0, 0, 0) // degenerate request: clamps to [1, 1]
	if a.Window() != 1 {
		t.Fatalf("window %d, want 1", a.Window())
	}
	a.OnDeliver(0, 0) // rtt clamps to 1; window stays in range
	if a.Window() != 1 {
		t.Fatalf("window %d after degenerate delivery, want 1", a.Window())
	}

	b := newAIMD(100, 2, 6)
	if b.Window() != 6 {
		t.Fatalf("initial window %d, want clamp to max 6", b.Window())
	}
}

func TestAIMDHoldsSteadyInMidband(t *testing.T) {
	a := newAIMD(8, 1, 16)
	a.OnDeliver(10, 0) // baseline
	w := a.Window()
	for i := 1; i <= 100; i++ {
		a.OnDeliver(30, int64(i*10)) // 3× baseline: between recover (2×) and congest (4×)
	}
	if a.Window() != w || a.Decreases != 0 {
		t.Fatalf("mid-band RTTs moved the window: %d → %d (decreases %d)", w, a.Window(), a.Decreases)
	}
}
