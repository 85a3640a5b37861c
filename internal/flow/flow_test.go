package flow

import (
	"strings"
	"testing"
)

// inflight is a constant in-flight census for Watchdog.Observe.
func inflight(n int) func() int { return func() int { return n } }

func TestWatchdogTripsOnlyWithInflightAndNoProgress(t *testing.T) {
	w := NewWatchdog(10)

	// Progress every cycle: never trips.
	for c := int64(0); c < 100; c++ {
		if w.Observe(c, c, inflight(1)) {
			t.Fatalf("tripped at cycle %d despite progress", c)
		}
	}
	// Quiescent (inflight 0) with a frozen signature: never trips.
	for c := int64(100); c < 200; c++ {
		if w.Observe(c, 99, inflight(0)) {
			t.Fatalf("tripped at cycle %d while quiescent", c)
		}
	}
	// In-flight work with a frozen signature: trips limit cycles after the
	// last observed change (cycle 199), and only once.
	tripAt := int64(-1)
	for c := int64(200); c < 300; c++ {
		if w.Observe(c, 99, inflight(3)) {
			if tripAt != -1 {
				t.Fatalf("tripped twice (%d and %d)", tripAt, c)
			}
			tripAt = c
		}
	}
	if tripAt != 209 {
		t.Fatalf("tripped at %d, want 209 (limit 10 after last change at 199)", tripAt)
	}
	if !w.Tripped() || w.TripCycle() != 209 {
		t.Fatalf("Tripped=%v TripCycle=%d, want true/209", w.Tripped(), w.TripCycle())
	}
}

// TestWatchdogCensusOnlyWhenFrozen: the in-flight census is taken on exactly
// the cycles whose signature stood still.
func TestWatchdogCensusOnlyWhenFrozen(t *testing.T) {
	w := NewWatchdog(10)
	calls := 0
	census := func() int { calls++; return 1 }
	for c := int64(1); c <= 50; c++ {
		w.Observe(c, c, census) // moving
	}
	if calls != 0 {
		t.Fatalf("census taken %d times while the signature moved", calls)
	}
	for c := int64(51); c <= 55; c++ {
		w.Observe(c, 50, census) // frozen
	}
	if calls != 5 {
		t.Fatalf("census taken %d times over 5 frozen cycles", calls)
	}
}

func TestWatchdogDisabledAndNil(t *testing.T) {
	for _, w := range []*Watchdog{nil, NewWatchdog(0), NewWatchdog(-5)} {
		for c := int64(0); c < 1000; c++ {
			if w.Observe(c, 42, inflight(7)) {
				t.Fatal("disabled watchdog tripped")
			}
		}
		if w.Tripped() {
			t.Fatal("disabled watchdog reports tripped")
		}
	}
}

func TestWatchdogResetsOnProgress(t *testing.T) {
	w := NewWatchdog(10)
	sig := int64(0)
	for c := int64(0); c < 1000; c++ {
		if c%9 == 0 {
			sig++ // progress just inside the limit
		}
		if w.Observe(c, sig, inflight(1)) {
			t.Fatalf("tripped at cycle %d despite periodic progress", c)
		}
	}
}

func TestSaturationCountsAndStreaks(t *testing.T) {
	var s Saturation
	s.Threshold = 4

	feed := func(bits ...bool) {
		for _, b := range bits {
			s.Observe(b)
		}
	}
	feed(true, true, false, true, true, true, true) // totals: 6, streak 4
	if s.Cycles() != 6 {
		t.Fatalf("Cycles=%d, want 6", s.Cycles())
	}
	if s.MaxStreak() != 4 {
		t.Fatalf("MaxStreak=%d, want 4", s.MaxStreak())
	}
	if !s.Congested() {
		t.Fatal("streak 4 with threshold 4 should be congested")
	}
	s.Observe(false)
	if s.Congested() {
		t.Fatal("congestion should clear when the queue drains")
	}
	if s.MaxStreak() != 4 {
		t.Fatalf("MaxStreak=%d after drain, want 4", s.MaxStreak())
	}
}

func TestSaturationDefaultThreshold(t *testing.T) {
	var s Saturation
	for i := 0; i < DefaultSaturationStreak-1; i++ {
		s.Observe(true)
		if s.Congested() {
			t.Fatalf("congested after %d cycles, default threshold is %d", i+1, DefaultSaturationStreak)
		}
	}
	s.Observe(true)
	if !s.Congested() {
		t.Fatal("not congested at the default threshold")
	}
}

func TestAIMDDecreasesUnderCongestionAndRecovers(t *testing.T) {
	a := NewAIMD(8, 1, 16)
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
	a := NewAIMD(0, 0, 0) // degenerate request: clamps to [1, 1]
	if a.Window() != 1 {
		t.Fatalf("window %d, want 1", a.Window())
	}
	a.OnDeliver(0, 0) // rtt clamps to 1; window stays in range
	if a.Window() != 1 {
		t.Fatalf("window %d after degenerate delivery, want 1", a.Window())
	}

	b := NewAIMD(100, 2, 6)
	if b.Window() != 6 {
		t.Fatalf("initial window %d, want clamp to max 6", b.Window())
	}
}

func TestAIMDHoldsSteadyInMidband(t *testing.T) {
	a := NewAIMD(8, 1, 16)
	a.OnDeliver(10, 0) // baseline
	w := a.Window()
	for i := 1; i <= 100; i++ {
		a.OnDeliver(30, int64(i*10)) // 3× baseline: between recover (2×) and congest (4×)
	}
	if a.Window() != w || a.Decreases != 0 {
		t.Fatalf("mid-band RTTs moved the window: %d → %d (decreases %d)", w, a.Window(), a.Decreases)
	}
}

func TestStallReportFormat(t *testing.T) {
	w := NewWatchdog(50)
	for c := int64(0); !w.Tripped(); c++ {
		w.Observe(c, 7, inflight(2))
	}
	got := StallReport("network", w, 2, "", "queues: fwd=[1 1] rev=[0 0]")
	for _, want := range []string{"network", "cycle 50", "2 in flight", "50 cycles", "queues:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("report %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "crashed sites") {
		t.Fatalf("report %q names crashed sites without any", got)
	}
	got = StallReport("network", w, 2, "mem(stage=-1,index=0,[600,700))", "queues:")
	if !strings.Contains(got, "crashed sites: mem(stage=-1,index=0,[600,700))") {
		t.Fatalf("report %q missing crashed-site line", got)
	}
}
