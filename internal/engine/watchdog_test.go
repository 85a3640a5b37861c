package engine

import (
	"testing"

	"combining/internal/faults"
)

// TestWatchdogPinned holds the progress watchdog to the trips it made when
// Step took the in-flight census every cycle: the step epilogue now takes
// it only on a cycle whose progress signature stood still, which is exactly
// when the watchdog's verdict depends on it.  A module the fabric never
// feeds leaves processor 1's two private requests in the station forever;
// with a 64-cycle limit the trip cycle and the stall report below are the
// ones the eager epilogue produces (re-recorded with flow.Watchdog.Observe
// taking the census unconditionally when the loopback became a one-station
// wiring, whose extra hop moved them from 91 and 141), on a clean machine —
// whose census walks ports, stations and metadata — and under a drop plan,
// whose census is the retry tracker's ledger and whose signature also
// counts injected faults.
func TestWatchdogPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   *faults.Plan
		trip   int64
		report string
	}{
		{"clean", nil, 96,
			"loopback: watchdog tripped at cycle 96: 2 in flight, no progress for 64 cycles\npending=0 meta=0\n" +
				"stations: fwd=2 rev=0 wait=0\nmemory queued=0\nstage 0: fwd=2 rev=0 wait=0"},
		{"drops", faults.Default(5), 194,
			"loopback: watchdog tripped at cycle 194: 2 in flight, no progress for 64 cycles\npending=1 meta=0\n" +
				"stations: fwd=2 rev=0 wait=0\nmemory queued=0\nstage 0: fwd=2 rev=0 wait=0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, inj := newAdders(4, 6)
			l := newLoopbackWatched(tc.plan, inj, 2, 64, func(mod int) bool { return mod == 1 })
			l.Run(100000)
			if !l.Stalled() {
				t.Fatalf("the machine ran %d cycles without tripping the watchdog", l.Cycle())
			}
			if got := l.wd.TripCycle(); got != tc.trip || l.Cycle() != tc.trip {
				t.Errorf("tripped at cycle %d (machine stopped at %d), pinned %d", got, l.Cycle(), tc.trip)
			}
			if got := l.Totals().WatchdogTrips; got != 1 {
				t.Errorf("%d watchdog trips counted, want 1", got)
			}
			if got := l.StallReport(); got != tc.report {
				t.Errorf("stall report:\n%q\npinned:\n%q", got, tc.report)
			}
		})
	}
}

// TestWatchdogQuietThroughDrain: with every module fed, the same traffic
// drains to nothing in flight and the watchdog never trips — not while
// requests move, and not across the idle cycles after the last delivery,
// when the signature stands still with an empty machine.
func TestWatchdogQuietThroughDrain(t *testing.T) {
	adders, inj := newAdders(4, 6)
	l := newLoopbackWatched(nil, inj, 2, 64, nil)
	if !l.Drain(10000) {
		t.Fatalf("did not drain:\n%s", l.StallReport())
	}
	l.Run(200) // idle well past the limit
	if l.Stalled() || l.Totals().WatchdogTrips != 0 {
		t.Fatalf("watchdog tripped on a drained machine:\n%s", l.StallReport())
	}
	for p, a := range adders {
		if got := len(a.hot) + len(a.private); got != 6 {
			t.Errorf("proc %d got %d replies for 6 requests", p, got)
		}
	}
}

// TestWatchdogCountsServiceCycles: a module's service cycles are progress.
// With a service time past the watchdog limit the modules are, for most of
// the run, the only thing moving; the machine still drains untripped.
func TestWatchdogCountsServiceCycles(t *testing.T) {
	_, inj := newAdders(4, 6)
	l := newLoopbackWatched(nil, inj, 100, 64, nil)
	if !l.Drain(10000) || l.Stalled() {
		t.Fatalf("did not drain (stalled=%v):\n%s", l.Stalled(), l.StallReport())
	}
}
