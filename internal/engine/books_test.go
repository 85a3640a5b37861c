package engine

import (
	"strings"
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/word"
)

func TestWatchdogTripsOnlyWithInflightAndNoProgress(t *testing.T) {
	w := watchdog{limit: 10}

	// Progress every cycle: never trips.
	for c := int64(0); c < 100; c++ {
		if w.observe(c, c, 1) {
			t.Fatalf("tripped at cycle %d despite progress", c)
		}
	}
	// Quiescent (inflight 0) with a frozen signature: never trips.
	for c := int64(100); c < 200; c++ {
		if w.observe(c, 99, 0) {
			t.Fatalf("tripped at cycle %d while quiescent", c)
		}
	}
	// In-flight work with a frozen signature: trips limit cycles after the
	// last observed change (cycle 199), and only once.
	tripAt := int64(-1)
	for c := int64(200); c < 300; c++ {
		if w.observe(c, 99, 3) {
			if tripAt != -1 {
				t.Fatalf("tripped twice (%d and %d)", tripAt, c)
			}
			tripAt = c
		}
	}
	if tripAt != 209 {
		t.Fatalf("tripped at %d, want 209 (limit 10 after last change at 199)", tripAt)
	}
	if !w.tripped() || w.tripCycle != 209 {
		t.Fatalf("tripped=%v tripCycle=%d, want true/209", w.tripped(), w.tripCycle)
	}
}

func TestWatchdogResetsOnProgress(t *testing.T) {
	w := watchdog{limit: 10}
	sig := int64(0)
	for c := int64(0); c < 1000; c++ {
		if c%9 == 0 {
			sig++ // progress just inside the limit
		}
		if w.observe(c, sig, 1) {
			t.Fatalf("tripped at cycle %d despite periodic progress", c)
		}
	}
}

func TestSaturationCountsAndStreaks(t *testing.T) {
	var s saturation

	feed := func(bits ...bool) {
		for _, b := range bits {
			s.observe(b)
		}
	}
	feed(true, true, false, true, true, true, true) // totals: 6, streak 4
	if s.cycles != 6 {
		t.Fatalf("cycles=%d, want 6", s.cycles)
	}
	if s.maxStreak != 4 {
		t.Fatalf("maxStreak=%d, want 4", s.maxStreak)
	}
	if s.streak != 4 {
		t.Fatalf("streak=%d, want 4", s.streak)
	}
	s.observe(false)
	if s.streak != 0 {
		t.Fatal("the streak should clear when the queue drains")
	}
	if s.maxStreak != 4 {
		t.Fatalf("maxStreak=%d after drain, want 4", s.maxStreak)
	}
}

func TestStallReportFormat(t *testing.T) {
	w := watchdog{limit: 50}
	for c := int64(0); !w.tripped(); c++ {
		w.observe(c, 7, 2)
	}
	got := stallReport("network", &w, 2, "", "queues: fwd=[1 1] rev=[0 0]")
	for _, want := range []string{"network", "cycle 50", "2 in flight", "50 cycles", "queues:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("report %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "crashed sites") {
		t.Fatalf("report %q names crashed sites without any", got)
	}
	got = stallReport("network", &w, 2, "mem(stage=-1,index=0,[600,700))", "queues:")
	if !strings.Contains(got, "crashed sites: mem(stage=-1,index=0,[600,700))") {
		t.Fatalf("report %q missing crashed-site line", got)
	}
}

// newLedger is the ledger Init builds, with checkpoint period every.
func newLedger(every int64) ledger {
	return ledger{every: every}
}

// tracking is a tracker that owes a delivery to each of ids.
func tracking(ids ...word.ReqID) *faults.Tracker {
	trk := faults.NewTracker(faults.NewInjector(faults.Plan{Seed: 1}), 1)
	for _, id := range ids {
		trk.Track(0, core.Request{ID: id}, false, 0)
	}
	return trk
}

func TestCheckpointCadence(t *testing.T) {
	m := newLedger(10)
	if m.checkpointDue(0) {
		t.Error("checkpoint due at cycle 0")
	}
	for _, c := range []int64{10, 20, 1000} {
		if !m.checkpointDue(c) {
			t.Errorf("checkpoint not due at cycle %d", c)
		}
	}
	for _, c := range []int64{1, 9, 11, 1001} {
		if m.checkpointDue(c) {
			t.Errorf("checkpoint due at off-period cycle %d", c)
		}
	}
	// A crash plan that names no period checkpoints every 64 cycles.
	plan := faults.DefaultCrash(1)
	plan.CheckpointEvery = 0
	_, inj := newAdders(4, 1)
	if got := newLoopback(plan, inj).rec.every; got != 64 {
		t.Errorf("default period = %d, want 64", got)
	}
}

// TestLostReplayedLedger: a crash marks the tracker's boxes (noteLost), and
// a delivery that returns a marked box is a replay (complete counts it in
// the lane).
func TestLostReplayedLedger(t *testing.T) {
	trk := tracking(1, 2, 3)
	m := newLedger(64)
	m.crashes++
	m.noteLost(trk, []word.ReqID{1, 2, 2, 3}) // dup in one flush counts once
	m.noteLost(trk, []word.ReqID{3})          // second component losing a copy counts once
	m.restores++
	replayed := 0
	deliver := func(id word.ReqID) {
		if p, ok := trk.Deliver(0, id, 10); ok && p.Lost {
			replayed++
		}
	}
	deliver(2)
	deliver(2) // double delivery of the same id replays once
	deliver(9) // never-lost id is not a replay
	if m.crashes != 1 || m.restores != 1 || replayed != 1 || m.lostN != 3 {
		t.Fatalf("crashes %d restores %d replayed %d lost %d, want 1 1 1 3",
			m.crashes, m.restores, replayed, m.lostN)
	}
	// A delivered id is no longer owed: losing a copy of it again is not
	// lost work.
	m.noteLost(trk, []word.ReqID{2})
	if m.lostN != 3 {
		t.Fatalf("a delivered id re-lost: lost %d, want 3", m.lostN)
	}
	// A never-lost live id delivers as no replay; the still-marked ones do.
	trk.Track(0, core.Request{ID: 4}, false, 0)
	deliver(4)
	deliver(1)
	deliver(3)
	if replayed != 3 {
		t.Fatalf("replayed %d, want 3 (ids 2, 1 and 3)", replayed)
	}
}

func TestNoteLostFiltersDeliveredViaTracker(t *testing.T) {
	// A tracker that no longer owes id 5 a delivery: flushing a stale copy
	// of it is not lost work.
	trk := tracking(5)
	trk.Deliver(0, 5, 10)
	m := newLedger(64)
	m.noteLost(trk, []word.ReqID{5})
	if m.lostN != 0 {
		t.Fatalf("lost_in_flight = %d for a delivered id, want 0", m.lostN)
	}
	// Nor of one it never tracked.
	m.noteLost(trk, []word.ReqID{6})
	if m.lostN != 0 {
		t.Fatalf("lost_in_flight = %d for an untracked id, want 0", m.lostN)
	}
}
