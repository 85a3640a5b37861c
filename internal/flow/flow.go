// Package flow is the shared end-to-end flow-control toolkit for the four
// combining engines: a progress watchdog that declares livelock/deadlock
// when in-flight work stops moving, a tree-saturation monitor that counts
// cycles during which some bounded queue on the path to memory is full, and
// an AIMD admission controller that turns those congestion signals into a
// dynamic per-processor request window.
//
// The paper's combining switches have finite buffers; under hot-spot
// traffic those buffers fill from the hot module backward until the whole
// tree of queues leading to it is saturated (Pfister & Norton's tree
// saturation, the failure mode Section 1 motivates combining with).  With
// every queue bounded and upstream holds in place of unbounded appends, the
// engines degrade by backpressure instead of ballooning — and this package
// observes that degradation, guards against the one remaining catastrophic
// outcome (no progress at all), and feeds the admission loop that keeps
// uniform traffic flowing while a hot spot persists.
package flow

import "fmt"

// Watchdog declares livelock/deadlock when in-flight work makes no progress
// for a configured number of cycles.  Engines feed it once per cycle with a
// monotone progress signature (any message movement must change it) and a
// census of the requests in flight; a quiescent machine (nothing in flight)
// never trips.  The zero Watchdog is disabled.
type Watchdog struct {
	limit int64

	lastSig    int64
	lastChange int64
	tripped    bool
	tripCycle  int64
}

// NewWatchdog returns a watchdog that trips after limit cycles without
// progress; limit <= 0 disables it.
func NewWatchdog(limit int64) *Watchdog { return &Watchdog{limit: limit} }

// Observe feeds one cycle: sig is the engine's monotone progress signature,
// inflight counts the requests somewhere in the machine.  The census may be
// a walk over every queue, so it is taken only when the verdict hangs on it:
// on a cycle whose signature stood still.  Observe returns true exactly
// once, on the cycle the watchdog trips.
func (w *Watchdog) Observe(cycle, sig int64, inflight func() int) bool {
	if w == nil || w.limit <= 0 || w.tripped {
		return false
	}
	if sig != w.lastSig || inflight() == 0 {
		w.lastSig = sig
		w.lastChange = cycle
		return false
	}
	if cycle-w.lastChange >= w.limit {
		w.tripped = true
		w.tripCycle = cycle
		return true
	}
	return false
}

// Tripped reports whether the watchdog has declared a stall.
func (w *Watchdog) Tripped() bool { return w != nil && w.tripped }

// TripCycle returns the cycle the watchdog tripped (0 if it has not).
func (w *Watchdog) TripCycle() int64 {
	if w == nil {
		return 0
	}
	return w.tripCycle
}

// Limit returns the configured no-progress limit (0 when disabled).
func (w *Watchdog) Limit() int64 {
	if w == nil {
		return 0
	}
	return w.limit
}

// Saturation counts tree-saturation cycles: an engine reports, once per
// cycle, whether some bounded queue on the path to memory was full, and the
// monitor tracks the total, the current streak of consecutive saturated
// cycles, and the longest streak seen.  Congested — a streak at least the
// threshold — is the signal admission control and experiments key on:
// transiently full queues are normal under bursts, while a persistently
// full path is the tree-saturation regime.
type Saturation struct {
	// Threshold is the streak length that counts as congestion (default
	// DefaultSaturationStreak when zero).
	Threshold int64

	cycles    int64
	streak    int64
	maxStreak int64
}

// DefaultSaturationStreak is the congestion threshold used when a
// Saturation monitor is built with Threshold zero: a queue tree that stays
// full this many consecutive cycles is saturated, not merely bursty.
const DefaultSaturationStreak = 16

// Observe feeds one cycle's saturation bit.
func (s *Saturation) Observe(full bool) {
	if !full {
		s.streak = 0
		return
	}
	s.cycles++
	s.streak++
	if s.streak > s.maxStreak {
		s.maxStreak = s.streak
	}
}

// Cycles returns the total number of saturated cycles observed.
func (s *Saturation) Cycles() int64 { return s.cycles }

// MaxStreak returns the longest run of consecutive saturated cycles.
func (s *Saturation) MaxStreak() int64 { return s.maxStreak }

// Congested reports whether the current streak has reached the threshold.
func (s *Saturation) Congested() bool {
	th := s.Threshold
	if th <= 0 {
		th = DefaultSaturationStreak
	}
	return s.streak >= th
}

// AIMD is the additive-increase/multiplicative-decrease admission window a
// traffic source consults before issuing: it shrinks when round trips
// stretch well past the uncongested baseline (the congestion signal a
// processor can observe without global state) and recovers additively as
// the tree drains.  It is self-tuning: the baseline is the minimum RTT seen
// this run, so no latency constant needs calibrating per topology.
type AIMD struct {
	min, max float64
	win      float64

	minRTT  int64
	lastCut int64

	// Decreases counts multiplicative window cuts; WindowSum and Samples
	// accumulate the window at each delivery so MeanWindow reports the
	// effective admission level of a run.
	Decreases int64
	WindowSum int64
	Samples   int64
}

// NewAIMD builds a controller starting at initial, clamped to [min, max].
func NewAIMD(initial, min, max int) *AIMD {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	a := &AIMD{min: float64(min), max: float64(max), win: float64(initial)}
	if a.win < a.min {
		a.win = a.min
	}
	if a.win > a.max {
		a.win = a.max
	}
	return a
}

// Window returns the current admission window (at least 1).
func (a *AIMD) Window() int { return int(a.win) }

// MeanWindow returns the average window across deliveries (0 before any).
func (a *AIMD) MeanWindow() float64 {
	if a.Samples == 0 {
		return 0
	}
	return float64(a.WindowSum) / float64(a.Samples)
}

// congestRTTFactor and recoverRTTFactor bracket the signal: a round trip
// beyond congestRTTFactor× the minimum seen means queues on the path are
// deep (cut the window); one within recoverRTTFactor× means the path is
// drained (grow it).  Between the two the window holds steady, which keeps
// the controller from oscillating on moderate queueing.
const (
	congestRTTFactor = 4
	recoverRTTFactor = 2
)

// OnDeliver feeds one completed round trip: rtt in cycles, now the current
// cycle.  Cuts are rate-limited to one per round-trip time so a single
// congested window of deliveries is not punished once per reply.
func (a *AIMD) OnDeliver(rtt, now int64) {
	if rtt < 1 {
		rtt = 1
	}
	if a.minRTT == 0 || rtt < a.minRTT {
		a.minRTT = rtt
	}
	switch {
	case rtt > congestRTTFactor*a.minRTT:
		if now-a.lastCut >= rtt {
			a.win /= 2
			if a.win < a.min {
				a.win = a.min
			}
			a.lastCut = now
			a.Decreases++
		}
	case rtt <= recoverRTTFactor*a.minRTT:
		a.win += 1 / a.win
		if a.win > a.max {
			a.win = a.max
		}
	}
	a.WindowSum += int64(a.win)
	a.Samples++
}

// StallReport formats the standard watchdog diagnostic: where the machine
// stood when progress stopped.  Engines prepend their queue snapshots; the
// caller's harness supplies the replay seed (every soak prints it with the
// failure).  crashed, when non-empty, names the components inside crash
// windows at the trip cycle — a restarting module cannot trip the watchdog
// (dead time counts as injected progress), so a trip during a crash window
// points at what stayed stuck after the flush.
func StallReport(engine string, wd *Watchdog, inflight int, crashed, detail string) string {
	site := ""
	if crashed != "" {
		site = fmt.Sprintf("\ncrashed sites: %s", crashed)
	}
	return fmt.Sprintf("%s: watchdog tripped at cycle %d: %d in flight, no progress for %d cycles%s\n%s",
		engine, wd.TripCycle(), inflight, wd.Limit(), site, detail)
}
