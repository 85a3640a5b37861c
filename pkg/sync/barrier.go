package sync

import (
	"math/bits"

	"combining/internal/par"
)

// flag is a one-word wait target on its own cache line, written by exactly
// one peer and awaited by exactly one owner per episode.
type flag struct {
	v par.Wait
	_ [par.CacheLine - 16]byte
}

// localSense is a participant's private sense bit, padded so flipping it
// never invalidates a line another participant reads.
type localSense struct {
	v uint32
	_ [par.CacheLine - 4]byte
}

// Barrier is a tournament (combining-tree) barrier for a fixed set of n
// participants.  The bracket is static: in round r, participant w is the
// round's winner when w ≡ 0 (mod 2^(r+1)) and its opponent is w + 2^r (a
// bye when that exceeds n−1).  A loser stores its arrival into the
// winner's round flag — the software image of a combined fetch-and-add
// climbing one level of the paper's combining tree — and then waits on its
// own wakeup flag.  The undefeated participant 0 plays the memory module:
// once its last opponent arrives, the whole machine has arrived, and the
// release retraces the bracket top-down, each winner waking the losers of
// the rounds it won with one store apiece.
//
// Every flag lives on its own cache line, is written by exactly one peer
// and read by exactly one owner, so arrivals generate O(1) remote
// references per participant and nothing serializes on a central counter.
// The barrier is reusable via sense reversal: each participant flips a
// private sense bit per episode and all flags are compared against it, so
// no flag is ever reset and a fast participant re-entering the next
// episode cannot be confused with a slow one leaving the last.
//
// Barrier implements the same Sync(worker) contract as the phase barriers
// in internal/par and reuses their episode spin policy: the spin budget is
// re-evaluated against GOMAXPROCS once per episode (by participant 0), and
// collapses to zero whenever the participants outnumber the processors.
// Every wait is a par.Wait: a participant that outlasts the budget parks on
// its flag's own channel (at once when the budget is zero), so an early
// arriver costs the scheduler nothing until the one store it waits for,
// and that store — a swap — is still the only remote write per signal.
type Barrier struct {
	par.SpinPolicy
	n       int
	rounds  int
	arrival [][]flag // arrival[w][r]: written by loser w+2^r, read by winner w
	wake    []flag   // wake[w]: written by the winner that beat w
	sense   []localSense
}

// NewBarrier returns a tournament barrier for n participants (n ≥ 1;
// smaller values clamp to 1).  Participants are identified by the fixed
// indices 0..n−1 passed to Wait.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		n = 1
	}
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	b := &Barrier{n: n, rounds: rounds}
	b.Init(n)
	b.arrival = make([][]flag, n)
	for w := 0; w < n; w++ {
		wins := rounds // participant 0 survives every round
		if w != 0 {
			wins = bits.TrailingZeros(uint(w))
		}
		b.arrival[w] = make([]flag, wins)
	}
	b.wake = make([]flag, n)
	b.sense = make([]localSense, n)
	return b
}

// Participants reports the barrier width n.
func (b *Barrier) Participants() int { return b.n }

// Wait blocks participant w until all n participants have called Wait for
// the current episode.  Each participant must pass its own fixed index in
// [0, n); no index may be used by two goroutines concurrently.
func (b *Barrier) Wait(w int) {
	if b.n == 1 {
		return
	}
	if w == 0 {
		b.Refresh()
	}
	s := b.sense[w].v ^ 1
	b.sense[w].v = s
	spin := b.SpinBudget()
	lost := b.rounds
	for r := 0; r < b.rounds; r++ {
		if w&((1<<(r+1))-1) == 0 {
			// Winner of round r: absorb the opponent's arrival (a bye
			// when the opponent index falls off the bracket).
			opp := w + 1<<r
			if opp < b.n {
				b.arrival[w][r].v.Await(s, spin)
			}
		} else {
			// Loser of round r: combine our arrival into the winner,
			// then wait locally until the release wave reaches us.
			win := w - 1<<r
			b.arrival[win][r].v.Set(s)
			b.wake[w].v.Await(s, spin)
			lost = r
			break
		}
	}
	// Release: wake the loser of every round we won, top level first —
	// the decombining walk back down the tree.  Participant 0 reaches
	// here with lost == rounds and starts the wave.
	for r := lost - 1; r >= 0; r-- {
		opp := w + 1<<r
		if opp < b.n {
			b.wake[opp].v.Set(s)
		}
	}
}

// Sync is Wait under the internal/par phase-barrier contract, so a
// Barrier can drop into any code written against that interface.
func (b *Barrier) Sync(w int) { b.Wait(w) }
