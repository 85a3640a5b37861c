package serial

import (
	"fmt"
	"maps"
	"slices"

	"combining/internal/engine"
	"combining/internal/word"
)

// Certificates: the serialization a machine run constructs.
//
// The proof of Theorem 4.2 does not search for a serialization, it builds
// one: a combined request f∘g stands for f, then g, consecutively.  The
// engine trace carries that construction.  Served orders each module's
// accesses, and each combine is undone by exactly one Decombined(a, b),
// which names the message serialized first (order reversal included).  So
// a location's service order is a fold over events (Fold), and checking it
// is one pass instead of a search.
//
// A real-time order comes for free.  A request is served between its issue
// and its reply, and a combined f∘g after both were issued and before
// either is delivered, so on a machine history the service order also
// respects real time.  CheckCertificate checks that too, which makes the
// certificate a per-location linearizability check (Herlihy–Wing
// locality: per-location linearizability composes).
//
// The fold knows nothing of retransmits, network-born duplicates or module
// rollbacks: no event marks a retransmit, and a lost or duplicated combine
// leaves a stale record behind.  Runs with any of them go to the search.

// Certificate is a claimed serialization: each location's operations, by
// request id, in the order they took effect.
type Certificate map[word.Addr][]word.ReqID

// Fold is the trace sink that folds a run's events into its Certificate.
// Pass its Record as an engine's trace.
//
// A message stands for itself, then, in turn, for what each message
// combined into it stands for.  The order of those combines is read off the
// decombines, last first, not off the Combined events: a cycle's events
// reach the sink in station order, not in the order they happened, and a
// message can absorb one request at a station, hop, and absorb another at
// a lower-numbered station in the same cycle.  Its reply, which moves at
// most one hop a cycle, undoes those combines in exactly the reverse order.
type Fold struct {
	// split lists, per message, the messages its reply split off, in the
	// order it split them: the reverse of the order they were combined.
	split  map[word.ReqID][]word.ReqID
	served []engine.Event // every Served event, in trace order
}

// NewFold returns an empty fold.
func NewFold() *Fold { return &Fold{split: make(map[word.ReqID][]word.ReqID)} }

// Record takes one trace event.  Only Served and Decombined matter.
func (f *Fold) Record(e engine.Event) {
	switch e.Kind {
	case engine.Decombined:
		f.split[e.ID] = append(f.split[e.ID], e.ID2)
	case engine.Served:
		f.served = append(f.served, e)
	}
}

// Certificate folds the events recorded so far: each served message's
// leaves join its location's order, each leaf once.
func (f *Fold) Certificate() Certificate {
	cert := make(Certificate)
	placed := make(map[word.ReqID]bool)
	var place func(id word.ReqID, addr word.Addr)
	place = func(id word.ReqID, addr word.Addr) {
		if !placed[id] {
			placed[id] = true
			cert[addr] = append(cert[addr], id)
		}
		for i := len(f.split[id]) - 1; i >= 0; i-- {
			place(f.split[id][i], addr)
		}
	}
	for _, e := range f.served {
		place(e.ID, e.Addr)
	}
	return cert
}

// CheckCertificate replays the certificate against the history, locations
// ascending, and passes only when every operation is placed exactly once at
// its own location, each processor's issue order to a location is kept
// (M2.1), replaying the mappings from the initial value reproduces every
// reply (M2.2, M2.3), the last value equals final where final lists the
// location, and no operation completed before an operation placed ahead of
// it was issued.  It replays rather than trusting a logged value, so a
// decombining bug still shows.  Untimed operations (DoneAt 0) are
// unconstrained in real time.
func CheckCertificate(h *History, cert Certificate, initial, final map[word.Addr]word.Word) error {
	index := make(map[word.ReqID]int, len(h.ops))
	for i, op := range h.ops {
		index[op.ID] = i
	}
	placed := make([]bool, len(h.ops))
	for _, addr := range slices.Sorted(maps.Keys(cert)) {
		bad := func(format string, args ...any) error {
			return &Violation{Addr: addr, Detail: "certificate: " + fmt.Sprintf(format, args...)}
		}
		last := make(map[word.ProcID]int)
		val := initial[addr]
		var latest *Op // the latest-issued timed operation placed so far
		for _, id := range cert[addr] {
			i, ok := index[id]
			if !ok || placed[i] || h.ops[i].Addr != addr {
				return bad("places ⟨%d⟩, which is not an unplaced operation of this location", id)
			}
			placed[i] = true
			op := &h.ops[i]
			switch s, ok := last[op.Proc]; {
			case ok && op.Seq <= s:
				return bad("places processor %d's operation %d after its operation %d", op.Proc, op.Seq, s)
			case op.Reply != val:
				return bad("⟨%d⟩ observed %v, the order gives it %v", id, op.Reply, val)
			case op.DoneAt != 0 && latest != nil && op.DoneAt < latest.IssueAt:
				return bad("places ⟨%d⟩, issued at %d, ahead of ⟨%d⟩, which completed at %d", latest.ID, latest.IssueAt, id, op.DoneAt)
			}
			last[op.Proc] = op.Seq
			if op.DoneAt != 0 && (latest == nil || op.IssueAt > latest.IssueAt) {
				latest = op
			}
			val = op.Op.Apply(val)
		}
		if f, ok := final[addr]; ok && val != f {
			return bad("the order leaves %v, memory holds %v", val, f)
		}
	}
	if i := slices.Index(placed, false); i >= 0 {
		return &Violation{Addr: h.ops[i].Addr, Detail: fmt.Sprintf("certificate: misses ⟨%d⟩", h.ops[i].ID)}
	}
	return nil
}

// Check is the M2 check of a machine run: the certificate when there is one,
// and the search (CheckM2WithFinal) when there is none or it is rejected.
// The search's verdict decides, so a certificate bug can slow a check but
// never hide a violation; the error names the failure class:
//
//   - "per-location serializability violated": the search found no
//     serialization;
//   - "certificate wrong, M2 holds": the search found one the certificate
//     missed, so the trace's order, or its real-time order, is wrong.
func Check(h *History, cert Certificate, initial, final map[word.Addr]word.Word) error {
	var certErr error
	if cert != nil {
		if certErr = CheckCertificate(h, cert, initial, final); certErr == nil {
			return nil
		}
	}
	if err := CheckM2WithFinal(h, initial, final); err != nil {
		return fmt.Errorf("per-location serializability violated: %w", err)
	}
	if certErr != nil {
		return fmt.Errorf("certificate wrong, M2 holds: %w", certErr)
	}
	return nil
}
