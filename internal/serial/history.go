// Package serial provides the correctness checkers that turn the paper's
// Section 3 memory-model definitions into machine-checkable predicates:
//
//   - CheckM2: per-location serializability — the memory behaved as if each
//     location executed its requests in some order consistent with every
//     processor's issue order (conditions M2.1–M2.3, the property
//     Theorem 4.2 guarantees for combining networks), found by search;
//   - CheckCertificate: the same property read off a machine run instead of
//     searched for — the trace builds each location's service order
//     (Certificate), and one pass replays it — plus the real-time order
//     that makes it per-location linearizability; Check runs it with the
//     search as the fallback;
//   - SeqConsistent: full sequential consistency (condition M1), decidable
//     only for small histories — used for the Collier example (Section 3.2)
//     and the incorrect load-forwarding optimization (Section 5.1).
package serial

import (
	"cmp"
	"fmt"
	"slices"

	"combining/internal/rmw"
	"combining/internal/word"
)

// Op is one completed memory operation as observed by its issuing
// processor: what was asked, and what came back.
type Op struct {
	Proc  word.ProcID
	Seq   int // per-processor program order index
	Addr  word.Addr
	Op    rmw.Mapping
	Reply word.Word // the old value the operation observed
	// ID is the request's id, which a Certificate places.
	ID word.ReqID
	// IssueAt and DoneAt bound the interval during which the memory access
	// occurred (simulator cycles or any monotone clock); DoneAt 0 means
	// untimed.
	IssueAt, DoneAt int64
}

// History is a collection of completed operations from one execution.
type History struct {
	ops []Op
}

// Add appends an operation.
func (h *History) Add(op Op) { h.ops = append(h.ops, op) }

// Len returns the number of recorded operations.
func (h *History) Len() int { return len(h.ops) }

// Ops returns a copy of the recorded operations.
func (h *History) Ops() []Op { return slices.Clone(h.ops) }

// location is one address's operations as per-processor chains.
type location struct {
	addr   word.Addr
	chains [][]int
}

// byLocation groups the operations per address, addresses ascending, so
// a history with several bad locations always reports the same one.
func byLocation(ops []Op) []location {
	perAddr := make(map[word.Addr][]int)
	for i, op := range ops {
		perAddr[op.Addr] = append(perAddr[op.Addr], i)
	}
	out := make([]location, 0, len(perAddr))
	for addr, idx := range perAddr {
		out = append(out, location{addr, chains(ops, idx)})
	}
	slices.SortFunc(out, func(a, b location) int { return cmp.Compare(a.addr, b.addr) })
	return out
}

// chains groups the operations ops[i], i in idx, into one chain of indices
// per processor, in program order, processors ascending.  It sorts idx.
func chains(ops []Op, idx []int) [][]int {
	slices.SortStableFunc(idx, func(a, b int) int {
		return cmp.Or(cmp.Compare(ops[a].Proc, ops[b].Proc), cmp.Compare(ops[a].Seq, ops[b].Seq))
	})
	var out [][]int
	for len(idx) > 0 {
		n := 1
		for n < len(idx) && ops[idx[n]].Proc == ops[idx[0]].Proc {
			n++
		}
		out = append(out, idx[:n:n])
		idx = idx[n:]
	}
	return out
}

// Violation describes a failed check.
type Violation struct {
	Addr   word.Addr
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("serial: location %d: %s", v.Addr, v.Detail)
}
