package serial

import "combining/internal/word"

// Per-location linearizability.
//
// Theorem 4.2 guarantees a serialization consistent with each processor's
// issue order.  A correct memory-side implementation guarantees more: the
// memory access of a request happens somewhere between its issue and its
// reply, so if request A's reply returned before request B was issued, A
// must serialize before B.  CheckLinearizable verifies this stronger,
// real-time property per location (Herlihy–Wing linearizability restricted
// to one cell), using the issue/completion timestamps the machine records.
//
// Operations with missing timestamps (both zero) are treated as
// unconstrained in real time, so histories recorded without timing remain
// checkable.

// TimedOp is an operation with its observation interval.
type TimedOp struct {
	Op
	// IssueAt and DoneAt bound the interval during which the memory
	// access occurred (simulator cycles or any monotone clock).
	IssueAt, DoneAt int64
}

// TimedHistory collects timed operations: the operations, and one span per
// operation in the same order.
type TimedHistory struct {
	ops   []Op
	spans []span
}

// Add appends an operation.
func (h *TimedHistory) Add(op TimedOp) {
	h.ops = append(h.ops, op.Op)
	h.spans = append(h.spans, span{op.IssueAt, op.DoneAt})
}

// History strips the timestamps.  It shares h's operations, which neither
// side rewrites; the capped slice makes its own appends copy.
func (h *TimedHistory) History() *History { return &History{ops: h.ops[:len(h.ops):len(h.ops)]} }

// CheckLinearizable verifies that each location's operations admit a
// serialization that (a) respects per-processor issue order, (b) respects
// real-time precedence (DoneAt(A) < IssueAt(B) forces A before B),
// (c) reproduces every reply, and (d) when final is provided, reaches the
// observed final value.  It is CheckM2WithFinal's search with (b) added.
func CheckLinearizable(h *TimedHistory, initial, final map[word.Addr]word.Word) error {
	return check(h.ops, h.spans, initial, final)
}
