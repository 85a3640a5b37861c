package core

import (
	"combining/internal/word"
)

// WaitBuffer holds the records of combines performed at one switch, keyed
// by the combined message's id.  The same id can key several records: a
// combined message that is still queued may combine again with a later
// arrival, so replies decombine in LIFO order — the most recent combine is
// undone first.
//
// The record type is generic so transports can attach routing state (reply
// path headers, port indexes) to the basic Record.
//
// The buffer has a capacity: real combining switches have a small
// associative memory, and when it is full the switch simply forwards
// requests uncombined.  The paper notes that such partial combining is
// always correct; experiment A1 measures its performance cost.
//
// The associative memory is one slice of slots.  An index names each id's
// newest slot, and every slot links to the next older record with the same
// id, so a reply finds its records newest first without a scan.  Freed slots
// are chained for reuse: once the slice has grown to the buffer's peak, a
// push allocates nothing.
type WaitBuffer[R any] struct {
	capacity int
	size     int
	slots    []waitSlot[R]
	// newest maps an id to its newest record's slot; made by the first push.
	newest map[word.ReqID]int32
	// free is 1 + the first slot of the chain of free slots, linked through
	// older; 0 when every slot is live, so the zero buffer is empty.
	free int32

	// Combines counts successful pushes, for the combining-rate metrics.
	Combines int64
	// Rejections counts pushes refused for capacity.
	Rejections int64
}

// waitSlot is one record and its place in its id's chain.
type waitSlot[R any] struct {
	rec R
	// older is the slot of the next older record with the same id, or, in
	// a free slot, the next free slot; -1 ends either chain.
	older int32
	live  bool
}

// Unbounded is the WaitBuffer capacity for an unlimited buffer.
const Unbounded = -1

// NewWaitBuffer returns a buffer holding at most capacity records;
// capacity 0 disables combining entirely and Unbounded removes the limit.
func NewWaitBuffer[R any](capacity int) *WaitBuffer[R] {
	return &WaitBuffer[R]{capacity: capacity}
}

// Len returns the number of records currently held.
func (b *WaitBuffer[R]) Len() int { return b.size }

// CanPush reports whether the buffer has room for another record.
func (b *WaitBuffer[R]) CanPush() bool {
	return b.capacity == Unbounded || b.size < b.capacity
}

// Push saves a combine record under the combined message's id.  It reports
// false — meaning the transport must not combine — when the buffer is full.
func (b *WaitBuffer[R]) Push(id word.ReqID, rec R) bool {
	if !b.CanPush() {
		b.Rejections++
		return false
	}
	if b.newest == nil {
		b.newest = make(map[word.ReqID]int32)
	}
	at := b.free - 1
	if at >= 0 {
		b.free = b.slots[at].older + 1
	} else {
		at = int32(len(b.slots))
		b.slots = append(b.slots, waitSlot[R]{})
	}
	older, ok := b.newest[id]
	if !ok {
		older = -1
	}
	b.slots[at] = waitSlot[R]{rec: rec, older: older, live: true}
	b.newest[id] = at
	b.size++
	b.Combines++
	return true
}

// PopMatch retrieves and removes the most recent record for a reply id that
// the match predicate accepts, scanning from newest to oldest.  Records the
// predicate rejects stay buffered untouched.  Fault-tolerant transports use
// this with core.CanDecombine so a stale record (its combined message was
// dropped downstream of the combine) is skipped rather than popped: the
// record's second requester recovers by retransmitting, and the stale entry
// merely occupies a slot until the run ends.
func (b *WaitBuffer[R]) PopMatch(id word.ReqID, match func(R) bool) (R, bool) {
	at, ok := b.newest[id]
	for prev := int32(-1); ok && at >= 0; prev, at = at, b.slots[at].older {
		if match(b.slots[at].rec) {
			return b.take(id, at, prev), true
		}
	}
	var zero R
	return zero, false
}

// Pop retrieves and removes the most recent record for a reply id.  ok is
// false when the reply was never combined at this buffer and should be
// forwarded as is.
func (b *WaitBuffer[R]) Pop(id word.ReqID) (R, bool) {
	if at, ok := b.newest[id]; ok {
		return b.take(id, at, -1), true
	}
	var zero R
	return zero, false
}

// take unlinks slot at, whose newer neighbour in id's chain is prev (-1: at
// is the newest), frees it and returns its record.
func (b *WaitBuffer[R]) take(id word.ReqID, at, prev int32) R {
	slot := &b.slots[at]
	rec := slot.rec
	switch {
	case prev >= 0:
		b.slots[prev].older = slot.older
	case slot.older >= 0:
		b.newest[id] = slot.older
	default:
		delete(b.newest, id)
	}
	// The freed slot keeps nothing reachable.
	*slot = waitSlot[R]{older: b.free - 1}
	b.free = at + 1
	if b.size--; b.size == 0 {
		// Every slot is free: restart at the front.
		b.slots, b.free = b.slots[:0], 0
	}
	return rec
}

// Flush empties the buffer and returns every record — the crash path of a
// switch losing its associative memory — in slot order, which callers must
// not read anything into: they fold the records into order-insensitive
// state (sets, counters).  Combines/Rejections totals are left intact: they
// describe work done, including work a crash later threw away.
func (b *WaitBuffer[R]) Flush() []R {
	if b.size == 0 {
		return nil
	}
	out := make([]R, 0, b.size)
	for i := range b.slots {
		if b.slots[i].live {
			out = append(out, b.slots[i].rec)
		}
	}
	clear(b.slots)
	b.slots = b.slots[:0]
	clear(b.newest)
	b.free = 0
	b.size = 0
	return out
}
