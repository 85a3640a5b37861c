package core

// FIFO is the one queue of the cycle engines' data plane: switch output and
// reverse queues, router link queues, the bus's decoupling FIFO, the memory
// modules' input queues and the ports' retry lists.  Elements are accessed
// in place — Front and Push hand out pointers into the storage — so a hop
// is one write into the destination slot and a pop is an index increment.
//
// Storage is head-indexed: the live elements are buf[head:tail], always
// contiguous, so View can hand CombineAtTail a plain slice.  When the tail
// reaches the end of the storage the live elements slide to the front
// (compaction) if there is dead storage there to reclaim; only a queue that
// fills its storage doubles it, and a bounded FIFO's storage stops at its
// bound: from there on it is fixed.  A queue that drains restarts at the
// front, so one that holds a message or two — most of a machine's thousands
// of queues — never slides at all, and a busy one slides a few adjacent
// cache lines it has just read.  Storage starts empty and is sized by use:
// the queues' storage is most of a machine's working set, and keeping it
// small measured faster than slack that spares slides.  The first storage
// is two slots, not one: at the end of a 1024-processor omega run nearly
// every link queue had peaked at exactly two messages, so starting at one
// left a dead one-slot array behind in almost every queue.  Once a queue
// has seen its peak occupancy, Push allocates nothing.
//
// Pop does not clear the vacated slot: it is dead storage until a later
// Push hands it out again, and whatever the element referenced (a
// request's lineage, a reply's leaf list) stays reachable from it until then — at
// most one stale element per dead slot, which is what the slide queues this
// replaced left beyond len as well.  Nothing reads a dead slot, so a stale
// reference can only delay collection, never alias a live message; the
// price is that the slot Push returns holds a stale element and the caller
// must assign it whole.  Clear zeroes the storage, so a flushed queue pins
// nothing.
//
// Ver is the queue's version: Push, Pop, Clear and Touch change it, and
// nothing else does, so two reads that return the same version saw the same
// queue.  A caller that rewrites a queued element in place through Front or
// View calls Touch to say so.  The engines' refusal memo keys on it: a
// request refused at a full queue is refused again while that queue, and
// the one it waits at the head of, keep their versions.
//
// The zero FIFO is an empty unbounded queue.  A FIFO is not safe for
// concurrent use.
type FIFO[T any] struct {
	buf []T
	// head and tail are int32, like bound, so the version fits beside them
	// in 48 bytes: no queue holds 2³¹ elements.
	head, tail int32
	bound      int32 // > 0: neither Len nor the storage ever exceeds it
	peak       int32 // the most elements the queue has held
	ver        uint32
}

// NewFIFO returns an empty queue.  bound > 0 fixes its capacity: the caller
// checks Full before Push, and pushing onto a full queue panics.  bound <= 0
// means unbounded.
func NewFIFO[T any](bound int) FIFO[T] {
	if bound < 0 {
		bound = 0
	}
	return FIFO[T]{bound: int32(bound)}
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return int(q.tail - q.head) }

// Full reports whether a bounded queue is at its bound (never, when
// unbounded).
func (q *FIFO[T]) Full() bool { return q.bound > 0 && q.tail-q.head >= q.bound }

// Peak returns the queue's high-water mark: the most elements it has held
// at once since it was made (Clear does not reset it).
func (q *FIFO[T]) Peak() int { return int(q.peak) }

// Ver returns the queue's version (see the type comment).
func (q *FIFO[T]) Ver() uint32 { return q.ver }

// Touch records an in-place rewrite of a queued element: it changes the
// version and nothing else.
func (q *FIFO[T]) Touch() { q.ver++ }

// Front returns the oldest element, in place.  The pointer is valid until
// the next Push, Pop or Clear; the queue must not be empty.
func (q *FIFO[T]) Front() *T { return &q.buf[q.head:q.tail][0] }

// Pop removes the oldest element.  The queue must not be empty.
func (q *FIFO[T]) Pop() {
	if q.head == q.tail {
		panic("core: Pop on an empty FIFO")
	}
	q.head++
	q.ver++
	if q.head == q.tail {
		// Empty: restart at the front, putting off the next slide.
		q.head, q.tail = 0, 0
	}
}

// Push appends a slot and returns it for the caller to fill.  The slot holds
// a stale element, not the zero value: assign it whole.  The pointer is
// valid until the next Push, Pop or Clear.
func (q *FIFO[T]) Push() *T {
	if q.Full() {
		panic("core: Push on a full bounded FIFO (caller must check Full)")
	}
	if int(q.tail) == len(q.buf) {
		q.makeRoom()
	}
	q.tail++
	q.ver++
	if n := q.tail - q.head; n > q.peak {
		q.peak = n
	}
	return &q.buf[q.tail-1]
}

// makeRoom frees a slot past the tail: by sliding the live elements to the
// front over dead storage, or, when the storage is full, by doubling it.
func (q *FIFO[T]) makeRoom() {
	if q.head > 0 {
		n := copy(q.buf, q.buf[q.head:q.tail])
		q.head, q.tail = 0, int32(n)
		return
	}
	grown := max(2*len(q.buf), 2)
	if q.bound > 0 && grown > int(q.bound) {
		grown = int(q.bound) // Push has checked Len < bound: this still grows
	}
	buf := make([]T, grown)
	copy(buf, q.buf)
	q.buf = buf
}

// View returns the live elements, oldest first, as a slice of the storage.
// It is valid until the next Push, Pop or Clear; writes through it edit the
// queue in place.
func (q *FIFO[T]) View() []T { return q.buf[q.head:q.tail] }

// Clear empties the queue and zeroes its storage, dropping every reference
// the live and the dead slots held.
func (q *FIFO[T]) Clear() {
	clear(q.buf)
	q.head, q.tail = 0, 0
	q.ver++
}
