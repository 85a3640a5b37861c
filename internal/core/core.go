// Package core implements the paper's central contribution: the memory
// request combining mechanism of Section 4.
//
// A memory request message is ⟨id, addr, f⟩.  When two requests to the same
// address meet, they are replaced by the single message ⟨id₁, addr, f∘g⟩,
// and the tuple (id₁, id₂, f) is saved in a wait buffer.  When the reply
// ⟨id₁, val⟩ returns, the saved record is popped and the two replies
// ⟨id₁, val⟩ and ⟨id₂, f(val)⟩ are generated — Figure 1 of the paper.
//
// The package is transport-agnostic: every station of the cycle engines
// (internal/engine) combines and decombines with these primitives, and the
// correctness experiments exercise them directly over arbitrary combining
// trees (Lemma 4.1, Theorem 4.2).
package core

import (
	"fmt"

	"combining/internal/rmw"
	"combining/internal/word"
)

// Request is a memory request message ⟨id, addr, f⟩ plus the metadata the
// combining rules need, behind one pointer (Lineage): the set of issuing
// processors it represents and, when a combiner keeps Lemma 4.1's books
// (Policy.Bookkeeping), the ordered list of original requests a combined
// message represents.  The message itself is 48 bytes.
type Request struct {
	ID   word.ReqID
	Addr word.Addr

	// Attempt is the retransmission counter under fault injection: 0 for
	// an original request, k for its k-th retransmit; a combined message
	// carries the larger of its parts'.  The id never changes across
	// attempts — it is the exactly-once key the memory reply cache
	// deduplicates on.  A retransmit combines like any request: under a
	// plan every combine keeps the books (Policy.Bookkeeping), so the copy
	// that reaches memory names its leaves exactly, and its reply names
	// each leaf's value (DecombineExact).
	Attempt uint32

	Op rmw.Mapping

	// Lin is the message's lineage, read through Srcs and Reps; nil means
	// neither is known.  A lineage is never written after it is built, so
	// messages may share one: an injector hands every fresh request of its
	// processor the same one.
	Lin *Lineage

	// Sum is the end-to-end payload checksum over (id, addr, op), stamped
	// in the trusted zone — at issue time, and restamped by a combining
	// switch since combining legitimately rewrites the op — and verified
	// by receivers under adversarial fault plans.  0 means unstamped; see
	// integrity.go.
	Sum uint32
}

// Lineage is what a request knows of the requests it represents.
type Lineage struct {
	// Srcs is the sorted set of processors whose requests the message
	// represents, which the order-reversal optimization reads: it must
	// never reorder two requests from the same processor.  A fresh request
	// has exactly one entry; nil means the set is unknown, which that rule
	// treats as shared (sharesSource).
	Srcs []word.ProcID

	// Reps is the representation list of Lemma 4.1: the original
	// requests, in serialization order.  Only a combined message built by
	// a combiner that keeps the books (Policy.Bookkeeping) carries one; an
	// uncombined message leaves it nil and stands for its own one leaf
	// (Request.Leaves).
	Reps []Leaf
}

// SourceOf returns the lineage of a fresh request issued by src, in one
// allocation.  An injector makes one per processor and shares it.
func SourceOf(src word.ProcID) *Lineage {
	b := new(struct {
		Lineage
		one [1]word.ProcID
	})
	b.one[0] = src
	b.Srcs = b.one[:]
	return &b.Lineage
}

// Srcs returns the processors the request represents (nil when unknown).
func (r *Request) Srcs() []word.ProcID {
	if r.Lin == nil {
		return nil
	}
	return r.Lin.Srcs
}

// Reps returns the request's explicit representation list: nil for an
// uncombined request, and for a combined one built without bookkeeping.
func (r *Request) Reps() []Leaf {
	if r.Lin == nil {
		return nil
	}
	return r.Lin.Reps
}

// Leaves returns the original requests the message stands for, in
// serialization order: its representation list when it carries one,
// otherwise its own implicit leaf — its id, its mapping and its one source
// (-1 when the source set is not a single processor) — written into one,
// so that an uncombined request needs no list of its own.
func (r *Request) Leaves(one *[1]Leaf) []Leaf {
	if reps := r.Reps(); reps != nil {
		return reps
	}
	src := word.ProcID(-1)
	if srcs := r.Srcs(); len(srcs) == 1 {
		src = srcs[0]
	}
	one[0] = Leaf{ID: r.ID, Src: src, Op: r.Op}
	return one[:]
}

// AppendLeafIDs appends to ids the original requests the message stands
// for: its own id when uncombined, otherwise every leaf of its
// representation list.
func (r *Request) AppendLeafIDs(ids []word.ReqID) []word.ReqID {
	reps := r.Reps()
	if len(reps) == 0 {
		return append(ids, r.ID)
	}
	for _, lf := range reps {
		ids = append(ids, lf.ID)
	}
	return ids
}

// Leaf records one original (uncombined) processor request inside a
// representation list.
type Leaf struct {
	ID  word.ReqID
	Src word.ProcID
	Op  rmw.Mapping
}

// NewRequest builds a fresh (uncombined) request message.
func NewRequest(id word.ReqID, addr word.Addr, op rmw.Mapping, src word.ProcID) Request {
	return Request{ID: id, Addr: addr, Op: op, Lin: SourceOf(src)}
}

// Clone returns a copy of the request whose lineage owns its storage.
// Engines that duplicate a message — the adversarial dup links — must go
// through it, so that no later change to either copy's lineage can reach
// the other.
func (r Request) Clone() Request {
	if r.Lin == nil {
		return r
	}
	c := r
	c.Lin = &Lineage{}
	if r.Lin.Srcs != nil {
		c.Lin.Srcs = append(make([]word.ProcID, 0, len(r.Lin.Srcs)), r.Lin.Srcs...)
	}
	if r.Lin.Reps != nil {
		c.Lin.Reps = append(make([]Leaf, 0, len(r.Lin.Reps)), r.Lin.Reps...)
	}
	return c
}

// String renders the message in the paper's ⟨id, addr, f⟩ form.
func (r Request) String() string {
	return fmt.Sprintf("⟨%d, @%d, %s⟩", r.ID, r.Addr, r.Op)
}

// Reply is a reply message ⟨id, val⟩.
type Reply struct {
	ID  word.ReqID
	Val word.Word

	// Attempt echoes the request attempt this reply answers, letting
	// transports account recovered (retransmitted) deliveries separately.
	Attempt uint32

	// Leaves, when non-nil, makes the reply exact: it is the per-leaf
	// value list produced by a reply-caching memory module — for every
	// original request the message represented, in serialization order
	// (Lemma 4.1's representation list), the value that request's
	// operation saw.  Fault-tolerant transports decombine against it
	// (DecombineExact) instead of re-applying mappings, so a stale
	// wait-buffer record — left behind when a combined message was dropped
	// and its leaves retransmitted separately — can never synthesize a
	// bogus reply.  An exact reply to an uncombined request carries no
	// list: its one leaf is its own id and Val, and Leaves is a shared
	// marker (ExactReply) that the methods below read so.  A multi-leaf
	// list is written once, by the module, and never again: every reply
	// decombined from this one shares it.  Read it only through Leaf,
	// AppendLeafIDs, CanDecombine and DecombineExact.  A pointer, so a
	// reply stays one word bigger than its value.
	Leaves *[]LeafVal

	// Sum is the end-to-end payload checksum over (id, val), stamped by
	// the last trusted hop before an adversarial link and verified at
	// delivery; see integrity.go.
	Sum uint32
}

// String renders the reply.
func (p Reply) String() string { return fmt.Sprintf("⟨%d, %s⟩", p.ID, p.Val) }

// oneLeaf is the leaf-list marker of an exact one-leaf reply.  It is
// shared by every such reply and never written; its list is empty, and
// nothing reads it but its address.
var oneLeaf = new([]LeafVal)

// ExactReply returns the exact reply to an uncombined request: its one
// leaf is id itself, which saw val.  It allocates nothing, and, unlike a
// plain reply, answers no wait record (CanDecombine), since no record can
// name its leaf second.
func ExactReply(id word.ReqID, val word.Word, attempt uint32) Reply {
	return Reply{ID: id, Val: val, Attempt: attempt, Leaves: oneLeaf}
}

// Clone returns a copy of the reply whose leaf list owns its storage —
// the reply-side counterpart of Request.Clone, for transports that
// duplicate a reply in flight.  A one-leaf reply has no list to copy.
func (p Reply) Clone() Reply {
	c := p
	if p.Leaves != nil && p.Leaves != oneLeaf {
		c.Leaves = NewLeafList(len(*p.Leaves))
		copy(*c.Leaves, *p.Leaves)
	}
	return c
}

// Leaf returns the value leaf id saw at memory, and whether the reply is
// exact and names it.  The scan is linear: a list is as long as the
// combining fan-in of its message.
func (p Reply) Leaf(id word.ReqID) (word.Word, bool) {
	switch {
	case p.Leaves == oneLeaf:
		return p.Val, id == p.ID
	case p.Leaves != nil:
		for _, lv := range *p.Leaves {
			if lv.ID == id {
				return lv.Val, true
			}
		}
	}
	return word.Word{}, false
}

// AppendLeafIDs appends to ids the original requests the reply answers:
// its own id, or every entry of its leaf list.
func (p Reply) AppendLeafIDs(ids []word.ReqID) []word.ReqID {
	if p.Leaves == nil || p.Leaves == oneLeaf {
		return append(ids, p.ID)
	}
	for _, lv := range *p.Leaves {
		ids = append(ids, lv.ID)
	}
	return ids
}

// LeafVal is one entry of a fat reply's leaf list: an original request and
// the value its own operation saw.
type LeafVal struct {
	ID  word.ReqID
	Val word.Word
}

// NewLeafList returns a list of n zero leaves for a reply-caching module to
// fill, in one allocation: its slice header and its entries side by side
// when n is 2, the fan-in of a single combine.  A reply with one leaf needs
// no list (ExactReply).
func NewLeafList(n int) *[]LeafVal {
	if n == 2 {
		b := new(struct {
			list []LeafVal
			two  [2]LeafVal
		})
		b.list = b.two[:]
		return &b.list
	}
	list := make([]LeafVal, n)
	return &list
}

// Record is the wait-buffer entry saved when two requests combine: the two
// ids and the first request's mapping, which synthesizes the second reply.
// Transports attach their own routing state (which port each original
// request arrived on) via the Port fields.
type Record struct {
	ID1, ID2 word.ReqID
	F        rmw.Mapping
	// Reversed notes that the combiner applied the Section 5.1
	// order-reversal optimization, i.e. the request that arrived second
	// was serialized first.  It affects only diagnostics; decombining is
	// identical.
	Reversed bool
	// Port1 and Port2 record transport routing state for the two
	// replies (input-port indexes in the network switches).
	Port1, Port2 int
}

// Policy configures a combiner.
type Policy struct {
	// AllowReversal enables the Section 5.1 optimization: serialize the
	// later request first when that turns the combined message into a
	// plain store (saving the returned value).  Reversal is suppressed
	// when the two messages share a represented processor, which would
	// reorder a processor's own requests.
	AllowReversal bool

	// Bookkeeping carries Lemma 4.1's representation list through every
	// combine: the combined message lists the original requests it
	// represents, each part contributing its own list or, uncombined, its
	// implicit leaf (Request.Leaves).  A machine whose memory keeps a reply
	// cache needs it (a fault plan arms both); without it a combined
	// message names only its own id.
	Bookkeeping bool
}

// Combine attempts to combine request a (serialized first) with request b.
// On success it returns the combined message and the wait-buffer record.
// Combining fails — and the transport must forward the requests separately,
// which is always correct ("partial combining") — when the addresses
// differ or the mapping families do not compose.
//
// A retransmit (Attempt > 0) combines like a fresh request, and the
// combined message's attempt is the larger of the two.  Under a plan the
// books are kept, so a retransmitted leaf is one more leaf: the memory
// skips it if its processor's delivered floor is past it or answers it
// from the reply cache if it already executed, the exact reply names its
// value, and if its original was delivered first the port suppresses the
// second delivery.  A record the combine mints for a copy that is later
// dropped goes stale and passes its id's later replies through
// (CanDecombine).
func Combine(a, b Request, pol Policy) (Request, Record, bool) {
	if a.Addr != b.Addr {
		return Request{}, Record{}, false
	}
	// The natural order composes once; the reversed order is composed as
	// well only when reversal is allowed and could pay.
	op, ok := rmw.Compose(a.Op, b.Op)
	if !ok {
		return Request{}, Record{}, false
	}
	first, second, reversed := &a, &b, false
	if pol.AllowReversal && rmw.NeedsValue(op) && !sharesSource(a, b) {
		if rop, rok := rmw.Compose(b.Op, a.Op); rok && !rmw.NeedsValue(rop) {
			first, second, reversed, op = &b, &a, true, rop
		}
	}
	combined := Request{ID: first.ID, Addr: a.Addr, Op: op, Attempt: max(a.Attempt, b.Attempt)}
	// A lineage is built only when something reads it: the source set for a
	// later reversal decision, the representation list for the bookkeeping.
	// Without a source set the combined message is never reversed.
	if pol.Bookkeeping {
		var one1, one2 [1]Leaf
		l1, l2 := first.Leaves(&one1), second.Leaves(&one2)
		combined.Lin = lineageFor(len(l1) + len(l2))
		combined.Lin.Reps = append(append(combined.Lin.Reps, l1...), l2...)
	} else if pol.AllowReversal {
		combined.Lin = &Lineage{}
	}
	if pol.AllowReversal {
		combined.Lin.Srcs = mergeSrcs(a.Srcs(), b.Srcs())
	}
	rec := Record{ID1: first.ID, ID2: second.ID, F: first.Op, Reversed: reversed}
	return combined, rec, true
}

// lineageFor returns an empty lineage with room for n leaves, in one
// allocation when n is 2, the fan-in of a combine of two uncombined
// requests.
func lineageFor(n int) *Lineage {
	if n == 2 {
		b := new(struct {
			Lineage
			two [2]Leaf
		})
		b.Reps = b.two[:0]
		return &b.Lineage
	}
	return &Lineage{Reps: make([]Leaf, 0, n)}
}

// sharesSource reports whether the two messages may represent requests from
// a common processor: they do when their sorted source sets meet (a linear
// merge), and may when either set is unknown.
func sharesSource(a, b Request) bool {
	as, bs := a.Srcs(), b.Srcs()
	if as == nil || bs == nil {
		return true
	}
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		switch {
		case as[i] == bs[j]:
			return true
		case as[i] < bs[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// mergeSrcs merges two sorted processor sets; the union with an unknown
// set is unknown.
func mergeSrcs(a, b []word.ProcID) []word.ProcID {
	if a == nil || b == nil {
		return nil
	}
	out := make([]word.ProcID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Decombine splits the reply to a combined request back into the replies to
// the two requests it was built from: ⟨id₁, val⟩ and ⟨id₂, f(val)⟩.
func Decombine(rec Record, reply Reply) (Reply, Reply) {
	if reply.ID != rec.ID1 {
		panic(fmt.Sprintf("core: decombining reply %v against record for id %d", reply, rec.ID1))
	}
	return Reply{ID: rec.ID1, Val: reply.Val},
		Reply{ID: rec.ID2, Val: rec.F.Apply(reply.Val)}
}

// CanDecombine reports whether the record is the one the reply answers.  A
// plain reply (no leaf list) answers any record keyed by its id, as on a
// healthy network.  An exact reply answers only records whose second id
// appears among its leaves: a stale record — minted when a combined message
// was later dropped and its leaves retransmitted separately — does not, and
// must stay buffered (it is harmless; see WaitBuffer.PopMatch).  A one-leaf
// exact reply (ExactReply) answers no record at all.
func CanDecombine(rec Record, reply Reply) bool {
	if reply.Leaves == nil {
		return true
	}
	_, ok := reply.Leaf(rec.ID2)
	return ok
}

// DecombineExact splits an exact reply using the memory's exact per-leaf values
// rather than re-applying the record's mapping.  Both halves inherit the
// incoming leaf list and attempt so decombining recurses correctly through
// nested records.  Callers must have checked CanDecombine.
func DecombineExact(rec Record, reply Reply) (Reply, Reply) {
	if reply.Leaves == nil {
		return Decombine(rec, reply)
	}
	if reply.ID != rec.ID1 {
		panic(fmt.Sprintf("core: decombining reply %v against record for id %d", reply, rec.ID1))
	}
	v2, ok := reply.Leaf(rec.ID2)
	if !ok {
		panic(fmt.Sprintf("core: DecombineExact for id %d without its leaf value", rec.ID2))
	}
	v1 := reply.Val
	if lv, ok := reply.Leaf(rec.ID1); ok {
		v1 = lv
	}
	return Reply{ID: rec.ID1, Val: v1, Attempt: reply.Attempt, Leaves: reply.Leaves},
		Reply{ID: rec.ID2, Val: v2, Attempt: reply.Attempt, Leaves: reply.Leaves}
}
