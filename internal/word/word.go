// Package word defines the basic data types shared by every layer of the
// combining memory system: memory words (a 64-bit value plus a small state
// tag), shared-memory addresses, and the identifiers that tie read-modify-
// write requests to their replies.
//
// The paper (Kruskal, Rudolph, Snir; TOPLAS 1988) models memory as an array
// of cells, each holding a value that RMW mappings transform.  Section 5.5
// (full/empty bits) and Section 5.6 (data-level synchronization) extend the
// cell with a small state tag; carrying the tag in every Word lets a single
// Mapping interface cover both the plain and the tagged families.
package word

import (
	"fmt"
	"strconv"
)

// Tag is the synchronization state attached to a memory word.  Plain
// (untagged) mapping families ignore it.  For full/empty-bit memory
// (Section 5.5) the tag is 0 (empty) or 1 (full); for data-level
// synchronization (Section 5.6) it ranges over the states of the
// controlling automaton.
type Tag uint8

// Standard tags for full/empty-bit memory.
const (
	Empty Tag = 0
	Full  Tag = 1
)

// MaxStates bounds the number of automaton states a tag can encode.  The
// paper notes that data-level synchronization is tractable only when the
// state set is small; 256 states is far beyond anything a combined request
// could usefully carry, and keeps Tag a single byte on the wire.
const MaxStates = 256

// Word is the content of one shared-memory cell: a 64-bit integer value and
// a state tag.  The zero Word is value 0 in the empty/initial state, which
// is the conventional initial memory content throughout the paper's
// examples.
type Word struct {
	Val int64
	Tag Tag
}

// W is shorthand for an untagged word holding v.
func W(v int64) Word { return Word{Val: v} }

// WT builds a tagged word.
func WT(v int64, t Tag) Word { return Word{Val: v, Tag: t} }

// String renders the word; untagged words print as a bare integer.
func (w Word) String() string {
	if w.Tag == 0 {
		return strconv.FormatInt(w.Val, 10)
	}
	return fmt.Sprintf("%d/s%d", w.Val, w.Tag)
}

// Addr names one shared-memory cell.  The memory system interleaves
// addresses across modules; see internal/memory.
type Addr uint32

// ProcID identifies a processor (equivalently, a network source port).
type ProcID int32

// ReqID uniquely identifies a request within one machine execution.  The
// paper notes the address may be folded into the identifier; we keep ids
// globally unique to simplify wait-buffer matching when a processor has
// several outstanding requests to one location.
type ReqID int64

// NoReq is the zero ReqID, never assigned to a real request.
const NoReq ReqID = 0

// IDGen hands out unique request identifiers.  It is not safe for
// concurrent use.  The injectors of different ports may run at the same
// time (engine.Injector), so each port takes its own id space from
// Partition rather than sharing one generator.
type IDGen struct {
	next ReqID
}

// NewIDGen returns a generator whose first id is 1 (NoReq is reserved).
func NewIDGen() *IDGen { return &IDGen{next: 1} }

// Next returns a fresh identifier.
func (g *IDGen) Next() ReqID {
	id := g.next
	g.next++
	return id
}

// Partition returns a generator producing ids congruent to p modulo n,
// giving n issuers disjoint id spaces without shared state.
func Partition(p, n int) *IDGen {
	if n <= 0 || p < 0 || p >= n {
		panic("word: invalid id partition")
	}
	return &IDGen{next: ReqID(p) + ReqID(n)}
}

// NextPartitioned advances a partitioned generator by its stride.  The
// stride is recovered from the id itself, so the generator stays a single
// int; callers must use the same n they partitioned with.
func (g *IDGen) NextPartitioned(n int) ReqID {
	id := g.next
	g.next += ReqID(n)
	return id
}
