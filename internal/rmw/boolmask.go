package rmw

import (
	"fmt"

	"combining/internal/word"
)

// BoolUnary names the four Boolean functions on one variable (Section 5.3):
// the constant functions 0 and 1, the identity x, and complement x̄.  The
// associated RMW operations are test-and-clear, test-and-set, load, and
// test-and-complement.
type BoolUnary uint8

const (
	// BLoad is the identity x (a one-bit load).
	BLoad BoolUnary = iota + 1
	// BClear is the constant 0 (test-and-clear).
	BClear
	// BSet is the constant 1 (test-and-set).
	BSet
	// BComp is complement x̄ (test-and-complement).
	BComp
)

// String returns the operation name used in the paper's 4×4 table.
func (u BoolUnary) String() string {
	switch u {
	case BLoad:
		return "load"
	case BClear:
		return "clear"
	case BSet:
		return "set"
	case BComp:
		return "comp"
	default:
		return fmt.Sprintf("bool(%d)", uint8(u))
	}
}

// BoolUnaries lists the four operations in the paper's table order.
var BoolUnaries = []BoolUnary{BLoad, BClear, BSet, BComp}

// Bool is the bit-vector Boolean family of Section 5.3: per bit position it
// applies one of the four unary Boolean functions.  A mapping is encoded as
// two masks with
//
//	f(x) = (x AND a) XOR b
//
// so per bit: a=1,b=0 is load; a=0,b=0 is clear; a=0,b=1 is set; a=1,b=1 is
// complement.  "Mappings on bit vectors of length n are represented by 2n
// bits" — exactly the two masks.  The family is closed under composition:
//
//	f₂(f₁(x)) = (x AND a₁a₂) XOR ((b₁ AND a₂) XOR b₂)
//
// All 16 binary Boolean operations fetch-and-θ(X, a) reduce to members of
// this family once the operand a is fixed, which is the paper's argument
// that every Boolean operation is combinable.
type Bool struct {
	A uint64 // AND mask
	B uint64 // XOR mask
}

var _ Mapping = Bool{}

// BoolOf builds the bit-vector mapping that applies u to every bit.
func BoolOf(u BoolUnary) Bool {
	switch u {
	case BLoad:
		return Bool{A: ^uint64(0)}
	case BClear:
		return Bool{}
	case BSet:
		return Bool{B: ^uint64(0)}
	case BComp:
		return Bool{A: ^uint64(0), B: ^uint64(0)}
	default:
		panic("rmw: unknown Boolean unary " + u.String())
	}
}

// BoolSetBits returns the mapping that sets the bits of mask (multiple
// locking acquires several locks in one RMW; Section 5.3).
func BoolSetBits(mask uint64) Bool { return Bool{A: ^mask, B: mask} }

// BoolClearBits returns the mapping that clears the bits of mask.
func BoolClearBits(mask uint64) Bool { return Bool{A: ^mask} }

// BoolComplementBits returns the mapping that flips the bits of mask.
func BoolComplementBits(mask uint64) Bool { return Bool{A: ^uint64(0), B: mask} }

// PartialStore returns the mapping that stores v into the bit positions of
// mask and leaves the rest of the word untouched:
//
//	f(x) = (x AND NOT mask) OR (v AND mask)
//
// This is Section 5.1's observation that combining byte or half-word
// stores "will require introducing store operations that affect any
// subset of bytes in a word" — and the subset stores are exactly members
// of the Section 5.3 mask family, so they combine with each other, with
// full-word stores, and with loads for free.
func PartialStore(mask, v uint64) Bool {
	return Bool{A: ^mask, B: v & mask}
}

// StoreByte stores the low 8 bits of v into byte lane i (0 ≤ i < 8).
func StoreByte(i uint, v uint64) Bool {
	if i > 7 {
		panic("rmw: byte lane out of range")
	}
	return PartialStore(0xff<<(8*i), v<<(8*i))
}

// BitOf classifies the mapping's action on bit i as one of the four unary
// operations.
func (m Bool) BitOf(i uint) BoolUnary {
	a := m.A >> i & 1
	b := m.B >> i & 1
	switch {
	case a == 1 && b == 0:
		return BLoad
	case a == 0 && b == 0:
		return BClear
	case a == 0 && b == 1:
		return BSet
	default:
		return BComp
	}
}

// Apply computes (x AND a) XOR b, preserving the tag.
func (m Bool) Apply(w word.Word) word.Word {
	return word.Word{Val: int64(uint64(w.Val)&m.A ^ m.B), Tag: w.Tag}
}

// Kind reports KindBool.
func (m Bool) Kind() Kind { return KindBool }

// EncodedBits is an opcode byte plus the two masks (2w bits for w-bit
// words, matching the paper's bound).
func (m Bool) EncodedBits() int { return 8 + 128 }

// String renders the masks, or the unary name when the mapping is uniform
// across bits.
func (m Bool) String() string {
	u := m.BitOf(0)
	uniform := true
	for i := uint(1); i < 64 && uniform; i++ {
		uniform = m.BitOf(i) == u
	}
	if uniform {
		return u.String()
	}
	return fmt.Sprintf("bool(a=%#x,b=%#x)", m.A, m.B)
}

// compose implements the closed-form mask composition.
func (m Bool) compose(g Mapping) (Mapping, bool) {
	gb, ok := g.(Bool)
	if !ok {
		return nil, false
	}
	return Bool{
		A: m.A & gb.A,
		B: m.B&gb.A ^ gb.B,
	}, true
}

func (m Bool) composable(g Mapping) bool {
	_, ok := g.(Bool)
	return ok
}

// ComposeBoolUnary returns the entry of the paper's 4×4 composition table:
// the operation equivalent to f followed by g.  It is derived from the mask
// algebra, not hand-coded; the test suite checks it against the table
// printed in Section 5.3.
func ComposeBoolUnary(f, g BoolUnary) BoolUnary {
	h, ok := Compose(BoolOf(f), BoolOf(g))
	if !ok {
		panic("rmw: Boolean unaries must compose")
	}
	return h.(Bool).BitOf(0)
}
