package rmw

import (
	"fmt"

	"combining/internal/word"
)

// Op names an associative binary operation θ for the fetch-and-θ family of
// Section 5.2: fetch-and-θ(X, a) = RMW(X, θ_a) with θ_a(x) = x θ a.
// Because θ is associative, θ_a ∘ θ_b = θ_{aθb}, so the family is closed
// under composition and a mapping is encoded by the single operand a.
type Op uint8

const (
	// OpAdd is fetch-and-add, the Ultracomputer/RP3 primitive.
	OpAdd Op = iota + 1
	// OpAnd is fetch-and-AND (bitwise).
	OpAnd
	// OpOr is fetch-and-OR; fetch-and-OR(X, 1) is test-and-set
	// (Section 5.2).
	OpOr
	// OpXor is fetch-and-XOR (bitwise exclusive or).
	OpXor
	// OpMin is fetch-and-min, "useful for allocation with priorities"
	// (Section 5.2).
	OpMin
	// OpMax is fetch-and-max.
	OpMax
)

// String returns the θ name.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// eval computes x θ a.  Addition wraps modulo 2⁶⁴ as machine arithmetic
// does; wrap-around addition is associative, so combining remains exact
// (the guard-bit discussion of Section 5.4 concerns detecting overflow, not
// correctness of the wrapped result).
func (o Op) eval(x, a int64) int64 {
	switch o {
	case OpAdd:
		return x + a
	case OpAnd:
		return x & a
	case OpOr:
		return x | a
	case OpXor:
		return x ^ a
	case OpMin:
		if a < x {
			return a
		}
		return x
	case OpMax:
		if a > x {
			return a
		}
		return x
	default:
		panic("rmw: unknown associative op " + o.String())
	}
}

// Assoc is the mapping θ_a of a fetch-and-θ request.
type Assoc struct {
	Op Op
	A  int64
}

var _ Mapping = Assoc{}

// FetchAdd returns the fetch-and-add mapping +_a.
func FetchAdd(a int64) Assoc { return Assoc{Op: OpAdd, A: a} }

// FetchOr returns the fetch-and-OR mapping.
func FetchOr(a int64) Assoc { return Assoc{Op: OpOr, A: a} }

// FetchAnd returns the fetch-and-AND mapping.
func FetchAnd(a int64) Assoc { return Assoc{Op: OpAnd, A: a} }

// FetchXor returns the fetch-and-XOR mapping.
func FetchXor(a int64) Assoc { return Assoc{Op: OpXor, A: a} }

// FetchMin returns the fetch-and-min mapping.
func FetchMin(a int64) Assoc { return Assoc{Op: OpMin, A: a} }

// FetchMax returns the fetch-and-max mapping.
func FetchMax(a int64) Assoc { return Assoc{Op: OpMax, A: a} }

// TestAndSet is fetch-and-OR(X, 1) on a Boolean word (Section 5.2).
func TestAndSet() Assoc { return FetchOr(1) }

// Apply returns θ_a(w) = w θ a, preserving the tag.
func (m Assoc) Apply(w word.Word) word.Word {
	return word.Word{Val: m.Op.eval(w.Val, m.A), Tag: w.Tag}
}

// Kind reports KindAssoc.
func (m Assoc) Kind() Kind { return KindAssoc }

// EncodedBits is an opcode byte plus the operand word.
func (m Assoc) EncodedBits() int { return 8 + 64 }

// String renders the mapping in fetch-and-θ notation.
func (m Assoc) String() string { return fmt.Sprintf("%s_%d", m.Op, m.A) }

// compose implements θ_a ∘ θ_b = θ_{aθb} for matching θ.  Mixed θ (for
// example fetch-and-add with fetch-and-min) do not form a small closed
// family and are left uncombined.
func (m Assoc) compose(g Mapping) (Mapping, bool) {
	ga, ok := g.(Assoc)
	if !ok || ga.Op != m.Op {
		return nil, false
	}
	return Assoc{Op: m.Op, A: m.Op.eval(m.A, ga.A)}, true
}

func (m Assoc) composable(g Mapping) bool {
	ga, ok := g.(Assoc)
	return ok && ga.Op == m.Op
}
