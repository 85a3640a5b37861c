// Package rmw implements the read-modify-write formalism of Kruskal,
// Rudolph and Snir (TOPLAS 1988, Section 2) and the catalogue of tractable
// mapping families from Section 5.
//
// An RMW operation RMW(X, f) atomically returns the old value of the shared
// variable X and replaces it with f(X).  A Mapping is the f: a transformation
// on memory words that can be applied at the memory module, composed inside
// the network when two requests to the same cell are combined, and encoded
// in a bounded number of bits (the paper's tractability conditions).
//
// Composition follows the paper's convention (Section 4.2, footnote 3):
//
//	f∘g(x) = g(f(x))
//
// i.e. Compose(f, g) is "f happens first, then g", matching the order in
// which the two combined requests are serialized.
package rmw

import (
	"fmt"

	"combining/internal/word"
)

// Kind identifies a mapping family.  Two mappings combine only if the
// package knows a closed, tractable composition for their pair of kinds;
// mappings of unrelated kinds are simply not combined (the paper notes that
// partial combining is always correct).
type Kind uint8

const (
	// KindLoad is the identity mapping id (a load).
	KindLoad Kind = iota + 1
	// KindConst is the constant mapping I_v (a store or swap).
	KindConst
	// KindAssoc is fetch-and-θ for an associative θ (Section 5.2).
	KindAssoc
	// KindBool is the Boolean bit-vector family (x AND a) XOR b
	// (Section 5.3).
	KindBool
	// KindAffine is x → ax+b with checked integer arithmetic
	// (Section 5.4, additions and multiplications only).
	KindAffine
	// KindMoebius is x → (ax+b)/(cx+d) over float64 (Section 5.4, the
	// full arithmetic family).
	KindMoebius
	// KindTable is a data-level synchronization state table
	// (Sections 5.5 and 5.6); full/empty-bit operations are tables on
	// two states.
	KindTable
)

// String returns the family name.
func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindConst:
		return "const"
	case KindAssoc:
		return "assoc"
	case KindBool:
		return "bool"
	case KindAffine:
		return "affine"
	case KindMoebius:
		return "moebius"
	case KindTable:
		return "table"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Mapping is an updating transformation f in RMW(X, f).
//
// Implementations must be immutable values: Apply and composition never
// mutate the receiver, so mappings can be shared freely between goroutines
// and retained in switch wait buffers.
type Mapping interface {
	// Apply returns f(w).
	Apply(w word.Word) word.Word

	// Kind reports the mapping's family.
	Kind() Kind

	// EncodedBits is the size of the mapping's wire encoding in bits,
	// used by the tractability accounting (the paper requires
	// |φ(f)| = O(w) for w-bit words).
	EncodedBits() int

	// String renders the mapping in the paper's notation.
	String() string

	// compose returns h = f∘g (f first, then g) for a g of a kind this
	// family knows how to absorb, or ok=false when the pair is not
	// combinable.  Callers use the package-level Compose, which also
	// handles the universal identity/constant rules.
	compose(g Mapping) (Mapping, bool)

	// composable reports whether compose(g) would succeed, without
	// building the result.  Combinable is its package-level caller.
	composable(g Mapping) bool
}

// TagSensitive reports whether a mapping reads or writes the word's state
// tag.  Plain families (load, const, assoc, bool, affine, moebius) are tag
// oblivious; state tables are tag sensitive.  The universal I_v rules only
// hold for tag-oblivious mappings.
func TagSensitive(m Mapping) bool { return m.Kind() == KindTable }

// Compose returns the combined mapping f∘g — the single transformation
// equivalent to executing f and then g — and whether the pair is
// combinable.  It implements the universal rules of Section 5.1:
//
//	f ∘ id  = f
//	id ∘ g  = g
//	f ∘ I_v = I_v          (a later store wins)
//	I_v ∘ g = I_{g(v)}     (the store value is transformed locally)
//
// and otherwise delegates to the family-specific composition.
func Compose(f, g Mapping) (Mapping, bool) {
	if f == nil || g == nil {
		return nil, false
	}
	// The constant rules must run before the identity short-circuits:
	// id∘I_v is a store whose combined message still has to fetch the
	// old value for the load's reply — i.e. a swap, exactly the
	// "load followed by store" entry of the Section 5.1 table.
	if cg, ok := g.(Const); ok && !TagSensitive(f) {
		// f ∘ I_v = I_v: whatever f does, the store overwrites it.
		// (Tag-sensitive f may still change the tag, so the rule only
		// applies to tag-oblivious f; tables absorb constants in
		// their own compose.)
		//
		// The combined message must fetch the old value exactly when
		// the decombining switch needs it to answer the represented
		// requests: the first request's reply is val itself, and the
		// second's is f(val), which is val independent only when f is
		// a constant.  This rule is what turns "load followed by
		// store" into a swap in the Section 5.1 table.
		// Combined reply slots: f's reply is val, g's reply is f(val).
		// When f is itself a plain store, f(val) is a known constant
		// and no value need return; otherwise val must come back.
		return Const{V: cg.V, NeedOld: NeedsValue(f)}, true
	}
	if cf, ok := f.(Const); ok && !TagSensitive(g) {
		// I_v ∘ g = I_{g(v)}: apply g to the stored constant now.
		// g is tag oblivious, so g(v)'s value is well defined without
		// knowing the tag.  The second request's reply f(val) is the
		// constant v, so only the first request can need the fetched
		// value.
		gv := g.Apply(word.W(cf.V))
		return Const{V: gv.Val, NeedOld: cf.NeedOld}, true
	}
	// id ∘ g = g and f ∘ id = f hold for every family, tagged or not,
	// because Load is a true identity on the full (value, tag) pair, and
	// a load's reply is the fetched value itself.
	if _, ok := f.(Load); ok {
		return g, true
	}
	if _, ok := g.(Load); ok {
		return f, true
	}
	return f.compose(g)
}

// NeedsValue reports whether the reply to a request carrying m must contain
// the value fetched from memory.  Only a plain store (a Const whose old
// value is ignored) can accept a bare acknowledgment; every other mapping's
// reply is meaningful.  Section 5.1's traffic argument — combining never
// transmits more value slots than the uncombined requests would — rests on
// this distinction.
func NeedsValue(m Mapping) bool {
	c, ok := m.(Const)
	return !ok || c.NeedOld
}

// Load is the identity mapping id: RMW(X, id) is a load (Section 2).
type Load struct{}

var _ Mapping = Load{}

// Apply returns w unchanged.
func (Load) Apply(w word.Word) word.Word { return w }

// Kind reports KindLoad.
func (Load) Kind() Kind { return KindLoad }

// EncodedBits is the opcode-only cost of a load.
func (Load) EncodedBits() int { return 8 }

// String renders the identity mapping.
func (Load) String() string { return "id" }

func (Load) compose(g Mapping) (Mapping, bool) { return g, true }
func (Load) composable(Mapping) bool           { return true }

// Const is the constant mapping I_v: RMW(X, I_v) stores v.  When the old
// value is wanted (NeedOld) the operation is a swap; when it is ignored the
// operation is a plain store whose reply is a bare acknowledgment.  The
// distinction does not change memory semantics but drives the traffic
// accounting of Section 5.1: store replies need not carry a value.
type Const struct {
	V       int64
	NeedOld bool
}

var _ Mapping = Const{}

// StoreOf returns the store mapping I_v with the reply value suppressed.
func StoreOf(v int64) Const { return Const{V: v} }

// SwapOf returns the swap mapping I_v with the old value returned.
func SwapOf(v int64) Const { return Const{V: v, NeedOld: true} }

// Apply replaces the value and preserves the tag (a plain store does not
// touch the full/empty bit; Section 5.5).
func (c Const) Apply(w word.Word) word.Word { return word.Word{Val: c.V, Tag: w.Tag} }

// Kind reports KindConst.
func (c Const) Kind() Kind { return KindConst }

// EncodedBits is one opcode byte plus the stored word.
func (c Const) EncodedBits() int { return 8 + 64 }

// String renders the constant mapping.
func (c Const) String() string {
	if c.NeedOld {
		return fmt.Sprintf("swap(%d)", c.V)
	}
	return fmt.Sprintf("store(%d)", c.V)
}

func (c Const) compose(g Mapping) (Mapping, bool) {
	// Reached only for tag-sensitive g: a plain store followed by a
	// tagged operation combines as a two-step state table (this is the
	// Section 5.5 case of a store meeting a store-if-clear-and-set).
	if gt, ok := g.(Table); ok {
		ct, _ := asTable(c, gt.States())
		return ct.compose(gt)
	}
	return nil, false
}

// composable mirrors compose: a plain store absorbs only a table, and every
// table has a state count the store can be spread over.
func (c Const) composable(g Mapping) bool {
	_, ok := g.(Table)
	return ok
}

// ComposeAll folds Compose over a serial chain f₁, …, fₙ, returning
// f₁∘…∘fₙ.  It reports ok=false as soon as two neighbours fail to combine.
// An empty chain yields the identity.
func ComposeAll(fs ...Mapping) (Mapping, bool) {
	var acc Mapping = Load{}
	for _, f := range fs {
		var ok bool
		acc, ok = Compose(acc, f)
		if !ok {
			return nil, false
		}
	}
	return acc, true
}

// Combinable reports whether two mappings can combine, without building the
// combined mapping: the same rules as Compose in the same order, each
// reduced to its condition, so it allocates nothing and
// Combinable(f, g) == (Compose(f, g) succeeds) for every pair.  The queue
// scan asks it once per same-address arrival, which on a saturated network
// with combining off is every held request every cycle.
func Combinable(f, g Mapping) bool {
	if f == nil || g == nil {
		return false
	}
	if _, ok := g.(Const); ok && !TagSensitive(f) {
		return true
	}
	if _, ok := f.(Const); ok && !TagSensitive(g) {
		return true
	}
	if _, ok := f.(Load); ok {
		return true
	}
	if _, ok := g.(Load); ok {
		return true
	}
	return f.composable(g)
}
