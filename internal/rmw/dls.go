package rmw

import (
	"fmt"
	"sort"
	"strings"

	"combining/internal/word"
)

// Data-level synchronization (Sections 5.5 and 5.6).
//
// A variable is a pair (X, s): a value and a state tag drawn from the state
// set of a controlling automaton A = ⟨Φ, S, δ⟩.  An operation issued in
// state s either fails — memory is untouched, and the processor learns of
// the failure from the old tag carried in the reply — or stores a value
// (or keeps X) and moves the tag to δ(s).
//
// A Table is the canonical closed form of such an operation: one transition
// per state.  It is exactly the paper's combined-request form
// ⟨X, (v₁,V₁,δ₁), …, (v_k,V_k,δ_k)⟩ re-indexed by state: since the Vᵢ are
// disjoint, the combined behaviour is a function of the current state
// alone.  A combined request therefore never carries more than |S| store
// values (Section 5.6), and for full/empty bits (|S| = 2) never more than
// two (Section 5.5).

// Action says what a transition does to the value part of the cell.
type Action uint8

const (
	// Keep leaves the value unchanged (loads, and failed operations).
	Keep Action = iota + 1
	// Store replaces the value with the transition's V.
	Store
)

// Transition is one row of a Table: the behaviour when the cell is in a
// given state.
type Transition struct {
	// Next is the state after the operation.  A failed operation keeps
	// the current state.
	Next word.Tag
	// Act is what happens to the value.
	Act Action
	// V is the stored value when Act == Store.
	V int64
	// Fail marks the state as rejecting: memory is unchanged (Next and
	// Act are ignored) and the issuing processor interprets the reply's
	// old tag as a negative acknowledgment.  Fail transitions matter
	// for reply interpretation and for the store-value accounting; the
	// memory effect is identical to {Next: s, Act: Keep}.
	Fail bool
}

// Table is a data-level synchronization mapping: a total function on
// (value, state) pairs with one transition per automaton state.
type Table struct {
	// T has one transition per state; the tag indexes it.  Tables are
	// immutable after construction: composition allocates fresh slices.
	T []Transition
	// Name is an optional operation name for rendering (the full/empty
	// constructors set it; composed tables derive one).
	Name string
}

var _ Mapping = Table{}

// NewTable builds a table over n states from the given transitions.
func NewTable(name string, trans []Transition) Table {
	if len(trans) == 0 || len(trans) > word.MaxStates {
		panic("rmw: table must have between 1 and MaxStates transitions")
	}
	t := make([]Transition, len(trans))
	copy(t, trans)
	return Table{T: t, Name: name}
}

// States returns |S|, the number of automaton states.
func (m Table) States() int { return len(m.T) }

// At returns the transition for state s.
func (m Table) At(s word.Tag) Transition {
	if int(s) >= len(m.T) {
		// A cell tag outside the automaton's state set is a usage
		// error; treat it as a failing state so memory is never
		// corrupted.
		return Transition{Next: s, Act: Keep, Fail: true}
	}
	return m.T[s]
}

// Apply executes the operation on the cell.
func (m Table) Apply(w word.Word) word.Word {
	tr := m.At(w.Tag)
	if tr.Fail {
		return w
	}
	out := word.Word{Val: w.Val, Tag: tr.Next}
	if tr.Act == Store {
		out.Val = tr.V
	}
	return out
}

// Failed reports whether an operation that observed old state s was
// rejected; processors call this on the reply's tag.
func (m Table) Failed(oldTag word.Tag) bool { return m.At(oldTag).Fail }

// Kind reports KindTable.
func (m Table) Kind() Kind { return KindTable }

// EncodedBits counts an opcode byte, a state-count byte, and per state a
// next-state byte, two flag bits, and a value word when one is stored.
// The count grows with the number of *distinct* store values, matching the
// paper's traffic accounting.
func (m Table) EncodedBits() int {
	bits := 16
	seen := make(map[int64]bool)
	for _, tr := range m.T {
		bits += 10
		if tr.Act == Store && !tr.Fail && !seen[tr.V] {
			seen[tr.V] = true
			bits += 64
		}
	}
	return bits
}

// StoreValues returns the distinct values a combined request must carry,
// in ascending order.  Section 5.6 bounds their number by |S|.
func (m Table) StoreValues() []int64 {
	seen := make(map[int64]bool)
	for _, tr := range m.T {
		if tr.Act == Store && !tr.Fail {
			seen[tr.V] = true
		}
	}
	vals := make([]int64, 0, len(seen))
	for v := range seen {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// String renders the table; named operations render as their name.
func (m Table) String() string {
	if m.Name != "" {
		return m.Name
	}
	var b strings.Builder
	b.WriteString("table{")
	for s, tr := range m.T {
		if s > 0 {
			b.WriteString(", ")
		}
		switch {
		case tr.Fail:
			fmt.Fprintf(&b, "%d:fail", s)
		case tr.Act == Store:
			fmt.Fprintf(&b, "%d:(%d,%d)", s, tr.V, tr.Next)
		default:
			fmt.Fprintf(&b, "%d:(keep,%d)", s, tr.Next)
		}
	}
	b.WriteString("}")
	return b.String()
}

// compose combines two table operations over the same state set, and also
// absorbs the untagged Const (a plain store, which keeps the state) and the
// untagged tag-oblivious families when they can be expressed state-wise.
func (m Table) compose(g Mapping) (Mapping, bool) {
	gt, ok := asTable(g, m.States())
	if !ok {
		return nil, false
	}
	if gt.States() != m.States() {
		return nil, false
	}
	out := make([]Transition, m.States())
	for s := range out {
		f := m.At(word.Tag(s))
		// The cell after f (failing f leaves the cell untouched).
		midState := word.Tag(s)
		midAct, midV := Keep, int64(0)
		if !f.Fail {
			midState = f.Next
			midAct, midV = f.Act, f.V
		}
		gTr := gt.At(midState)
		tr := Transition{}
		if gTr.Fail {
			// g does nothing further; the combined effect is f's.
			tr.Next = midState
			tr.Act, tr.V = midAct, midV
		} else {
			tr.Next = gTr.Next
			if gTr.Act == Store {
				tr.Act, tr.V = Store, gTr.V
			} else {
				tr.Act, tr.V = midAct, midV
			}
		}
		// The combined operation as a whole never "fails": it always
		// runs both steps' total effect.  Individual success is
		// recovered from the old tags at decombining time.
		out[s] = tr
	}
	return Table{T: out}, true
}

// composable mirrors compose: g must be expressible as a table (asTable's
// three cases) over the same state set.
func (m Table) composable(g Mapping) bool {
	switch gg := g.(type) {
	case Table:
		return gg.States() == m.States()
	case Const, Load:
		return true
	default:
		return false
	}
}

// asTable converts g into a table over n states when possible: tables pass
// through, a Const v becomes "store v, keep state" in every state, and a
// Load becomes the identity table.  Other untagged families would need the
// value part to depend on the old value *and* the state, which the combined
// form cannot carry, so they do not combine with tagged operations.
func asTable(g Mapping, n int) (Table, bool) {
	switch gg := g.(type) {
	case Table:
		return gg, true
	case Const:
		trans := make([]Transition, n)
		for s := range trans {
			trans[s] = Transition{Next: word.Tag(s), Act: Store, V: gg.V}
		}
		return Table{T: trans}, true
	case Load:
		trans := make([]Transition, n)
		for s := range trans {
			trans[s] = Transition{Next: word.Tag(s), Act: Keep}
		}
		return Table{T: trans}, true
	default:
		return Table{}, false
	}
}

// TableEqual reports semantic equality of two tables: same state count and
// identical memory effect in every state.  Names and failure markings on
// states with identical effects are compared too, because failure changes
// how replies are interpreted.
func TableEqual(a, b Table) bool {
	if a.States() != b.States() {
		return false
	}
	for s := 0; s < a.States(); s++ {
		ta, tb := a.At(word.Tag(s)), b.At(word.Tag(s))
		if ta.Fail != tb.Fail {
			return false
		}
		if ta.Fail {
			continue
		}
		if ta.Next != tb.Next || ta.Act != tb.Act {
			return false
		}
		if ta.Act == Store && ta.V != tb.V {
			return false
		}
	}
	return true
}
