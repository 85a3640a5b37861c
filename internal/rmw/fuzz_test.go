package rmw

import (
	"testing"

	"combining/internal/word"
)

// FuzzDecode: arbitrary bytes never panic the decoder, and anything that
// decodes successfully re-encodes to semantically the same mapping.
func FuzzDecode(f *testing.F) {
	for _, m := range []Mapping{
		Load{}, StoreOf(1), SwapOf(-1), FetchAdd(42), Bool{A: 3, B: 5},
		Affine{A: 2, B: 3}, Moebius{A: 1, D: 1}, FEStoreIfClearSet(9),
	} {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		re := Encode(m)
		m2, _, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		for _, x := range []word.Word{word.W(0), word.W(-5), word.WT(7, word.Full)} {
			if m.Apply(x) != m2.Apply(x) {
				t.Fatalf("round trip changed semantics at %v: %v vs %v", x, m, m2)
			}
		}
	})
}

// FuzzComposeSemantics: for any two decodable mappings, a successful
// composition preserves serial semantics — bit for bit, which is why the
// float64 Möbius family is left out: its composition is a matrix product
// that rounds differently from applying the two functions in turn (§5.4's
// own caveat; TestMoebius* hold it to the exact rational version instead).
func FuzzComposeSemantics(f *testing.F) {
	f.Add(Encode(FetchAdd(3)), Encode(FetchAdd(4)), int64(10), uint8(0))
	f.Add(Encode(StoreOf(5)), Encode(Load{}), int64(-2), uint8(1))
	f.Add(Encode(FEStoreIfClearSet(1)), Encode(FELoadClear()), int64(7), uint8(1))
	f.Add(Encode(Bool{A: 1, B: 2}), Encode(Bool{A: 3, B: 4}), int64(99), uint8(0))
	f.Fuzz(func(t *testing.T, fb, gb []byte, xv int64, tag uint8) {
		fm, _, err1 := Decode(fb)
		gm, _, err2 := Decode(gb)
		if err1 != nil || err2 != nil {
			return
		}
		h, ok := Compose(fm, gm)
		if _, float := h.(Moebius); !ok || float {
			return
		}
		// A table only accepts tags within its state count (a stray tag is
		// a usage error, not a composition case): clamp to the smaller one.
		states := word.MaxStates
		for _, m := range []Mapping{fm, gm} {
			if tb, ok := m.(Table); ok {
				states = min(states, tb.States())
			}
		}
		x := word.Word{Val: xv, Tag: word.Tag(int(tag) % states)}
		want := gm.Apply(fm.Apply(x))
		if got := h.Apply(x); got != want {
			t.Fatalf("compose(%v, %v)(%v) = %v, want %v", fm, gm, x, got, want)
		}
	})
}

// FuzzComposeAssociative: the combining tree composes a queue's mappings
// in whatever grouping its switches meet them, so for any three decodable
// mappings both groupings, (f∘g)∘h and f∘(g∘h), wherever each composes,
// must agree pointwise with applying f, g and h in turn — and so with each
// other.  The float64 Möbius family is left out, as in
// FuzzComposeSemantics.
func FuzzComposeAssociative(f *testing.F) {
	f.Add(Encode(FetchAdd(3)), Encode(FetchAdd(4)), Encode(FetchAdd(-9)), int64(10), uint8(0))
	f.Add(Encode(StoreOf(5)), Encode(Load{}), Encode(SwapOf(2)), int64(-2), uint8(1))
	f.Add(Encode(Affine{A: 2, B: 3}), Encode(FetchAdd(1)), Encode(Affine{A: -1, B: 7}), int64(4), uint8(0))
	f.Add(Encode(FEStoreIfClearSet(1)), Encode(FELoadClear()), Encode(FEStoreIfClearSet(2)), int64(7), uint8(1))
	f.Add(Encode(Bool{A: 1, B: 2}), Encode(Bool{A: 3, B: 4}), Encode(Bool{A: 5, B: 6}), int64(99), uint8(0))
	f.Fuzz(func(t *testing.T, fb, gb, hb []byte, xv int64, tag uint8) {
		var ms [3]Mapping
		states := word.MaxStates
		for i, b := range [][]byte{fb, gb, hb} {
			m, _, err := Decode(b)
			if _, float := m.(Moebius); err != nil || float {
				return
			}
			if tb, ok := m.(Table); ok {
				states = min(states, tb.States())
			}
			ms[i] = m
		}
		fm, gm, hm := ms[0], ms[1], ms[2]
		x := word.Word{Val: xv, Tag: word.Tag(int(tag) % states)}
		want := hm.Apply(gm.Apply(fm.Apply(x)))
		group := func(a, b Mapping) (Mapping, bool) {
			c, ok := Compose(a, b)
			_, float := c.(Moebius)
			return c, ok && !float
		}
		if fg, ok := group(fm, gm); ok {
			if left, ok := group(fg, hm); ok && left.Apply(x) != want {
				t.Fatalf("(f∘g)∘h with f=%v g=%v h=%v at %v: %v, want %v", fm, gm, hm, x, left.Apply(x), want)
			}
		}
		if gh, ok := group(gm, hm); ok {
			if right, ok := group(fm, gh); ok && right.Apply(x) != want {
				t.Fatalf("f∘(g∘h) with f=%v g=%v h=%v at %v: %v, want %v", fm, gm, hm, x, right.Apply(x), want)
			}
		}
	})
}
