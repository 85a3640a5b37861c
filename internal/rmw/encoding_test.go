package rmw

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	mappings := []Mapping{
		Load{},
		StoreOf(42),
		SwapOf(-7),
		FetchAdd(123456789),
		FetchOr(0xff),
		FetchAnd(-1),
		FetchXor(1 << 62),
		FetchMin(-5),
		FetchMax(5),
		Bool{A: 0xdeadbeefcafef00d, B: 0x0123456789abcdef},
		Affine{A: -3, B: 9},
		Moebius{A: 1.5, B: -2.25, C: 0.125, D: 3},
		FELoad(),
		FELoadClear(),
		FEStoreSet(99),
		FEStoreIfClearSet(-99),
		FEStoreClear(1),
		FEStoreIfClearClear(2),
	}
	for _, m := range mappings {
		t.Run(m.String(), func(t *testing.T) {
			enc := Encode(m)
			got, n, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
			}
			// Tables decode without names; compare semantics.
			if wantT, isTable := m.(Table); isTable {
				gotT, ok := got.(Table)
				if !ok || !TableEqual(wantT, gotT) {
					t.Fatalf("table round trip: got %v, want %v", got, m)
				}
				return
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip: got %#v, want %#v", got, m)
			}
		})
	}
}

func TestDecodeConcatenated(t *testing.T) {
	var buf []byte
	ms := []Mapping{FetchAdd(1), StoreOf(2), Load{}, Bool{A: 3, B: 4}}
	for _, m := range ms {
		buf = AppendEncode(buf, m)
	}
	for i, want := range ms {
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("message %d: got %v, want %v", i, got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, _, err := Decode(nil); !errors.Is(err, ErrShortEncoding) {
			t.Fatalf("err = %v, want ErrShortEncoding", err)
		}
	})
	t.Run("unknown-opcode", func(t *testing.T) {
		if _, _, err := Decode([]byte{0xff}); !errors.Is(err, ErrUnknownEncoding) {
			t.Fatalf("err = %v, want ErrUnknownEncoding", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		full := Encode(FetchAdd(7))
		for cut := 1; cut < len(full); cut++ {
			if _, _, err := Decode(full[:cut]); !errors.Is(err, ErrShortEncoding) {
				t.Fatalf("cut=%d: err = %v, want ErrShortEncoding", cut, err)
			}
		}
	})
	t.Run("truncated-table", func(t *testing.T) {
		full := Encode(FEStoreIfClearSet(5))
		for cut := 1; cut < len(full); cut++ {
			if _, _, err := Decode(full[:cut]); !errors.Is(err, ErrShortEncoding) {
				t.Fatalf("cut=%d: err = %v, want ErrShortEncoding", cut, err)
			}
		}
	})
	t.Run("open-table", func(t *testing.T) {
		// Two states, the second stepping to a third that does not exist.
		buf := []byte{wireTable, 1, 0, 0, 2, 0}
		if _, _, err := Decode(buf); !errors.Is(err, ErrOpenTable) {
			t.Fatalf("err = %v, want ErrOpenTable", err)
		}
	})
	t.Run("bad-assoc-op", func(t *testing.T) {
		buf := bytes.Repeat([]byte{0}, 9)
		buf[0] = wireAssoc // op nibble 0 is invalid
		if _, _, err := Decode(buf); !errors.Is(err, ErrUnknownEncoding) {
			t.Fatalf("err = %v, want ErrUnknownEncoding", err)
		}
	})
}

// TestEncodedBitsHonest keeps the tractability accounting consistent with
// the actual wire encoding: EncodedBits must never understate the encoded
// size by more than the fixed overhead tables save by omitting values.
func TestEncodedBitsHonest(t *testing.T) {
	mappings := []Mapping{
		Load{}, StoreOf(1), SwapOf(1), FetchAdd(1),
		Bool{A: 1, B: 2}, Affine{A: 1, B: 2}, Moebius{A: 1, D: 1},
		FELoad(), FEStoreIfClearSet(9),
	}
	for _, m := range mappings {
		wire := len(Encode(m)) * 8
		if m.EncodedBits() < wire-16 || m.EncodedBits() > wire+32 {
			t.Errorf("%v: EncodedBits=%d but wire=%d bits", m, m.EncodedBits(), wire)
		}
	}
}

// TestTractability verifies the paper's size condition |φ(f)| = O(w) for
// every family: arbitrary-length composition chains never grow the
// encoding beyond the family's fixed bound.
func TestTractability(t *testing.T) {
	rng := newTestRand(23)
	families := []struct {
		name  string
		bound int // bits
		draw  func() Mapping
	}{
		{"load-store-swap", 8 + 64, func() Mapping { return randMapping(rng, rng.IntN(3)) }},
		{"fetch-add", 8 + 64, func() Mapping { return FetchAdd(int64(rng.IntN(100))) }},
		{"bool", 8 + 128, func() Mapping { return Bool{A: rng.Uint64(), B: rng.Uint64()} }},
		{"affine", 8 + 128, func() Mapping { return Affine{A: int64(rng.IntN(5)), B: int64(rng.IntN(100))} }},
		{"full-empty", 16 + 2*(10+64), func() Mapping {
			ops := feOps(int64(rng.IntN(100)))
			return ops[rng.IntN(len(ops))]
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			var acc Mapping = Load{}
			for i := 0; i < 64; i++ {
				next := fam.draw()
				var ok bool
				acc, ok = Compose(acc, next)
				if !ok {
					t.Fatalf("step %d: %v∘%v failed to combine", i, acc, next)
				}
				if acc.EncodedBits() > fam.bound {
					t.Fatalf("step %d: encoding grew to %d bits, bound %d",
						i, acc.EncodedBits(), fam.bound)
				}
			}
		})
	}
}
