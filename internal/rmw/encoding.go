package rmw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"combining/internal/word"
)

// Wire encoding of mappings.
//
// The paper's tractability conditions (Section 5) require that a mapping be
// representable in O(w) bits and that composition and application be cheap.
// This file realizes condition (1) concretely: every mapping family has a
// compact binary encoding, so a request message ⟨id, addr, f⟩ can actually
// be shipped through a packet-switched network.  The cycle simulator and
// the asynchronous network exchange decoded Mapping values for speed, but
// the encoding round-trip is property-tested and its size is what the
// traffic accounting charges.

// Encoding errors.
var (
	ErrShortEncoding   = errors.New("rmw: truncated mapping encoding")
	ErrUnknownEncoding = errors.New("rmw: unknown mapping opcode")
	ErrOpenTable       = errors.New("rmw: table transition leaves its state set")
)

const (
	wireLoad    = 0x01
	wireStore   = 0x02
	wireSwap    = 0x03
	wireAssoc   = 0x10 // + Op in low nibble
	wireBool    = 0x20
	wireAffine  = 0x30
	wireMoebius = 0x31
	wireTable   = 0x40

	wireTrFail  = 0x1
	wireTrStore = 0x2
)

// AppendEncode appends the wire form of m to buf and returns the extended
// slice.
func AppendEncode(buf []byte, m Mapping) []byte {
	le := binary.LittleEndian
	switch v := m.(type) {
	case Load:
		return append(buf, wireLoad)
	case Const:
		op := byte(wireStore)
		if v.NeedOld {
			op = wireSwap
		}
		buf = append(buf, op)
		return le.AppendUint64(buf, uint64(v.V))
	case Assoc:
		buf = append(buf, wireAssoc|byte(v.Op))
		return le.AppendUint64(buf, uint64(v.A))
	case Bool:
		buf = append(buf, wireBool)
		buf = le.AppendUint64(buf, v.A)
		return le.AppendUint64(buf, v.B)
	case Affine:
		buf = append(buf, wireAffine)
		buf = le.AppendUint64(buf, uint64(v.A))
		return le.AppendUint64(buf, uint64(v.B))
	case Moebius:
		buf = append(buf, wireMoebius)
		for _, c := range [4]float64{v.A, v.B, v.C, v.D} {
			buf = le.AppendUint64(buf, math.Float64bits(c))
		}
		return buf
	case Table:
		buf = append(buf, wireTable, byte(v.States()-1))
		for _, tr := range v.T {
			flags := byte(0)
			if tr.Fail {
				flags |= wireTrFail
			} else if tr.Act == Store {
				flags |= wireTrStore
			}
			buf = append(buf, byte(tr.Next), flags)
			if flags&wireTrStore != 0 {
				buf = le.AppendUint64(buf, uint64(tr.V))
			}
		}
		return buf
	default:
		panic(fmt.Sprintf("rmw: cannot encode mapping of kind %v", m.Kind()))
	}
}

// Encode returns the wire form of m.
func Encode(m Mapping) []byte { return AppendEncode(nil, m) }

// Decode parses one mapping from the front of buf, returning it and the
// number of bytes consumed.
func Decode(buf []byte) (Mapping, int, error) {
	if len(buf) == 0 {
		return nil, 0, ErrShortEncoding
	}
	le := binary.LittleEndian
	op := buf[0]
	word64 := func(off int) (int64, bool) {
		if len(buf) < off+8 {
			return 0, false
		}
		return int64(le.Uint64(buf[off:])), true
	}
	switch {
	case op == wireLoad:
		return Load{}, 1, nil
	case op == wireStore || op == wireSwap:
		v, ok := word64(1)
		if !ok {
			return nil, 0, ErrShortEncoding
		}
		return Const{V: v, NeedOld: op == wireSwap}, 9, nil
	case op&0xf0 == wireAssoc:
		o := Op(op & 0x0f)
		if o < OpAdd || o > OpMax {
			return nil, 0, ErrUnknownEncoding
		}
		a, ok := word64(1)
		if !ok {
			return nil, 0, ErrShortEncoding
		}
		return Assoc{Op: o, A: a}, 9, nil
	case op == wireBool:
		a, ok1 := word64(1)
		b, ok2 := word64(9)
		if !ok1 || !ok2 {
			return nil, 0, ErrShortEncoding
		}
		return Bool{A: uint64(a), B: uint64(b)}, 17, nil
	case op == wireAffine:
		a, ok1 := word64(1)
		b, ok2 := word64(9)
		if !ok1 || !ok2 {
			return nil, 0, ErrShortEncoding
		}
		return Affine{A: a, B: b}, 17, nil
	case op == wireMoebius:
		var c [4]float64
		for i := range c {
			v, ok := word64(1 + 8*i)
			if !ok {
				return nil, 0, ErrShortEncoding
			}
			c[i] = math.Float64frombits(uint64(v))
		}
		return Moebius{A: c[0], B: c[1], C: c[2], D: c[3]}, 33, nil
	case op == wireTable:
		if len(buf) < 2 {
			return nil, 0, ErrShortEncoding
		}
		n := int(buf[1]) + 1
		trans := make([]Transition, n)
		off := 2
		for s := range trans {
			if len(buf) < off+2 {
				return nil, 0, ErrShortEncoding
			}
			tr := Transition{Next: word.Tag(buf[off])}
			flags := buf[off+1]
			off += 2
			switch {
			case flags&wireTrFail != 0:
				tr = Transition{Fail: true}
			case flags&wireTrStore != 0:
				v, ok := word64(off)
				if !ok {
					return nil, 0, ErrShortEncoding
				}
				tr.Act, tr.V = Store, v
				off += 8
			default:
				tr.Act = Keep
			}
			if int(tr.Next) >= n {
				// An automaton that steps outside its own states composes
				// wrongly: the next table treats the stray tag as a failure.
				return nil, 0, ErrOpenTable
			}
			trans[s] = tr
		}
		return Table{T: trans}, off, nil
	default:
		return nil, 0, ErrUnknownEncoding
	}
}
