package rmw

import (
	"fmt"

	"combining/internal/word"
)

// Affine is the additive/multiplicative subfamily of Section 5.4:
//
//	f(x) = a·x + b
//
// encoded by the two coefficients.  Composition is closed:
//
//	g(f(x)) = a_g·(a_f·x + b_f) + b_g = (a_g·a_f)·x + (a_g·b_f + b_g)
//
// Arithmetic wraps modulo 2⁶⁴ like machine integer arithmetic.  Because the
// composition identity is a polynomial identity, it holds in the ring
// ℤ/2⁶⁴ too, so combining wrapped affine requests is *exact*: the combined
// execution produces bit-for-bit the values of the serial execution.  The
// paper's guard-bit discussion concerns detecting overflow relative to a
// narrower word; that analysis lives in the Fixed type (fixedpoint.go).
type Affine struct {
	A int64
	B int64
}

var _ Mapping = Affine{}

// AffineAdd returns x → x + c (fetch-and-add within the affine family).
func AffineAdd(c int64) Affine { return Affine{A: 1, B: c} }

// AffineSub returns x → x − c.
func AffineSub(c int64) Affine { return Affine{A: 1, B: -c} }

// AffineRSub returns the reverse subtraction x → c − x.
func AffineRSub(c int64) Affine { return Affine{A: -1, B: c} }

// AffineMul returns x → c·x (fetch-and-multiply).
func AffineMul(c int64) Affine { return Affine{A: c} }

// Apply computes a·w + b with wrap-around, preserving the tag.
func (m Affine) Apply(w word.Word) word.Word {
	return word.Word{Val: m.A*w.Val + m.B, Tag: w.Tag}
}

// Kind reports KindAffine.
func (m Affine) Kind() Kind { return KindAffine }

// EncodedBits is an opcode byte plus the two coefficient words — "only two
// coefficients" as the paper notes for the +,× subfamily.
func (m Affine) EncodedBits() int { return 8 + 128 }

// String renders the function.
func (m Affine) String() string { return fmt.Sprintf("%d*x+%d", m.A, m.B) }

// compose combines with another affine mapping: "combining two such
// mappings requires two multiplications and one addition" (Section 5.4).
func (m Affine) compose(g Mapping) (Mapping, bool) {
	ga, ok := g.(Affine)
	if !ok {
		return nil, false
	}
	return Affine{A: ga.A * m.A, B: ga.A*m.B + ga.B}, true
}

func (m Affine) composable(g Mapping) bool {
	_, ok := g.(Affine)
	return ok
}
