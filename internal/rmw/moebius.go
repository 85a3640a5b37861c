package rmw

import (
	"fmt"
	"math"
	"math/big"

	"combining/internal/word"
)

// Moebius is the full arithmetic family of Section 5.4.  The semigroup
// spanned by {x θ a : θ ∈ {+, −, ×, ÷, reverse −, reverse ÷}} consists of
// the Möbius functions
//
//	x → (a·x + b) / (c·x + d)
//
// represented by the 2×2 coefficient matrix [[a b] [c d]]; composing two
// functions multiplies their matrices.  This type carries float64
// coefficients and operates on words whose Val holds float64 bits — the
// paper's observation that combined floating-point arithmetic "might not
// produce the same results as would the serial order" (and that the
// transformations are not numerically stable when division occurs) is
// reproduced by comparing against MoebiusRat, the exact rational version.
type Moebius struct {
	A, B, C, D float64
}

var _ Mapping = Moebius{}

// MoebiusAdd returns x → x + c.
func MoebiusAdd(c float64) Moebius { return Moebius{A: 1, B: c, D: 1} }

// MoebiusSub returns x → x − c.
func MoebiusSub(c float64) Moebius { return Moebius{A: 1, B: -c, D: 1} }

// MoebiusRSub returns x → c − x.
func MoebiusRSub(c float64) Moebius { return Moebius{A: -1, B: c, D: 1} }

// MoebiusMul returns x → c·x.
func MoebiusMul(c float64) Moebius { return Moebius{A: c, D: 1} }

// MoebiusDiv returns x → x / c.
func MoebiusDiv(c float64) Moebius { return Moebius{A: 1, D: c} }

// MoebiusRDiv returns x → c / x.
func MoebiusRDiv(c float64) Moebius { return Moebius{B: c, C: 1} }

// EvalFloat computes the function on a float64 directly.
func (m Moebius) EvalFloat(x float64) float64 {
	return (m.A*x + m.B) / (m.C*x + m.D)
}

// Apply interprets w.Val as float64 bits, applies the function, and
// re-encodes.  Division by zero follows IEEE-754 (±Inf, NaN), as hardware
// floating-point units behave.
func (m Moebius) Apply(w word.Word) word.Word {
	x := math.Float64frombits(uint64(w.Val))
	return word.Word{Val: int64(math.Float64bits(m.EvalFloat(x))), Tag: w.Tag}
}

// Kind reports KindMoebius.
func (m Moebius) Kind() Kind { return KindMoebius }

// EncodedBits is an opcode byte plus four coefficient words.
func (m Moebius) EncodedBits() int { return 8 + 4*64 }

// String renders the function.
func (m Moebius) String() string {
	return fmt.Sprintf("(%g*x%+g)/(%g*x%+g)", m.A, m.B, m.C, m.D)
}

// compose multiplies coefficient matrices: with h(x) = g(f(x)) the matrix
// of h is M_g · M_f.
func (m Moebius) compose(g Mapping) (Mapping, bool) {
	gm, ok := g.(Moebius)
	if !ok {
		return nil, false
	}
	return Moebius{
		A: gm.A*m.A + gm.B*m.C,
		B: gm.A*m.B + gm.B*m.D,
		C: gm.C*m.A + gm.D*m.C,
		D: gm.C*m.B + gm.D*m.D,
	}, true
}

func (m Moebius) composable(g Mapping) bool {
	_, ok := g.(Moebius)
	return ok
}

// MoebiusRat is the exact rational Möbius function, used to demonstrate
// that the combining transformation is algebraically exact — divergence in
// the float64 family is purely rounding, the "same shortcomings as compiler
// optimization techniques that use transformations based on algebraic
// identities" (Section 5.4).  It operates on *big.Rat values rather than
// memory words, so it does not implement Mapping; the rmw tests and the
// arithmetic experiment compare the two.
type MoebiusRat struct {
	A, B, C, D *big.Rat
}

// NewMoebiusRat builds an exact Möbius function from int64 coefficients.
func NewMoebiusRat(a, b, c, d int64) MoebiusRat {
	return MoebiusRat{
		A: big.NewRat(a, 1),
		B: big.NewRat(b, 1),
		C: big.NewRat(c, 1),
		D: big.NewRat(d, 1),
	}
}

// Eval computes (a·x + b) / (c·x + d) exactly.  It reports ok=false when
// the denominator is zero (the rational family has a genuine pole where
// IEEE arithmetic produces an infinity).
func (m MoebiusRat) Eval(x *big.Rat) (*big.Rat, bool) {
	num := new(big.Rat).Mul(m.A, x)
	num.Add(num, m.B)
	den := new(big.Rat).Mul(m.C, x)
	den.Add(den, m.D)
	if den.Sign() == 0 {
		return nil, false
	}
	return num.Quo(num, den), true
}

// Compose returns the exact composition "m then g" by matrix product.
func (m MoebiusRat) Compose(g MoebiusRat) MoebiusRat {
	mul := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Mul(p, q) }
	add := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Add(p, q) }
	return MoebiusRat{
		A: add(mul(g.A, m.A), mul(g.B, m.C)),
		B: add(mul(g.A, m.B), mul(g.B, m.D)),
		C: add(mul(g.C, m.A), mul(g.D, m.C)),
		D: add(mul(g.C, m.B), mul(g.D, m.D)),
	}
}
