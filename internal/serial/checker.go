package serial

import (
	"encoding/binary"
	"fmt"

	"combining/internal/word"
)

// CheckM2 verifies that a history is per-location serializable: for every
// memory location there is an order of its operations that (a) respects
// each processor's issue order to that location and (b) reproduces every
// observed reply when the operations execute consecutively from the
// initial value.  This is exactly the guarantee of Theorem 4.2 for a
// combining memory system, and conditions (M2.1)–(M2.3) of Section 3.2.
//
// initial gives each location's starting content; missing locations start
// as the zero word.  It returns nil when a witness order exists for every
// location.
func CheckM2(h *History, initial map[word.Addr]word.Word) error {
	return check(h.ops, initial, nil)
}

// CheckM2WithFinal is CheckM2 strengthened with the observed final memory
// contents: the witness serialization must also leave each listed location
// holding its observed final value.  This catches failures invisible to
// replies alone — the incorrect load-forwarding optimization of Section 5.1
// produces reply-consistent histories whose final memory no serialization
// explains.
func CheckM2WithFinal(h *History, initial, final map[word.Addr]word.Word) error {
	return check(h.ops, initial, final)
}

// check runs the witness search on every location of ops, addresses
// ascending, and reports the first that has no witness.
func check(ops []Op, initial, final map[word.Addr]word.Word) error {
	for _, loc := range byLocation(ops) {
		s := &search{ops: ops, chains: loc.chains, failed: make(map[string]bool)}
		s.pos = make([]int, len(loc.chains))
		for _, c := range loc.chains {
			s.total += len(c)
		}
		if f, ok := final[loc.addr]; ok {
			s.target = &f
		}
		if s.step(initial[loc.addr], 0) {
			continue
		}
		return &Violation{Addr: loc.addr,
			Detail: fmt.Sprintf("no serialization of %d operations matches the observed replies", s.total)}
	}
	return nil
}

// search finds a serialization of one location's operations by
// backtracking over the frontier of its per-processor chains: at each step
// only operations whose observed reply equals the current cell value are
// eligible, which prunes the search to near-determinism for
// value-distinguishing operations (fetch-and-add chains branch only on
// genuinely equivalent orders).  Failed (frontier, value) states are
// memoized.
type search struct {
	ops []Op
	// chains holds one chain of indices into ops per processor, in
	// program order; pos is the frontier, the next position in each.
	chains [][]int
	pos    []int
	total  int
	// target, when non-nil, is the final value the serialization must
	// reach.
	target *word.Word
	// failed memoizes dead frontier states (see key); buf is key's scratch.
	failed map[string]bool
	buf    []byte
}

// key encodes the frontier positions and the current cell value into the
// search's scratch buffer, valid until the next call.  The positions are
// uvarints, which are prefix-free, so the key is injective however long a
// chain grows.  A lookup by string(key) does not allocate; only recording
// a failed state builds the string.
func (s *search) key(val word.Word) []byte {
	b := s.buf[:0]
	for _, p := range s.pos {
		b = binary.AppendUvarint(b, uint64(p))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(val.Val))
	s.buf = append(b, byte(val.Tag))
	return s.buf
}

func (s *search) step(val word.Word, done int) bool {
	if done == s.total {
		return s.target == nil || val == *s.target
	}
	if s.failed[string(s.key(val))] {
		return false
	}
	for c, chain := range s.chains {
		p := s.pos[c]
		if p == len(chain) {
			continue
		}
		op := &s.ops[chain[p]]
		if op.Reply != val {
			continue
		}
		s.pos[c]++
		if s.step(op.Op.Apply(val), done+1) {
			return true
		}
		s.pos[c]--
	}
	// The recursion reused the buffer; the frontier is back where it was.
	s.failed[string(s.key(val))] = true
	return false
}
