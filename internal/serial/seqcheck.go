package serial

import "combining/internal/word"

// SeqConsistent decides condition M1 — full sequential consistency — for a
// small history: is there an interleaving of all operations, respecting
// each processor's complete program order (across addresses), in which
// every operation observes the value its reply recorded?  The search is
// exponential in principle; it is intended for the handful-of-operations
// litmus tests of Sections 3.2 and 5.1 (Collier's example, the
// load-forwarding optimization).
func SeqConsistent(h *History, initial map[word.Addr]word.Word) bool {
	all := make([]int, len(h.ops))
	for i := range all {
		all[i] = i
	}
	chains := chains(h.ops, all)
	mem := make(map[word.Addr]word.Word, len(initial))
	for a, w := range initial {
		mem[a] = w
	}
	pos := make([]int, len(chains))
	var step func(done int) bool
	step = func(done int) bool {
		if done == len(h.ops) {
			return true
		}
		for c, chain := range chains {
			p := pos[c]
			if p == len(chain) {
				continue
			}
			op := &h.ops[chain[p]]
			cur := mem[op.Addr]
			if op.Reply != cur {
				continue
			}
			pos[c]++
			mem[op.Addr] = op.Op.Apply(cur)
			if step(done + 1) {
				return true
			}
			mem[op.Addr] = cur
			pos[c]--
		}
		return false
	}
	return step(0)
}
