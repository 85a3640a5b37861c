package serial

import (
	"testing"

	"combining/internal/rmw"
	"combining/internal/word"
)

// FuzzCheckers holds the three checkers to each other on small random
// histories.  The fuzz bytes drive a global interleaving of at most 3
// processors on at most 2 addresses: data[0] picks the processor count and
// up to 10 operations, data[1] may corrupt one reply, and each operation
// takes two bytes — its processor, address and kind (load, StoreOf or
// FetchAdd), then its argument and how long its interval stays open.
// Replies come from Apply and times from the step index, so an uncorrupted
// history is linearizable by construction.  Missing bytes read as zero.
func FuzzCheckers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{32, 0, 12, 5, 13, 2, 1, 0, 14, 7, 2, 30})
	f.Add([]byte{32, 7, 12, 5, 13, 2, 1, 0, 14, 7, 2, 30})
	f.Add([]byte{19, 3, 0, 0, 7, 1, 6, 2, 1, 0, 13, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		shape, corrupt := next(), next()
		procs, n := 1+shape%3, shape/3%11
		corrupted := n > 0 && corrupt%2 == 1
		th := &TimedHistory{}
		mem := make(map[word.Addr]word.Word)
		seq := make([]int, procs)
		for k := range n {
			pick, arg := next(), next()
			proc, addr := pick%procs, word.Addr(pick/3%2)
			m := []rmw.Mapping{rmw.Load{}, rmw.StoreOf(int64(arg % 4)), rmw.FetchAdd(int64(arg % 4))}[pick/6%3]
			seq[proc]++
			op := Op{Proc: word.ProcID(proc), Seq: seq[proc], Addr: addr, Op: m, Reply: mem[addr]}
			if corrupted && k == corrupt/2%n {
				op.Reply.Val += int64(1 + corrupt/64)
			}
			th.Add(TimedOp{Op: op, IssueAt: int64(k + 1 - arg/4%3), DoneAt: int64(k + 1 + arg/12%3)})
			mem[addr] = m.Apply(mem[addr])
		}
		h := th.History()
		sc, m2 := SeqConsistent(h, nil), CheckM2(h, nil) == nil
		m2f, lin := CheckM2WithFinal(h, nil, mem) == nil, CheckLinearizable(th, nil, mem) == nil
		switch {
		case !corrupted && !(sc && m2f && lin):
			t.Fatalf("valid history rejected: SeqConsistent %v, CheckM2WithFinal %v, CheckLinearizable %v", sc, m2f, lin)
		case sc && !m2:
			t.Fatal("SeqConsistent passed and CheckM2 failed")
		case lin && !m2f:
			t.Fatal("CheckLinearizable passed and CheckM2WithFinal failed")
		}
		untimed := &TimedHistory{ops: th.ops, spans: make([]span, len(th.ops))}
		if got := CheckLinearizable(untimed, nil, mem) == nil; got != m2f {
			t.Fatalf("untimed CheckLinearizable %v, CheckM2WithFinal %v", got, m2f)
		}
	})
}
