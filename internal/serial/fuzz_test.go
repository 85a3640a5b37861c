package serial

import (
	"slices"
	"testing"

	"combining/internal/rmw"
	"combining/internal/word"
)

// FuzzCheckers holds the certificate checker, the search and SeqConsistent
// to each other on small random histories.  The fuzz bytes drive a global
// interleaving of at most 3 processors on at most 2 addresses: data[0]
// picks the processor count and up to 10 operations, data[1] may corrupt
// one reply and picks two leaves to swap, and each operation takes two
// bytes — its processor, address and kind (load, StoreOf or FetchAdd),
// then its argument and how long its interval stays open.  Replies come
// from Apply and times from the step index, so an uncorrupted history is
// linearizable by construction and the generation order is its
// certificate.  Missing bytes read as zero.
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
		h := &History{}
		cert := Certificate{}
		mem := make(map[word.Addr]word.Word)
		seq := make([]int, procs)
		for k := range n {
			pick, arg := next(), next()
			proc, addr := pick%procs, word.Addr(pick/3%2)
			m := []rmw.Mapping{rmw.Load{}, rmw.StoreOf(int64(arg % 4)), rmw.FetchAdd(int64(arg % 4))}[pick/6%3]
			seq[proc]++
			op := Op{Proc: word.ProcID(proc), Seq: seq[proc], Addr: addr, Op: m, Reply: mem[addr],
				ID: word.ReqID(k + 1), IssueAt: int64(k + 1 - arg/4%3), DoneAt: int64(k + 1 + arg/12%3)}
			if corrupted && k == corrupt/2%n {
				op.Reply.Val += int64(1 + corrupt/64)
			}
			h.Add(op)
			cert[addr] = append(cert[addr], op.ID)
			mem[addr] = m.Apply(mem[addr])
		}
		sc, m2, m2f := SeqConsistent(h, nil), CheckM2(h, nil) == nil, CheckM2WithFinal(h, nil, mem) == nil
		switch certified := CheckCertificate(h, cert, nil, mem) == nil; {
		case certified == corrupted:
			t.Fatalf("generation order certified %v on a history corrupted %v", certified, corrupted)
		case !corrupted && !(sc && m2f):
			t.Fatalf("valid history rejected: SeqConsistent %v, CheckM2WithFinal %v", sc, m2f)
		case sc && !m2:
			t.Fatal("SeqConsistent passed and CheckM2 failed")
		}
		// A certificate with two leaves swapped may still be a valid
		// serialization, but only of a history the search accepts.
		order := slices.Clone(cert[0])
		if len(order) < 2 {
			return
		}
		i, j := corrupt/4%len(order), corrupt/32%len(order)
		order[i], order[j] = order[j], order[i]
		cert[0] = order
		if CheckCertificate(h, cert, nil, mem) == nil && !m2f {
			t.Fatalf("swapped certificate %v passed and CheckM2WithFinal failed", cert)
		}
	})
}
