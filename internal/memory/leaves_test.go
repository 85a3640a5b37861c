package memory

import (
	"math/rand/v2"
	"testing"

	"combining/internal/word"
)

// TestLeafTableMatchesMap drives the reply cache's table and a map through
// the same random puts, gets and deletes — ids drawn from a small range, so
// probe runs collide, wrap the array's end and are cut by deletes — and
// holds every answer and the size equal after each step.
func TestLeafTableMatchesMap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		var tab leafTable
		ref := map[word.ReqID]modelLeaf{}
		span := 8 + r.IntN(200)
		for step := 0; step < 4000; step++ {
			id := word.ReqID(r.IntN(span))
			switch op := r.IntN(10); {
			case op < 5:
				v := word.W(r.Int64())
				tab.put(id, v, word.ProcID(id%7))
				ref[id] = modelLeaf{v, word.ProcID(id % 7)}
			case op < 8:
				tab.del(id)
				delete(ref, id)
			default:
				got, ok := tab.get(id)
				want, wok := ref[id]
				if ok != wok || got != want.val {
					t.Fatalf("seed %d step %d: get(%d) = %v, %v; the map says %v, %v", seed, step, id, got, ok, want.val, wok)
				}
			}
			if tab.len() != len(ref) {
				t.Fatalf("seed %d step %d: %d leaves, the map holds %d", seed, step, tab.len(), len(ref))
			}
		}
		for id, want := range ref {
			i := tab.find(id)
			if i < 0 || tab.slots[i].val != want.val || tab.slots[i].src != want.src {
				t.Fatalf("seed %d: leaf %d lost or wrong at the end", seed, id)
			}
		}
	}
}
