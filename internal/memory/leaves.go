package memory

import (
	"math/bits"

	"combining/internal/word"
)

// leafTable is the reply cache's index: each executed leaf's id, the value
// its operation saw and the processor that issued it.  Open addressing over
// a power-of-two array of slots, probed linearly from a multiplicative hash
// of the id; a delete shifts the rest of its probe run back into the hole,
// so there are no tombstones, and the array doubles once it is three-quarters
// full.  A module's cache holds a few dozen live leaves, each written once,
// read at most a few times and deleted at the next prune, so one small array
// the module owns answers in a probe or two.
type leafTable struct {
	slots []leafSlot
	n     int
	shift uint8 // 64 − log2(len(slots))
}

// leafSlot is one slot of a leafTable; used says it holds a leaf.
type leafSlot struct {
	id   word.ReqID
	val  word.Word
	src  word.ProcID
	used bool
}

// minLeafSlots is a table's first array.
const minLeafSlots = 16

// len reports the leaves the table holds.
func (t *leafTable) len() int { return t.n }

// home is the slot id's probe run starts at.
func (t *leafTable) home(id word.ReqID) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the index of id's slot, or -1.
func (t *leafTable) find(id word.ReqID) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		switch sl := &t.slots[i]; {
		case !sl.used:
			return -1
		case sl.id == id:
			return i
		}
	}
}

// get returns what leaf id saw, and whether the table holds it.
func (t *leafTable) get(id word.ReqID) (word.Word, bool) {
	if i := t.find(id); i >= 0 {
		return t.slots[i].val, true
	}
	return word.Word{}, false
}

// put records leaf id, replacing what the table held for it.
func (t *leafTable) put(id word.ReqID, val word.Word, src word.ProcID) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].used && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	if !t.slots[i].used {
		t.n++
	}
	t.slots[i] = leafSlot{id: id, val: val, src: src, used: true}
}

// grow doubles the array (or makes the first) and reinserts every leaf.
func (t *leafTable) grow() {
	old := t.slots
	size := max(2*len(old), minLeafSlots)
	t.slots, t.n, t.shift = make([]leafSlot, size), 0, uint8(64-bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].used {
			t.put(old[i].id, old[i].val, old[i].src)
		}
	}
}

// del forgets leaf id, if the table holds it: every later slot of the probe
// run whose home does not lie between the hole and itself moves back into
// the hole, which moves to where it was.
func (t *leafTable) del(id word.ReqID) {
	hole := t.find(id)
	if hole < 0 {
		return
	}
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		// Slot j may fill the hole unless its home lies cyclically in
		// (hole, j]: then its probe run would no longer reach it.
		if h := t.home(t.slots[j].id); (j-h)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = leafSlot{}
	t.n--
}
