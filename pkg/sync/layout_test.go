package sync

import (
	"testing"
	"unsafe"

	"combining/internal/par"
)

// TestWaitTargetsFillOneCacheLine pins the layout the local-spin argument
// rests on: a queue node and a barrier flag are each exactly one coherence
// granule, so no two waiters ever share a line.
func TestWaitTargetsFillOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(QNode{}); s != par.CacheLine {
		t.Errorf("QNode is %d bytes, want %d", s, par.CacheLine)
	}
	if s := unsafe.Sizeof(flag{}); s != par.CacheLine {
		t.Errorf("barrier flag is %d bytes, want %d", s, par.CacheLine)
	}
}

// TestMCSLockLayout pins the lock's two lines: the lock word and the wait
// word its queue head parks on share one, which the releaser already owns
// when it hands the lock over, and the tail that arrivals swap has its own.
func TestMCSLockLayout(t *testing.T) {
	var l MCSLock
	line := func(off uintptr) uintptr { return off / par.CacheLine }
	state, head := unsafe.Offsetof(l.state), unsafe.Offsetof(l.head)
	if line(state) != line(head) || line(head) != line(head+unsafe.Sizeof(l.head)-1) {
		t.Errorf("state at %d and head at %d..%d do not share a line", state, head, head+unsafe.Sizeof(l.head)-1)
	}
	if tail := unsafe.Offsetof(l.tail); line(tail) == line(state) || line(tail) == line(head+unsafe.Sizeof(l.head)-1) {
		t.Errorf("tail at %d shares a line with the lock word", tail)
	}
}
