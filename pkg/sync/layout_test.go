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
