package engine

import (
	"testing"
	"unsafe"

	"combining/internal/core"
)

// TestPathRoundTrip: sixteen hops of sixteen ports — the most a header
// holds — pop in reverse order and leave it spent.
func TestPathRoundTrip(t *testing.T) {
	var p Path
	for hop := int32(0); hop < 64/pathBits; hop++ {
		p = p.Push((hop*7 + 3) % (1 << pathBits))
	}
	for hop := int32(64/pathBits - 1); hop >= 0; hop-- {
		var in int
		if in, p = p.Pop(); in != int((hop*7+3)%(1<<pathBits)) {
			t.Fatalf("hop %d popped port %d, want %d", hop, in, (hop*7+3)%(1<<pathBits))
		}
	}
	if p != 0 {
		t.Fatalf("header %#x after every hop was popped", p)
	}
}

// TestPathLimits: a wiring whose route overflows the header, or whose
// switches have more input ports than a hop's bits name, is rejected by its
// Validate — the error a command prints — and CompileStaged refuses to
// build its table.
func TestPathLimits(t *testing.T) {
	for _, topo := range []Staged{OmegaOf(1<<16, 2), OmegaOf(256, 16), FatTreeOf(1<<16, 2)} {
		if err := topo.Validate(); err != nil {
			t.Errorf("%s n=%d radix=%d fits the header, yet: %v", topo.Name(), topo.Procs(), topo.Radix(), err)
		}
	}
	for _, topo := range []Staged{OmegaOf(1<<17, 2), OmegaOf(1024, 32), FatTreeOf(1<<17, 2)} {
		if topo.Validate() == nil {
			t.Errorf("%s n=%d radix=%d validated: its route does not fit a path header", topo.Name(), topo.Procs(), topo.Radix())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("CompileStaged built a table for radix-32 switches")
		}
	}()
	CompileStaged(OmegaOf(1024, 32))
}

// TestMessageLayout pins what packing the path header bought — a wait
// record lost the 16 bytes a slice header costs beyond a word (128 bytes
// before), a request and a reply in value form the same (144 and 96), and a
// core request keeps its source set and representation list behind one
// lineage pointer, 48 bytes more off a request — and what keeping messages
// put bought: a station queue carries a 24-byte request entry or a 32-byte
// reply entry where it carried the 80-byte messages, and a wait record
// names the absorbed request's body by handle instead of holding its
// source, tags and leaves (112 bytes before).
func TestMessageLayout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"core.Request", unsafe.Sizeof(core.Request{}), 48},
		{"Fwd", unsafe.Sizeof(Fwd{}), 144 - 16 - 48},
		{"Rev", unsafe.Sizeof(Rev{}), 96 - 16},
		{"FwdEntry", unsafe.Sizeof(FwdEntry{}), 24},
		{"RevEntry", unsafe.Sizeof(RevEntry{}), 32},
		{"Body", unsafe.Sizeof(Body{}), 88},
		{"Record", unsafe.Sizeof(Record{}), 72},
		// A queue's version fits beside its int32 indices; a link's
		// refusal memo is two versions and three flags, a port's adds the
		// message's identity.
		{"core.FIFO[FwdEntry]", unsafe.Sizeof(core.FIFO[FwdEntry]{}), 48},
		{"refusal", unsafe.Sizeof(refusal{}), 12},
		{"portRefusal", unsafe.Sizeof(portRefusal{}), 24},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
}
