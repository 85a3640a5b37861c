package engine

import (
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
)

// A wiring nobody planned for: a binary reduction tree, the shape of the
// in-network-reduction fabrics that descend from the Ultracomputer switch
// (SHARP-style aggregation trees; see PAPERS.md).  Eight processors hang off
// the leaves, one memory module sits behind the root, and the seven stations
// in between carry neither: requests for a hot cell combine pairwise on the
// way up, the root hands memory one message, and the replies decombine on
// the way down the path they recorded.  It is neither a Staged wiring (its
// columns narrow) nor a Direct one (interior nodes host nothing), and it
// needs no engine of its own: a table and a schedule, below, are all of it.

const treeProcs = 8

// treeLinks wires the tree in heap order: station 0 is the root, station i's
// children are 2i+1 and 2i+2, stations 3–6 take two processors each.  Every
// station has one forward queue, toward its parent, and two reverse queues,
// toward its children; an arrival stamps which child it came from.
func treeLinks() *Links {
	const stations = treeProcs - 1
	lk := &Links{
		Ports: 1, RevPorts: 2, PathLen: 3,
		Fwd: make([]Link, stations), FwdAt: make([]Coord, stations),
		Rev: make([]Link, 2*stations), RevAt: make([]Coord, 2*stations),
		Proc: make([]Link, treeProcs), ProcAt: make([]Coord, treeProcs), Home: make([]Coord, treeProcs),
		Route: make([][]uint8, stations),
	}
	lk.Fwd[0], lk.FwdAt[0] = Link{To: -1}, Coord{Stage: 3} // the root's link into module 0
	for st := int32(0); st < stations; st++ {
		lk.Route[st] = []uint8{0}
		if st > 0 {
			parent, child := (st-1)/2, (st-1)%2
			lk.Fwd[st], lk.FwdAt[st] = Link{To: parent, In: child}, Coord{1, parent, child}
		}
		for c := int32(0); c < 2; c++ {
			to := 2*st + 1 + c // a station, or past them a processor
			if to >= stations {
				to = -1 - (to - stations)
			}
			lk.Rev[2*st+c], lk.RevAt[2*st+c] = Link{To: to}, Coord{1, st, c}
		}
	}
	for p := int32(0); p < treeProcs; p++ {
		leaf := stations/2 + p/2
		lk.Proc[p], lk.ProcAt[p], lk.Home[p] = Link{To: leaf, In: p % 2}, Coord{0, leaf, p % 2}, Coord{2, p, 0}
	}
	return lk
}

type tree struct{ Shell }

func newTree(plan *faults.Plan, inj []Injector, revCap int) *tree {
	t := &tree{}
	t.Init(ShellConfig{
		Engine: "tree", Injectors: inj, Modules: 1, Service: 1, MemQueueCap: 4,
		Stations: NewStations(treeProcs-1, 1, 2, 4, revCap, core.Unbounded, core.Policy{}),
		Links:    treeLinks(), Stages: 1, WatchdogCycles: DefaultWatchdogCycles, Faults: plan,
		Hooks: Hooks{
			Sweep:     t.sweep,
			CanFeed:   t.RoomInModule,
			Saturated: func() bool { return false },
			Observe:   func(*Counters, map[string]int64) {},
		},
	})
	return t
}

// sweep is the tree's schedule.  Station order is free: the hops' stamps
// keep every message to one link per cycle.
func (t *tree) sweep() {
	ln := t.Lane(0)
	for st := 0; st < treeProcs-1; st++ {
		t.RevHop(st, 0, ln)
	}
	t.Tick(0, 0, ln)
	for st := 0; st < treeProcs-1; st++ {
		t.FwdHop(st, 0, ln)
	}
	t.Commit()
	for p := 0; p < treeProcs; p++ {
		t.Inject(p)
	}
}

// TestTreeWiring runs hot-spot traffic through the tree — clean, under the
// adversarial plan, and under station, module and link crashes with drops —
// and holds it to what every machine in the repo is held to: every request
// answered exactly once, every cell's replies those of a serial memory.
func TestTreeWiring(t *testing.T) {
	crashDrop := faults.Default(6)
	crashDrop.Crashes = []faults.Window{{Stage: 0, Index: 1, From: 150, To: 190}, {Stage: 0, Index: 0, From: 400, To: 430}}
	crashDrop.MemCrashes = []faults.Window{{Stage: -1, Index: 0, From: 260, To: 300}}
	crashDrop.LinkCrashes = []faults.Window{{Stage: 1, Index: 2, From: 60, To: 90}}
	for _, tc := range []struct {
		name    string
		plan    *faults.Plan
		engaged []string
	}{
		{"clean", nil, []string{"combines"}},
		{"adversarial", faults.DefaultAdversarial(4),
			[]string{"combines", "reordered_held", "dup_injected", "corrupt_dropped", "retries", "duplicates_suppressed"}},
		{"crashdrop", crashDrop,
			[]string{"combines", "crashes", "restores", "checkpoints", "lost_in_flight", "drops_fwd", "drops_rev", "retries"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const ops = 60
			adders, inj := newAdders(treeProcs, ops)
			var m Machine = newTree(tc.plan, inj, 4)
			if !m.Drain(400000) {
				t.Fatalf("did not drain (stalled=%v):\n%s", m.Stalled(), m.StallReport())
			}
			checkAdders(t, m, adders, ops, tc.engaged)
		})
	}
}

// TestIdleModuleCountsCreditHold: a module with nothing to serve, behind a
// station at its reverse credit limit, still counts a held completion every
// cycle — Tick's credit check comes before it asks the module anything.  The
// occupancy index lets Tick skip an idle module only while the station's
// reverse queues are empty too; a skip on the module's count alone would
// lose exactly these holds and move holds_mem_out in every digest.
func TestIdleModuleCountsCreditHold(t *testing.T) {
	_, inj := newAdders(treeProcs, 0)
	tr := newTree(nil, inj, 1)
	root, ln := tr.Station(0), tr.Lane(0)
	tr.Tick(0, 0, ln)
	if ln.HoldsMemOut != 0 {
		t.Fatalf("an empty machine counted %d credit holds", ln.HoldsMemOut)
	}
	// One reply queued toward child 1 puts the root at its credit limit.
	root.AcceptRev(&Rev{Rep: core.Reply{ID: 1}, Path: Path(0).Push(0).Push(0).Push(1)}, 0, nil)
	if root.CanAcceptRev() || tr.Memory().Module(0).QueueLen() != 0 {
		t.Fatalf("setup: root has credit (%v) or the module is not idle", root.CanAcceptRev())
	}
	for i := 0; i < 3; i++ {
		tr.Tick(0, 0, ln)
	}
	if ln.HoldsMemOut != 3 {
		t.Errorf("idle module behind a credit-less station: %d holds over 3 ticks, want 3", ln.HoldsMemOut)
	}
	root.PopRev(1)
	tr.Tick(0, 0, ln)
	if ln.HoldsMemOut != 3 {
		t.Errorf("a hold was counted with the credit back: %d", ln.HoldsMemOut)
	}
}
