package engine

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

// loopback is the degenerate wiring: one station, every processor's link
// into it, one forward queue and one link per memory module out of it (a
// crossbar), and nothing on the way back — a module's reply crosses the
// processor link at once.  Its table is a dozen lines and its schedule four
// calls; the wait buffer is off (capacity 0), so everything the tests below
// observe is the shell's doing.
type loopback struct {
	Shell
	// wake, when set, wakes every port before injection: the shell asks
	// every port every cycle, as before a port could sleep.
	wake bool
}

func newLoopback(plan *faults.Plan, inj []Injector) *loopback {
	return newLoopbackWatched(plan, inj, 2, DefaultWatchdogCycles, nil)
}

// newLoopbackWatched also sets the module service time and the watchdog
// limit; blocked, when set, names modules the fabric never feeds: their
// requests wait in the station forever.
func newLoopbackWatched(plan *faults.Plan, inj []Injector, service int, watchdog int64, blocked func(mod int) bool) *loopback {
	n := len(inj)
	lk := &Links{
		Name: "loopback", Ports: n, Fwd: make([]Link, n), FwdAt: make([]Coord, n),
		Proc: make([]Link, n), ProcAt: make([]Coord, n), Home: make([]Coord, n),
		Route: [][]uint8{make([]uint8, n)}, Back: [][]int8{make([]int8, n)},
	}
	for i := 0; i < n; i++ {
		lk.Fwd[i], lk.FwdAt[i] = Link{To: int32(-1 - i)}, Coord{0, int32(i), 0}
		lk.ProcAt[i], lk.Home[i] = Coord{2, int32(i), 0}, Coord{1, int32(i), 0}
		lk.Route[0][i], lk.Back[0][i] = uint8(i), -1
	}
	l := &loopback{}
	l.Init(ShellConfig{
		Engine: "loopback", Injectors: inj,
		Modules: n, Service: service, MemQueueCap: 2,
		Stations: NewStations(1, n, 0, 2, 0, 0, core.Policy{}), Links: lk,
		Faults: plan,
		Hooks: Hooks{
			Sweep: l.sweep,
			CanFeed: func(mod int) bool {
				return l.Memory().Module(mod).CanEnqueue() && (blocked == nil || !blocked(mod))
			},
			Saturated: func() bool { return false },
			Observe:   func(*Counters, map[string]int64) {},
		},
	})
	l.wd.limit = watchdog
	return l
}

func (l *loopback) sweep() {
	for mod := 0; mod < l.Memory().Modules(); mod++ {
		l.Tick(mod, -1, l.Lane(0))
	}
	l.FwdHop(0, 0, l.Lane(0))
	l.Commit()
	if l.wake {
		clear(l.asleep)
	}
	for p := 0; p < l.Memory().Modules(); p++ {
		l.Inject(p, l.Lane(0))
	}
}

// adder issues ops fetch-and-adds, alternating the shared cell 0 with a
// private cell, at most two outstanding; it keeps every reply.
type adder struct {
	proc, nprocs, ops int
	ids               *word.IDGen
	issued, out       int
	hotIDs            map[word.ReqID]bool
	hot, private      []int64
}

func (a *adder) Next(int64) (Injection, bool) {
	if a.issued == a.ops || a.out == 2 {
		return Injection{}, false
	}
	id := a.ids.NextPartitioned(a.nprocs)
	addr := word.Addr(0)
	if a.issued%2 == 1 {
		addr = word.Addr(a.nprocs + a.proc)
	}
	a.hotIDs[id] = addr == 0
	a.issued++
	a.out++
	return Injection{Req: core.NewRequest(id, addr, rmw.FetchAdd(1), word.ProcID(a.proc)), Hot: addr == 0}, true
}

func (a *adder) Deliver(rep core.Reply, _ int64) {
	a.out--
	if a.hotIDs[rep.ID] {
		a.hot = append(a.hot, rep.Val.Val)
	} else {
		a.private = append(a.private, rep.Val.Val)
	}
	delete(a.hotIDs, rep.ID)
}

// newAdders builds one adder per processor.
func newAdders(n, ops int) ([]*adder, []Injector) {
	adders := make([]*adder, n)
	inj := make([]Injector, n)
	for p := range inj {
		adders[p] = &adder{proc: p, nprocs: n, ops: ops, ids: word.Partition(p, n), hotIDs: map[word.ReqID]bool{}}
		inj[p] = adders[p]
	}
	return adders, inj
}

// TestShellLoopback drives the shell through the degenerate wiring, clean and
// under the two plans that exercise everything the rim owns — the adversarial
// terminal links (reorder, duplicate, corrupt, limbo) and crash windows
// with drops (crash edges, checkpoints, retry lists, module guards) — and
// checks exactly-once completion and agreement with core.SerialReplies.
func TestShellLoopback(t *testing.T) {
	// Default's stall window (cycles 50–120) freezes the one station, so the
	// module crash comes after it, when module 0 holds work to lose.
	crashDrop := faults.Default(5)
	crashDrop.MemCrashes = []faults.Window{{Stage: -1, Index: 0, From: 150, To: 230}}
	crashDrop.LinkCrashes = []faults.Window{{Stage: 1, Index: 3, From: 60, To: 90}}
	for _, tc := range []struct {
		name    string
		plan    *faults.Plan
		engaged []string // counters that must be nonzero: no vacuous pass
	}{
		{"clean", nil, nil},
		{"adversarial", faults.DefaultAdversarial(4),
			[]string{"reordered_held", "dup_injected", "corrupt_dropped", "retries", "duplicates_suppressed"}},
		{"crashdrop", crashDrop,
			[]string{"crashes", "restores", "checkpoints", "lost_in_flight", "drops_fwd", "drops_rev", "retries"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, ops = 8, 40
			adders, inj := newAdders(n, ops)
			l := newLoopback(tc.plan, inj)
			var m Machine = l // the embedded shell is the whole Machine
			if !m.Drain(200000) {
				t.Fatalf("did not drain (stalled=%v):\n%s", m.Stalled(), m.StallReport())
			}

			checkAdders(t, m, adders, ops, tc.engaged)

			// Every module tick went through serve: the shard's service-cycle
			// count is the modules' own.
			var busy int64
			for mod := 0; mod < n; mod++ {
				busy += m.Memory().Module(mod).BusyCycles
			}
			if got := l.Totals().MemBusy; got != busy || busy == 0 {
				t.Fatalf("MemBusy = %d, the modules served %d cycles", got, busy)
			}
		})
	}
}

// sleeper issues ops fetch-and-adds, one of every three to the shared cell
// 0 and the others each to a cell of its own, at most three outstanding: at
// its window it says UntilReply, and when an earlier request to the shared
// cell is still in flight a tracker holds the next one back.  It counts its
// Next calls and UntilReply answers, and keeps every reply.
type sleeper struct {
	proc, nprocs, ops          int
	ids                        *word.IDGen
	issued, out, calls, untils int
	replies                    []core.Reply
}

func (s *sleeper) Next(int64) (Injection, bool) {
	s.calls++
	if s.issued == s.ops {
		return Injection{}, false
	}
	if s.out == 3 {
		s.untils++
		return Injection{UntilReply: true}, false
	}
	addr := word.Addr(0)
	if s.issued%3 != 0 {
		addr = word.Addr(s.nprocs*(1+s.issued) + s.proc)
	}
	s.issued++
	s.out++
	return Injection{Req: core.NewRequest(s.ids.NextPartitioned(s.nprocs), addr, rmw.FetchAdd(1), word.ProcID(s.proc))}, true
}

func (s *sleeper) Deliver(rep core.Reply, _ int64) {
	s.out--
	s.replies = append(s.replies, rep)
}

// TestOfferSkipsDeadRetransmits: a retry-list entry the tracker no longer
// waits on — its request was delivered while it queued, or a newer attempt
// of it is queued behind it — is dropped at Offer, which offers the next
// live entry instead.
func TestOfferSkipsDeadRetransmits(t *testing.T) {
	_, inj := newAdders(1, 0)
	l := newLoopback(&faults.Plan{Seed: 1}, inj)
	for id := word.ReqID(1); id <= 3; id++ {
		l.trk.Track(0, core.NewRequest(id, word.Addr(id), rmw.FetchAdd(1), 0), false, 0)
	}
	requeue := func(now int64) {
		for _, p := range l.trk.Expired(now) {
			*l.retry[0].Push() = Fwd{Req: p.Req, Src: p.Proc, Issue: p.IssueCycle}
		}
	}
	// All three time out at the base timeout (64) and queue at attempt 1;
	// request 1 is then delivered, and 2 and 3 time out again at 64 + 128
	// and queue at attempt 2 behind their first copies.
	requeue(64)
	if _, ok := l.trk.Deliver(0, 1, 100); !ok {
		t.Fatal("request 1 not delivered")
	}
	requeue(192)
	if n := l.retry[0].Len(); n != 5 {
		t.Fatalf("%d entries queued, want 5", n)
	}
	type sent struct {
		id      word.ReqID
		attempt uint32
	}
	var offered []sent
	for m := l.Offer(0, l.Lane(0)); m != nil; m = l.Offer(0, l.Lane(0)) {
		offered = append(offered, sent{m.Req.ID, m.Req.Attempt})
		l.Sent(0)
	}
	if want := []sent{{2, 2}, {3, 2}}; !reflect.DeepEqual(offered, want) {
		t.Fatalf("offered %v, want only the live copies %v", offered, want)
	}
	if n := l.retry[0].Len(); n != 0 {
		t.Fatalf("%d entries left in the retry list", n)
	}
	if n := l.trk.Retries.Load(); n != 2 {
		t.Fatalf("retries counts %d, want the 2 copies that left the port, not the 5 expirations", n)
	}
}

// misnamed issues one fetch-and-add whose source is src, not its own port.
type misnamed struct {
	src  word.ProcID
	done bool
}

func (m *misnamed) Next(int64) (Injection, bool) {
	if m.done {
		return Injection{}, false
	}
	m.done = true
	return Injection{Req: core.NewRequest(1, 0, rmw.FetchAdd(1), m.src)}, true
}

func (m *misnamed) Deliver(core.Reply, int64) {}

// TestOfferRejectsForeignSource: under a fault plan the reply caches judge
// a leaf by its own source's delivered floor, so a port whose injector names
// another processor — or none that exists — is refused at Offer, before the
// tracker or a module sees the request.  Without a plan no floor exists and
// the port routes by its own number, as before.
func TestOfferRejectsForeignSource(t *testing.T) {
	for _, src := range []word.ProcID{1, 7} {
		l := newLoopback(&faults.Plan{Seed: 1}, []Injector{&misnamed{src: src}, &misnamed{src: 1}})
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("source %d at port 0: Offer accepted it", src)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, "names processor") {
					t.Errorf("source %d at port 0: panic %q, want the foreign-source refusal", src, msg)
				}
			}()
			l.Offer(0, l.Lane(0))
		}()
		if m := l.Offer(1, l.Lane(0)); m == nil || m.Req.ID != 1 {
			t.Fatalf("port 1, naming itself, offered %v", m)
		}
	}
	l := newLoopback(nil, []Injector{&misnamed{src: 1}, &misnamed{src: 0}})
	if m := l.Offer(0, l.Lane(0)); m == nil || m.Src != 0 {
		t.Fatalf("clean port 0 offered %v, want its request routed from port 0", m)
	}
}

// TestSleepUnobservable: a port asleep until a reply — its injector at its
// window (Injection.UntilReply), or its pending request held back by the
// retry tracker — answers exactly as it would awake.  The loopback runs
// each plan twice, as built and waking every port before injection (the
// every-cycle poll the sleep replaced): the snapshots and every port's
// replies must be the same, the sleeping run must ask its injectors less
// often, and both sleeps must have happened (a held-back one only under a
// plan, which arms the tracker).
func TestSleepUnobservable(t *testing.T) {
	crashDrop := faults.Default(5)
	crashDrop.MemCrashes = []faults.Window{{Stage: -1, Index: 0, From: 150, To: 230}}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{{"clean", nil}, {"adversarial", faults.DefaultAdversarial(4)}, {"crashdrop", crashDrop}} {
		t.Run(tc.name, func(t *testing.T) {
			const n, ops, cycles = 8, 60, 3000
			run := func(wake bool) (snap string, replies [][]core.Reply, calls, untils, heldBack int) {
				sl := make([]*sleeper, n)
				inj := make([]Injector, n)
				for p := range inj {
					sl[p] = &sleeper{proc: p, nprocs: n, ops: ops, ids: word.Partition(p, n)}
					inj[p] = sl[p]
				}
				l := newLoopback(tc.plan, inj)
				l.wake = wake
				for range cycles {
					l.Step()
					for p := range l.asleep {
						if l.asleep[p] && l.hasPending[p] {
							heldBack++
						}
					}
				}
				for _, s := range sl {
					replies = append(replies, s.replies)
					calls += s.calls
					untils += s.untils
				}
				return string(l.Snapshot().JSON()), replies, calls, untils, heldBack
			}
			snap, replies, calls, untils, heldBack := run(false)
			awake, awakeReplies, awakeCalls, _, _ := run(true)
			if snap != awake {
				t.Fatalf("sleeping ports moved the snapshot:\n%s\nagainst\n%s", snap, awake)
			}
			if !reflect.DeepEqual(replies, awakeReplies) {
				t.Fatal("sleeping ports moved the replies")
			}
			if calls >= awakeCalls {
				t.Errorf("sleeping ports asked their injectors %d times, awake ones %d", calls, awakeCalls)
			}
			if untils == 0 || tc.plan != nil && heldBack == 0 {
				t.Errorf("%d ports slept at their window and %d port-cycles held back: a sleep was never exercised", untils, heldBack)
			}
		})
	}
}

// checkAdders verifies a drained machine driven by newAdders: every request
// answered exactly once, every cell's replies the ones a serial memory hands
// out (core.SerialReplies), the completion counters consistent, and every
// counter the plan was meant to engage nonzero — no vacuous pass.
func checkAdders(t *testing.T, m Machine, adders []*adder, ops int, engaged []string) {
	t.Helper()
	n := len(adders)
	var hot []int64
	for p, a := range adders {
		if len(a.hot)+len(a.private) != ops {
			t.Fatalf("proc %d got %d replies for %d requests", p, len(a.hot)+len(a.private), ops)
		}
		hot = append(hot, a.hot...)
		// The private cell has one writer with one request outstanding
		// (the window of two alternates cells), so its replies arrive
		// in program order: the serial replies as issued.
		want, final := core.SerialReplies(word.Word{}, repeat(rmw.FetchAdd(1), len(a.private)))
		for i, v := range a.private {
			if v != want[i].Val {
				t.Fatalf("proc %d private reply %d = %d, serial %d", p, i, v, want[i].Val)
			}
		}
		if got := m.Memory().Peek(word.Addr(n + p)); got != final {
			t.Fatalf("proc %d private cell = %v, serial %v", p, got, final)
		}
	}
	// The shared cell: some serial order of all the adds produced
	// exactly these replies, each once.
	sort.Slice(hot, func(i, j int) bool { return hot[i] < hot[j] })
	want, final := core.SerialReplies(word.Word{}, repeat(rmw.FetchAdd(1), len(hot)))
	for i, v := range hot {
		if v != want[i].Val {
			t.Fatalf("sorted shared reply %d = %d, serial %d (lost or doubled add)", i, v, want[i].Val)
		}
	}
	if got := m.Memory().Peek(0); got != final {
		t.Fatalf("shared cell = %v, serial %v", got, final)
	}

	c := m.Snapshot().Counters
	if total := int64(n * ops); c["issued"] != total || c["completed"] != total {
		t.Fatalf("issued %d completed %d, want %d each", c["issued"], c["completed"], total)
	}
	if c["hot_completed"]+c["cold_completed"] != c["completed"] || c["hot_completed"] != int64(len(hot)) {
		t.Fatalf("hot %d + cold %d vs completed %d (%d shared adds)",
			c["hot_completed"], c["cold_completed"], c["completed"], len(hot))
	}
	for _, key := range engaged {
		if c[key] == 0 {
			t.Errorf("counter %s is zero — the plan never exercised it\n%v", key, c)
		}
	}
}

func repeat(op rmw.Mapping, n int) []rmw.Mapping {
	ops := make([]rmw.Mapping, n)
	for i := range ops {
		ops[i] = op
	}
	return ops
}

// TestMetaShard walks one module's metadata shard through what its owner
// does to it: file in order, re-file an id already filed (a retransmit or a
// duplicate under a fault plan: the entry is replaced where it stands, and
// the replaced body handed back to be freed), take the head, take an id
// never filed (an orphan), take from behind the head, and the holder's crash
// flush, which reports every filed leaf lost, frees their bodies and leaves
// the shard empty and usable.  The store stays closed throughout: its live
// bodies are the filed ones.
func TestMetaShard(t *testing.T) {
	_, inj := newAdders(1, 0)
	l := newLoopback(nil, inj)
	l.links.Holds = []int32{0}
	sh := &l.meta[0]
	for i, tc := range []struct {
		op    string // file, refile (file searching for the id), take or crash
		id    word.ReqID
		src   int          // the entry filed, or the one take returns (-1: none)
		lost  []word.ReqID // crash: the leaves reported lost
		after []int        // the filed boxes' Src, oldest first
	}{
		{op: "file", id: 1, src: 10, after: []int{10}},
		{op: "file", id: 2, src: 20, after: []int{10, 20}},
		{op: "file", id: 3, src: 30, after: []int{10, 20, 30}},
		{op: "refile", id: 2, src: 21, after: []int{10, 21, 30}},
		{op: "take", id: 1, src: 10, after: []int{21, 30}},
		{op: "take", id: 9, src: -1, after: []int{21, 30}},
		{op: "take", id: 3, src: 30, after: []int{21}},
		{op: "file", id: 4, src: 40, after: []int{21, 40}},
		{op: "crash", lost: []word.ReqID{2, 4}},
		{op: "take", id: 2, src: -1},
		{op: "file", id: 5, src: 50, after: []int{50}},
		{op: "refile", id: 6, src: 60, after: []int{50, 60}},
		{op: "take", id: 6, src: 60, after: []int{50}},
		{op: "take", id: 5, src: 50},
	} {
		switch tc.op {
		case "file", "refile":
			m := Fwd{Req: core.NewRequest(tc.id, 0, rmw.FetchAdd(1), word.ProcID(tc.src)), Src: tc.src}
			e := l.store.put(&m)
			if old := sh.file(&e, l.store, tc.op == "refile"); old != 0 {
				l.store.Free(old)
			}
		case "take":
			got, ok := sh.take(tc.id, l.store)
			if ok {
				b := l.store.At(got.H)
				if b.Req.ID != tc.id || int(b.Src) != tc.src {
					t.Fatalf("step %d: take %d returned %+v, want Src %d", i, tc.id, *b, tc.src)
				}
				l.store.Free(got.H)
			} else if tc.src >= 0 {
				t.Fatalf("step %d: take %d found nothing, want Src %d", i, tc.id, tc.src)
			}
		case "crash":
			lost := l.flush(0)
			sort.Slice(lost, func(a, b int) bool { return lost[a] < lost[b] })
			if !reflect.DeepEqual(lost, tc.lost) {
				t.Fatalf("step %d: the crash lost %v, want %v", i, lost, tc.lost)
			}
		}
		var after []int
		for _, e := range sh.boxes() {
			after = append(after, int(l.store.At(e.H).Src))
		}
		if !reflect.DeepEqual(after, tc.after) || l.inMemory() != len(tc.after) || l.store.Live() != len(tc.after) {
			t.Fatalf("step %d (%s %d): filed %v (%d in memory, %d bodies live), want %v",
				i, tc.op, tc.id, after, l.inMemory(), l.store.Live(), tc.after)
		}
	}
}

// TestMaskEdges: the step prologue fills the stall and crash masks only
// while some window is open and on the cycle after (Shell.updateMasks); a
// machine that does so must be indistinguishable from one that asks every
// site every cycle.  The plans are the ones the skip could get wrong —
// windows that abut, windows that overlap, wildcard sites, long quiet gaps
// between windows, a window closing on the run's last cycle and one still
// open there.  Each runs twice, the second time with the skip forced off,
// and both are held cycle by cycle to the injector's own per-site answers:
// who is down, a crash noted (and the station flushed) on each rising edge,
// a restore on each falling edge; at the end every counter and every reply
// agrees.
func TestMaskEdges(t *testing.T) {
	const n, ops, total = 8, 150, 320
	type W = faults.Window
	for _, tc := range []struct {
		name string
		plan faults.Plan
	}{
		{"abutting", faults.Plan{Seed: 1,
			Crashes:    []W{{Stage: 0, Index: 0, From: 10, To: 20}, {Stage: 0, Index: 0, From: 20, To: 30}},
			MemCrashes: []W{{Stage: -1, Index: 2, From: 30, To: 40}, {Stage: -1, Index: 2, From: 40, To: 45}},
			Stalls:     []W{{Stage: 0, Index: 0, From: 45, To: 50}, {Stage: 0, Index: 0, From: 50, To: 51}}}},
		{"overlapping", faults.Plan{Seed: 2,
			Stalls:     []W{{Stage: -1, Index: 0, From: 5, To: 15}, {Stage: 0, Index: -1, From: 12, To: 18}},
			Crashes:    []W{{Stage: -1, Index: -1, From: 16, To: 26}, {Stage: 0, Index: 0, From: 20, To: 24}},
			MemCrashes: []W{{Stage: -1, Index: -1, From: 22, To: 34}, {Stage: -1, Index: 3, From: 30, To: 60}}}},
		{"far apart", faults.Plan{Seed: 3, DropFwd: 0.01,
			Crashes:    []W{{Stage: 0, Index: 0, From: 40, To: 42}, {Stage: 0, Index: 0, From: 300, To: 301}},
			MemCrashes: []W{{Stage: -1, Index: 0, From: 150, To: 153}},
			Stalls:     []W{{Stage: 0, Index: 0, From: 1, To: 2}, {Stage: 0, Index: 0, From: 3, To: 3}}}},
		{"last cycle", faults.Plan{Seed: 4,
			Crashes:    []W{{Stage: 0, Index: 0, From: total - 10, To: total}},
			MemCrashes: []W{{Stage: -1, Index: 1, From: total - 5, To: total + 1}, {Stage: -1, Index: -1, From: total - 30, To: total - 1}},
			Stalls:     []W{{Stage: 0, Index: 0, From: total, To: total + 9}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(everyCycle bool) (*loopback, []*adder) {
				adders, inj := newAdders(n, ops)
				plan := tc.plan
				l := newLoopback(&plan, inj)
				oracle := faults.NewInjector(tc.plan)
				var crashes, restores, flushed int64
				swWas, modWas := false, make([]bool, n)
				for c := int64(1); c <= total; c++ {
					held, _, _ := l.Stations().Occupancy(0)
					l.masked = l.masked || everyCycle
					l.Step()
					stalled, dead := oracle.Stalled(0, 0, c), oracle.SwitchCrashed(0, 0, c)
					if dead && !swWas {
						crashes++
						flushed += int64(held)
					} else if !dead && swWas {
						restores++
					}
					swWas = dead
					if l.Down(0) != (stalled || dead) || l.Dead(0) != dead {
						t.Fatalf("cycle %d: station down %v dead %v; the plan says stalled %v dead %v", c, l.Down(0), l.Dead(0), stalled, dead)
					}
					if fwd, _, _ := l.Stations().Occupancy(0); dead && fwd != 0 {
						t.Fatalf("cycle %d: the crashed station holds %d requests", c, fwd)
					}
					for mod := range modWas {
						dead := oracle.MemCrashed(mod, c)
						if dead && !modWas[mod] {
							crashes++
						} else if !dead && modWas[mod] {
							restores++
						}
						modWas[mod] = dead
						if l.ModuleDead(mod) != dead {
							t.Fatalf("cycle %d: module %d dead %v; the plan says %v", c, mod, l.ModuleDead(mod), dead)
						}
					}
					if l.rec.crashes != crashes || l.rec.restores != restores {
						t.Fatalf("cycle %d: %d crashes and %d restores noted; the plan's edges so far are %d and %d",
							c, l.rec.crashes, l.rec.restores, crashes, restores)
					}
				}
				got := l.Snapshot().Counters
				if got["stall_cycles"] != oracle.StallCycles.Load() || got["crash_cycles"] != oracle.CrashCycles.Load() {
					t.Fatalf("stall_cycles %d crash_cycles %d; asking every site every cycle counts %d and %d",
						got["stall_cycles"], got["crash_cycles"], oracle.StallCycles.Load(), oracle.CrashCycles.Load())
				}
				if crashes == 0 || got["stall_cycles"] == 0 || (flushed > 0 && got["lost_in_flight"] == 0) {
					t.Fatalf("vacuous plan: %d crashes, %d stall cycles, %d requests flushed, %d lost in flight",
						crashes, got["stall_cycles"], flushed, got["lost_in_flight"])
				}
				return l, adders
			}
			skipping, adders := run(false)
			asking, askAdders := run(true)
			if a, b := skipping.Snapshot().Counters, asking.Snapshot().Counters; !reflect.DeepEqual(a, b) {
				t.Fatalf("the runs differ:\nskipping quiet cycles: %v\nasking every cycle:    %v", a, b)
			}
			for p := range adders {
				if !reflect.DeepEqual(adders[p].hot, askAdders[p].hot) || !reflect.DeepEqual(adders[p].private, askAdders[p].private) {
					t.Fatalf("proc %d saw different replies in the two runs", p)
				}
			}
			if !skipping.Drain(200000) {
				t.Fatalf("did not drain:\n%s", skipping.StallReport())
			}
			checkAdders(t, skipping, adders, ops, []string{"crashes", "restores"})
		})
	}
}

// TestFaultedTickCounts: under a fault plan Tick skips an idle module only
// on a quiet cycle, because a tick counts per module-cycle on the others —
// a checkpoint on every due cycle, a lost module-cycle inside a slowdown
// window — whether or not the module holds work.  Under module crashes,
// checkpoints and slowdown windows (some over every module, some over one,
// one overlapping that module's crash), checkpoints must equal the live
// modules summed over due cycles and mem_stall_cycles the live modules a
// window matches summed over its cycles, with idle modules among both; the
// index must match the modules after every cycle.
func TestFaultedTickCounts(t *testing.T) {
	const n, ops, total, every = 8, 20, 600, 16
	type W = faults.Window
	plan := faults.Plan{Seed: 6, DropFwd: 0.01, CheckpointEvery: every,
		MemCrashes: []W{{Stage: -1, Index: 2, From: 40, To: 70}, {Stage: -1, Index: -1, From: 500, To: 510}},
		MemStalls:  []W{{Stage: -1, Index: 1, From: 20, To: 60}, {Stage: -1, Index: 2, From: 50, To: 90}, {Stage: -1, Index: -1, From: 400, To: 440}},
	}
	adders, inj := newAdders(n, ops)
	l := newLoopback(&plan, inj)
	oracle := faults.NewInjector(plan)
	var checkpoints, stalls, idleDue, idleStalled int64
	for c := int64(1); c <= total; c++ {
		// The loopback ticks its modules first, so what a module holds now is
		// what its tick will find (a crash edge empties it first).
		idle := make([]bool, n)
		for mod := range idle {
			idle[mod] = l.Memory().Module(mod).Work() == 0
		}
		l.Step()
		if err := l.CheckLoads(); err != nil {
			t.Fatal(err)
		}
		for mod := 0; mod < n; mod++ {
			if oracle.MemCrashed(mod, c) {
				continue
			}
			if c%every == 0 {
				checkpoints++
				if idle[mod] {
					idleDue++
				}
			}
			if oracle.MemStalled(mod, c) {
				stalls++
				if idle[mod] {
					idleStalled++
				}
			}
		}
	}
	got := l.Snapshot().Counters
	if got["checkpoints"] != checkpoints || got["mem_stall_cycles"] != stalls {
		t.Fatalf("checkpoints %d, mem_stall_cycles %d; the live modules sum to %d and %d",
			got["checkpoints"], got["mem_stall_cycles"], checkpoints, stalls)
	}
	if idleDue == 0 || idleStalled == 0 {
		t.Fatalf("vacuous plan: %d idle modules on due cycles, %d inside slowdown windows", idleDue, idleStalled)
	}
	if !l.Drain(200000) {
		t.Fatalf("did not drain:\n%s", l.StallReport())
	}
	checkAdders(t, l, adders, ops, []string{"crashes", "restores", "checkpoints", "mem_stall_cycles", "drops_fwd"})
}
