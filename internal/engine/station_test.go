package engine

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// Tests of the combining station by itself — no shell, no wiring, no clock:
// requests are pushed at it, a model memory pops its forward queues and
// answers, and the replies it hands back are compared with what a serial
// memory would have said (core.SerialReplies).

// families is one generator per combinable family of Section 5: the
// mappings a family draws combine with each other, so a stream that keeps
// one family per address exercises rmw.Compose for that family at every
// combine.
var families = []struct {
	name string
	draw func(r *rand.Rand) rmw.Mapping
}{
	{"load-store-swap", func(r *rand.Rand) rmw.Mapping {
		return []rmw.Mapping{rmw.Load{}, rmw.StoreOf(r.Int64N(100)), rmw.SwapOf(r.Int64N(100))}[r.IntN(3)]
	}},
	{"fetch-add", func(r *rand.Rand) rmw.Mapping { return rmw.FetchAdd(r.Int64N(9) - 4) }},
	{"fetch-or", func(r *rand.Rand) rmw.Mapping { return rmw.FetchOr(r.Int64N(256)) }},
	{"fetch-and", func(r *rand.Rand) rmw.Mapping { return rmw.FetchAnd(r.Int64N(256)) }},
	{"fetch-xor", func(r *rand.Rand) rmw.Mapping { return rmw.FetchXor(r.Int64N(256)) }},
	{"fetch-min", func(r *rand.Rand) rmw.Mapping { return rmw.FetchMin(r.Int64N(100)) }},
	{"fetch-max", func(r *rand.Rand) rmw.Mapping { return rmw.FetchMax(r.Int64N(100)) }},
	{"boolean-masks", func(r *rand.Rand) rmw.Mapping {
		m := uint64(r.Int64N(1 << 16))
		return []rmw.Mapping{rmw.BoolOf(rmw.BLoad), rmw.BoolSetBits(m), rmw.BoolClearBits(m),
			rmw.BoolComplementBits(m), rmw.PartialStore(m, uint64(r.Int64N(1<<16)))}[r.IntN(5)]
	}},
	{"affine", func(r *rand.Rand) rmw.Mapping {
		return []rmw.Mapping{rmw.AffineAdd(r.Int64N(5)), rmw.AffineMul(r.Int64N(3) + 1), rmw.AffineRSub(r.Int64N(10))}[r.IntN(3)]
	}},
	// Möbius maps compose by matrix product in floating point; the stream
	// keeps to pole-free maps over small dyadic values, where one rounding
	// and two agree exactly.
	{"moebius", func(r *rand.Rand) rmw.Mapping {
		return []rmw.Mapping{rmw.MoebiusAdd(1.5), rmw.MoebiusAdd(-0.25), rmw.MoebiusMul(-1)}[r.IntN(3)]
	}},
	{"full-empty", func(r *rand.Rand) rmw.Mapping {
		return []rmw.Mapping{rmw.FELoad(), rmw.FELoadClear(), rmw.FEStoreSet(r.Int64N(9)), rmw.FEStoreIfClearSet(r.Int64N(9)),
			rmw.FEStoreClear(3), rmw.FELoadIfSetClear(), rmw.FEStoreIfSet(5), rmw.FEStoreIfClear(6)}[r.IntN(8)]
	}},
	{"rme-lock", func(r *rand.Rand) rmw.Mapping {
		return []rmw.Mapping{rmw.RMEAcquire(r.Int64N(8) + 1), rmw.RMERelease(), rmw.RMEInspect()}[r.IntN(3)]
	}},
	{"test-and-set", func(*rand.Rand) rmw.Mapping { return rmw.TestAndSet() }},
}

// bench is one station under test with its model memory: cells, the leaf
// requests in the order memory serialized them (per address), and every
// leaf reply the station has handed back.
type bench struct {
	t       *testing.T
	st      *Station
	deg     int
	cells   map[word.Addr]word.Word
	serial  map[word.Addr][]core.Leaf
	replies map[word.ReqID]word.Word
	nextID  word.ReqID
	sh      Shard
}

func newBench(t *testing.T, deg, queueCap, revCap, waitCap int, reversal bool) *bench {
	st := NewStations(1, deg, deg, queueCap, revCap, waitCap, core.Policy{AllowReversal: reversal})
	return &bench{t: t, st: &st[0], deg: deg, cells: map[word.Addr]word.Word{},
		serial: map[word.Addr][]core.Leaf{}, replies: map[word.ReqID]word.Word{}}
}

// offer pushes one request from processor src, arriving on input port in; it
// joins the queue its address routes to.  It reports whether the station
// took it.
func (b *bench) offer(src, in int, addr word.Addr, op rmw.Mapping) (word.ReqID, bool) {
	b.nextID++
	m := Fwd{Req: core.NewRequest(b.nextID, addr, op, word.ProcID(src)).WithReps(), Src: src}
	return b.nextID, b.st.PutFwd(&m, int(addr)%b.deg, Path(0).Push(int32(in)), 0, &b.sh)
}

// serve pops the head of forward queue out — the message reaches memory —
// executes it and, unless lose is set, hands the station the reply.
func (b *bench) serve(out int, lose bool) {
	m := b.st.TakeFwd(out)
	if lose {
		return
	}
	b.serial[m.Req.Addr] = append(b.serial[m.Req.Addr], m.Req.Reps()...)
	cell := b.cells[m.Req.Addr]
	rep := core.Execute(&cell, m.Req)
	b.cells[m.Req.Addr] = cell
	var home []RevEntry
	b.st.PutRev(&Rev{Rep: rep, Path: m.Path, Src: m.Src}, 0, &home)
	if len(home) != 0 {
		b.t.Fatalf("a reply with an unspent path came home: %+v", home)
	}
}

// drain pops up to max replies, reverse queue start first, and files them.
func (b *bench) drain(start, max int) {
	for i := range b.st.Rev {
		port := (start + i) % len(b.st.Rev)
		for q := &b.st.Rev[port]; q.Len() > 0 && max > 0; max-- {
			r := b.st.TakeRev(port)
			if _, dup := b.replies[r.Rep.ID]; dup {
				b.t.Fatalf("request %d answered twice", r.Rep.ID)
			}
			if r.Path != 0 {
				b.t.Fatalf("reply %d left on port %d with path %#x", r.Rep.ID, port, r.Path)
			}
			b.replies[r.Rep.ID] = r.Rep.Val
		}
	}
}

// check compares every leaf reply with the serial execution of its cell.
func (b *bench) check(label string) {
	b.t.Helper()
	answered := 0
	for addr, leaves := range b.serial {
		ops := make([]rmw.Mapping, len(leaves))
		for i, lf := range leaves {
			ops[i] = lf.Op
		}
		want, final := core.SerialReplies(word.Word{}, ops)
		for i, lf := range leaves {
			got, ok := b.replies[lf.ID]
			if !ok || got != want[i] {
				b.t.Fatalf("%s: cell %d, leaf %d (%v, %d-th in serial order): reply %v (present %v), serial %v",
					label, addr, lf.ID, lf.Op, i, got, ok, want[i])
			}
		}
		if b.cells[addr] != final {
			b.t.Fatalf("%s: cell %d holds %v, serial %v", label, addr, b.cells[addr], final)
		}
		answered += len(leaves)
	}
	if answered != len(b.replies) {
		b.t.Fatalf("%s: %d replies for %d leaves that reached memory", label, len(b.replies), answered)
	}
}

// TestStationModel: random request streams — one hot address, or a few with
// a family each — into one station at wait-buffer capacities 0, 1, 3 and
// unbounded, with and without order reversal, memory serving the queues in
// random interleaving; every decombined leaf must carry the value the serial
// execution of its cell gives it, each exactly once, and the station must be
// empty afterwards.
func TestStationModel(t *testing.T) {
	for fi, fam := range families {
		for _, waitCap := range []int{0, 1, 3, core.Unbounded} {
			for _, reversal := range []bool{false, true} {
				for _, addrs := range []int{1, 5} {
					label := fmt.Sprintf("%s/wait%d/reversal=%v/addrs=%d", fam.name, waitCap, reversal, addrs)
					r := rand.New(rand.NewPCG(uint64(fi*100+waitCap+3), uint64(addrs)))
					b := newBench(t, 3, 0, 0, waitCap, reversal)
					for step := 0; step < 400; step++ {
						switch {
						case r.IntN(3) > 0:
							addr := word.Addr(r.IntN(addrs))
							// Each address keeps one family; the others fall
							// back on the next ones in the table.
							op := families[(fi+int(addr))%len(families)].draw(r)
							if _, ok := b.offer(r.IntN(8), r.IntN(3), addr, op); !ok {
								t.Fatalf("%s: an unbounded queue refused a request", label)
							}
						case r.IntN(2) == 0:
							if out := r.IntN(3); b.st.Fwd[out].Len() > 0 {
								b.serve(out, false)
							}
						default:
							b.drain(r.IntN(3), r.IntN(4))
						}
					}
					for out := range b.st.Fwd {
						for b.st.Fwd[out].Len() > 0 {
							b.serve(out, false)
						}
					}
					b.drain(0, 1<<30)
					b.check(label)
					if fwd, rev, wait := b.st.Occupancy(); fwd+rev+wait != 0 {
						t.Fatalf("%s: station holds %d/%d/%d after the drain", label, fwd, rev, wait)
					}
					if int(b.nextID) != len(b.replies) {
						t.Fatalf("%s: %d requests, %d replies", label, b.nextID, len(b.replies))
					}
					if waitCap == 0 && (b.sh.Combines != 0 || (addrs == 1 && b.st.Wait.Rejections == 0)) {
						t.Fatalf("%s: %d combines, %d rejections with the wait buffer off", label, b.sh.Combines, b.st.Wait.Rejections)
					}
					if waitCap == core.Unbounded && addrs == 1 && b.sh.Combines == 0 {
						t.Fatalf("%s: a hot stream never combined", label)
					}
				}
			}
		}
	}
}

// TestStationKWayCombine: k requests for one cell meeting in one queue leave
// as one message and come back as k replies, undone most recent first.
func TestStationKWayCombine(t *testing.T) {
	for _, k := range []int{2, 3, 8, 33} {
		b := newBench(t, 2, 0, 0, core.Unbounded, false)
		for i := 0; i < k; i++ {
			b.offer(i, i%2, 4, rmw.FetchAdd(int64(i+1)))
		}
		if n := b.st.Fwd[0].Len(); n != 1 || b.st.Wait.Len() != k-1 || b.sh.Combines != int64(k-1) {
			t.Fatalf("k=%d: %d messages queued, %d records, %d combines", k, n, b.st.Wait.Len(), b.sh.Combines)
		}
		b.serve(0, false)
		b.drain(0, 1<<30)
		b.check(fmt.Sprintf("k=%d", k))
		if len(b.replies) != k || b.st.Wait.Len() != 0 {
			t.Fatalf("k=%d: %d replies, %d records left", k, len(b.replies), b.st.Wait.Len())
		}
	}
}

// TestStationStaleRecordPassesThrough: a combined message dropped downstream
// leaves its record behind; when the first requester's retransmit is
// answered — by a reply that names its leaves exactly, as a reply-caching
// module's does — the reply passes through (PopMatch skips the record) and
// nothing is synthesized for the second requester, who recovers by its own
// retransmit.
func TestStationStaleRecordPassesThrough(t *testing.T) {
	b := newBench(t, 2, 0, 0, core.Unbounded, false)
	first, _ := b.offer(1, 0, 6, rmw.FetchAdd(1))
	second, _ := b.offer(2, 1, 6, rmw.FetchAdd(10))
	b.serve(0, true) // the combined message dies on the next link
	if b.st.Wait.Len() != 1 {
		t.Fatalf("%d records after the combine", b.st.Wait.Len())
	}
	var home []RevEntry
	b.st.PutRev(&Rev{Rep: core.Reply{ID: first, Val: word.W(40), Attempt: 1,
		Leaves: &[]core.LeafVal{{ID: first, Val: word.W(40)}}}, Path: Path(0).Push(0), Src: 1}, 0, &home)
	b.drain(0, 1<<30)
	if got, ok := b.replies[first]; !ok || got != word.W(40) || len(b.replies) != 1 {
		t.Fatalf("replies after the retransmit's answer: %v", b.replies)
	}
	if _, ok := b.replies[second]; ok || b.st.Wait.Len() != 1 {
		t.Fatalf("the stale record was consumed (records left: %d, replies %v)", b.st.Wait.Len(), b.replies)
	}
	// The reply of the combine itself — both leaves named — does match.
	b.st.PutRev(&Rev{Rep: core.Reply{ID: first, Val: word.W(40),
		Leaves: &[]core.LeafVal{{ID: first, Val: word.W(40)}, {ID: second, Val: word.W(41)}}}, Path: Path(0).Push(0), Src: 1}, 0, &home)
	if b.st.Wait.Len() != 0 || b.st.Rev[1].Len() != 1 || b.st.Body(b.st.Rev[1].Front().H).Val != word.W(41) {
		t.Fatalf("the matching reply did not decombine: %d records, %d replies toward the second requester",
			b.st.Wait.Len(), b.st.Rev[1].Len())
	}
}

// TestStationReverseBound: whatever the degree, a station that admits
// replies only through CanAcceptRev never holds more than revCap + waitCap
// replies in one reverse queue — each leaf beyond the first consumes a wait
// record the station itself created (TestReverseQueueBoundInvariant asserts
// the same on a whole omega network).
func TestStationReverseBound(t *testing.T) {
	for _, deg := range []int{1, 2, 3, 5, 8} {
		const revCap, waitCap = 2, 3
		r := rand.New(rand.NewPCG(uint64(deg), 7))
		b := newBench(t, deg, 0, revCap, waitCap, true)
		held, peak := 0, 0
		for step := 0; step < 3000; step++ {
			switch r.IntN(3) {
			case 0:
				// Most requests arrive on one port: their replies leave by it.
				b.offer(r.IntN(16), r.IntN(deg)*(r.IntN(4)/3), word.Addr(r.IntN(2)), rmw.FetchAdd(1))
			case 1:
				if out := r.IntN(deg); b.st.Fwd[out].Len() > 0 {
					if !b.st.CanAcceptRev() {
						held++ // memory holds its reply: no credit
						continue
					}
					b.serve(out, false)
				}
			default:
				b.drain(r.IntN(deg), 1)
			}
			for port := range b.st.Rev {
				if n := b.st.Rev[port].Len(); n > revCap+waitCap {
					t.Fatalf("degree %d: reverse queue %d holds %d > %d + %d", deg, port, n, revCap, waitCap)
				}
				peak = max(peak, b.st.Rev[port].Len())
			}
		}
		if held == 0 || peak <= revCap || b.st.MaxRev() != peak {
			t.Fatalf("degree %d: %d holds, peak %d (MaxRev %d): the bound was never approached", deg, held, peak, b.st.MaxRev())
		}
	}
}

// TestStationCrashReturnsWhatItHeld: the flush reports exactly the leaves
// whose only copy was in the station — in a forward queue (every leaf of a
// combined message), in a wait record (the second requester's), or in a
// reverse queue — and leaves it empty.
func TestStationCrashReturnsWhatItHeld(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 13))
	b := newBench(t, 3, 0, 0, 4, true)
	for step := 0; step < 300; step++ {
		switch r.IntN(5) {
		case 0, 1, 2:
			b.offer(r.IntN(8), r.IntN(3), word.Addr(r.IntN(4)), rmw.FetchAdd(1))
		case 3:
			if out := r.IntN(3); b.st.Fwd[out].Len() > 0 {
				b.serve(out, false)
			}
		default:
			b.drain(r.IntN(3), 1)
		}
	}
	// Make sure all three places hold something: two requests that meet in
	// queue 0, and an answered message whose replies nobody has collected.
	b.offer(1, 0, 0, rmw.FetchAdd(1))
	b.offer(2, 1, 0, rmw.FetchAdd(1))
	b.offer(3, 2, 1, rmw.FetchAdd(1))
	b.serve(1, false)
	fwd, rev, wait := b.st.Occupancy()
	if fwd == 0 || rev == 0 || wait == 0 {
		t.Fatalf("the station holds %d/%d/%d: nothing to lose in one of the three places", fwd, rev, wait)
	}
	lost := map[word.ReqID]bool{}
	for _, id := range b.st.Crash() {
		lost[id] = true
	}
	if live := b.st.store.Live(); live != 0 {
		t.Fatalf("%d bodies live after the flush", live)
	}
	// Nothing is inside the model memory between steps, so every request not
	// yet answered was in the station.
	for id := word.ReqID(1); id <= b.nextID; id++ {
		if _, answered := b.replies[id]; answered == lost[id] {
			t.Fatalf("request %d: answered %v, reported lost %v", id, answered, lost[id])
		}
	}
	if fwd, rev, wait := b.st.Occupancy(); fwd+rev+wait != 0 {
		t.Fatalf("the station holds %d/%d/%d after the flush", fwd, rev, wait)
	}
}

// TestStationSteadyStateZeroAlloc: at steady state — queues and store at
// their working size — taking a request, taking a reply that decombines
// nothing, and refusing a combine for want of a wait record allocate
// nothing.  (A committed combine merges source sets into fresh storage: that
// allocation is the combine's meaning, not the station's overhead.)
func TestStationSteadyStateZeroAlloc(t *testing.T) {
	st := &NewStations(1, 2, 2, 4, 0, 0, core.Policy{})[0]
	var sh Shard
	var home []RevEntry
	hot := Fwd{Req: core.NewRequest(1, 8, rmw.FetchAdd(1), 0), Src: 0}
	path := Path(0).Push(1)
	st.PutFwd(&hot, 0, path, 0, &sh) // the partner every later arrival finds
	// The messages live outside the round, as they do in a machine: the
	// station is handed pointers into ports and channels.
	m, r := hot, Rev{Path: path}
	cycle := func() {
		m.Req.ID++
		if !st.PutFwd(&m, 0, path, 0, &sh) {
			panic("refused below capacity")
		}
		st.TakeFwd(0)
		r.Rep.ID = m.Req.ID
		st.PutRev(&r, 0, &home)
		st.TakeRev(1)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	before := st.Wait.Rejections
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("accept + pass-through reply: %.1f allocs per round, want 0", allocs)
	}
	if st.Wait.Rejections == before || sh.Combines != 0 {
		t.Fatalf("the rounds never met a partner (%d rejections, %d combines)", st.Wait.Rejections-before, sh.Combines)
	}
}

// TestStationScanMatchesCombineAtTail: the station writes the tail scan out
// (Station.combine); core.CombineAtTail remains its definition.  Random
// queues — filled behind the station's back, so a non-combinable partner can
// shadow a combinable one, which no sequence of accepts produces with room in
// the wait buffer — meet random arrivals: fresh and retransmitted, with the
// wait buffer off, full, nearly full and unbounded, with and without order
// reversal.  Whatever CombineAtTail says of the queue as it stood — partner
// index, combined request, record, which of the two was serialized first,
// whether a full buffer forfeited the combine — the station must have done.
func TestStationScanMatchesCombineAtTail(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 19))
	draw := func(id word.ReqID) Fwd {
		var op rmw.Mapping
		switch r.IntN(4) {
		case 0, 1:
			op = families[0].draw(r) // load, store, swap: reversal pays here
		case 2:
			op = rmw.FetchAdd(r.Int64N(5))
		default:
			op = rmw.FetchOr(r.Int64N(5)) // combines with no add
		}
		src := r.IntN(6)
		m := Fwd{Req: core.NewRequest(id, word.Addr(r.IntN(3)), op, word.ProcID(src)).WithReps(),
			Src: src, Issue: int64(id), Hot: r.IntN(2) == 0, Path: Path(id)}
		if r.IntN(8) == 0 {
			m.Req.Attempt = 1
		}
		return m
	}
	reqOf := func(m *Fwd) *core.Request { return &m.Req }
	var combined, swapped, rejectedN, shadowed, retransmits int
	for trial := 0; trial < 4000; trial++ {
		pol := core.Policy{AllowReversal: r.IntN(2) == 0}
		waitCap := []int{0, 2, 2, core.Unbounded}[r.IntN(4)]
		st := &NewStations(1, 1, 1, 0, 0, waitCap, pol)[0]
		var events []EventKind
		st.Trace = func(kind EventKind, _, _ word.ReqID, _ word.Addr) { events = append(events, kind) }
		for i := r.IntN(3); i > 0; i-- {
			st.Wait.Push(word.ReqID(1000+i), Record{}) // other combines' records
		}
		q := &st.Fwd[0]
		for i := r.IntN(7); i > 0; i-- {
			m := draw(word.ReqID(i))
			*q.Push() = st.store.put(&m)
		}
		m := draw(100)
		before := queued(st)
		tc, rejected, ok := core.CombineAtTail(append([]Fwd(nil), before...), reqOf, m.Req, pol, st.Wait.CanPush)
		rejections, records := st.Wait.Rejections, st.Wait.Len()

		var sh Shard
		if !st.PutFwd(&m, 0, m.Path, 7, &sh) {
			t.Fatalf("trial %d: an unbounded queue refused the request", trial)
		}
		after, moved := queued(st), q.View()[q.Len()-1].Moved

		if got := st.Wait.Rejections - rejections; (got == 1) != rejected || got > 1 {
			t.Fatalf("trial %d: %d rejections counted, CombineAtTail says rejected=%v", trial, got, rejected)
		}
		wantEvents := []EventKind(nil)
		if rejected {
			wantEvents = append(wantEvents, Rejected)
			rejectedN++
		}
		if ok {
			wantEvents = append(wantEvents, Combined)
		}
		if !reflect.DeepEqual(events, wantEvents) {
			t.Fatalf("trial %d: trace events %v, want %v", trial, events, wantEvents)
		}
		if !ok {
			// Appended whole, stamped, nothing else touched.
			want := append(before, m)
			if !reflect.DeepEqual(after, want) || moved != 7 || st.Wait.Len() != records || sh.Combines != 0 {
				t.Fatalf("trial %d: no combine, yet the queue is\n%+v\nwant\n%+v\n(%d records, were %d)", trial, after, want, st.Wait.Len(), records)
			}
			// Which of the interesting refusals was it?
			if p := lastFor(before, m.Req.Addr); p >= 0 {
				fresh := m.Req.Attempt == 0 && before[p].Req.Attempt == 0
				switch combinable := rmw.Combinable(before[p].Req.Op, m.Req.Op); {
				case combinable && !fresh:
					retransmits++
				case !combinable && fresh && hasCombinable(before[:p], m):
					shadowed++
				}
			}
			continue
		}
		combined++
		partner := before[tc.Index]
		first, second := partner, m
		if tc.Swapped {
			first, second = m, partner
			swapped++
		}
		want := append([]Fwd(nil), before...)
		want[tc.Index] = Fwd{Req: tc.Combined, Src: first.Src, Issue: first.Issue, Hot: first.Hot, Path: first.Path}
		if !reflect.DeepEqual(after, want) || q.View()[tc.Index].Moved != 0 {
			t.Fatalf("trial %d: after the combine the queue is\n%+v\nwant\n%+v", trial, after, want)
		}
		rec, found := st.Wait.Pop(tc.Rec.ID1)
		wantRec := Record{Record: tc.Rec, Path2: second.Path, H2: rec.H2,
			Needs1: rmw.NeedsValue(first.Req.Op), Needs2: rmw.NeedsValue(second.Req.Op)}
		if !found || !reflect.DeepEqual(rec, wantRec) || st.Wait.Len() != records || sh.Combines != 1 {
			t.Fatalf("trial %d: record %+v (found %v), want %+v; %d combines", trial, rec, found, wantRec, sh.Combines)
		}
		// The record keeps the second request's body: its source, tags and
		// leaves, for the reply the decombine writes there.
		wantBody := Body{Req: second.Req, Issue: second.Issue, Src: int32(second.Src), Hot: second.Hot}
		if got := *st.Body(rec.H2); !reflect.DeepEqual(got, wantBody) {
			t.Fatalf("trial %d: the record keeps body %+v, want %+v", trial, got, wantBody)
		}
	}
	if combined == 0 || swapped == 0 || rejectedN == 0 || shadowed == 0 || retransmits == 0 {
		t.Fatalf("%d combines, %d reversed, %d rejected, %d shadowed partners, %d retransmits refused: a case never came up",
			combined, swapped, rejectedN, shadowed, retransmits)
	}
}

// queued reads station st's forward queue 0 back in value form.
func queued(st *Station) []Fwd {
	var ms []Fwd
	for _, e := range st.Fwd[0].View() {
		ms = append(ms, st.store.fwd(&e))
	}
	return ms
}

// lastFor is the position of the last queued request for addr, or -1.
func lastFor(queue []Fwd, addr word.Addr) int {
	for i := len(queue) - 1; i >= 0; i-- {
		if queue[i].Req.Addr == addr {
			return i
		}
	}
	return -1
}

// hasCombinable reports whether some queued request would combine with m.
func hasCombinable(queue []Fwd, m Fwd) bool {
	for i := range queue {
		if queue[i].Req.Addr == m.Req.Addr && queue[i].Req.Attempt == 0 && rmw.Combinable(queue[i].Req.Op, m.Req.Op) {
			return true
		}
	}
	return false
}
