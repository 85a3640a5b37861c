package core

import (
	"reflect"
	"testing"

	"combining/internal/rmw"
	"combining/internal/word"
)

// TestFigure1 walks through Figure 1 of the paper: two fetch-and-add
// requests meet at a switch, combine, reach memory as one message, and the
// reply decombines into the two replies a serial execution would produce.
func TestFigure1(t *testing.T) {
	a := NewRequest(1, 100, rmw.FetchAdd(3), 0)
	b := NewRequest(2, 100, rmw.FetchAdd(5), 1)

	combined, rec, ok := Combine(a, b, Policy{})
	if !ok {
		t.Fatal("requests to the same address must combine")
	}
	if combined.ID != a.ID {
		t.Errorf("combined message carries id %d, want the first request's id %d", combined.ID, a.ID)
	}
	// f∘g must be fetch-and-add of 8.
	if got := combined.Op.Apply(word.W(0)).Val; got != 8 {
		t.Errorf("combined mapping adds %d, want 8", got)
	}

	cell := word.W(10)
	reply := Execute(&cell, combined)
	if cell.Val != 18 {
		t.Errorf("memory after combined request = %d, want 18", cell.Val)
	}

	ra, rb := Decombine(rec, reply)
	if ra.ID != 1 || ra.Val.Val != 10 {
		t.Errorf("first reply = %v, want ⟨1, 10⟩", ra)
	}
	if rb.ID != 2 || rb.Val.Val != 13 {
		t.Errorf("second reply = %v, want ⟨2, 13⟩ (= f(10))", rb)
	}
}

func TestCombineAddressMismatch(t *testing.T) {
	a := NewRequest(1, 100, rmw.FetchAdd(3), 0)
	b := NewRequest(2, 101, rmw.FetchAdd(5), 1)
	if _, _, ok := Combine(a, b, Policy{}); ok {
		t.Fatal("requests to different addresses must not combine")
	}
}

func TestCombineForeignFamilies(t *testing.T) {
	a := NewRequest(1, 100, rmw.FetchAdd(3), 0)
	b := NewRequest(2, 100, rmw.FetchMin(5), 1)
	if _, _, ok := Combine(a, b, Policy{}); ok {
		t.Fatal("uncombinable mappings must be forwarded separately")
	}
}

// TestRetransmitsCombine: a retransmit combines with a fresh request and
// with another retransmit, in either order; the combined message carries
// the larger attempt, and with the books kept its representation list names
// every leaf, in serialization order, whatever attempt each copy was.
func TestRetransmitsCombine(t *testing.T) {
	pol := Policy{Bookkeeping: true}
	req := func(id word.ReqID, src word.ProcID, attempt uint32) Request {
		r := NewRequest(id, 9, rmw.FetchAdd(int64(id)), src)
		r.Attempt = attempt
		return r
	}
	for _, tc := range []struct{ a, b, want uint32 }{{1, 0, 1}, {0, 2, 2}, {3, 1, 3}, {2, 2, 2}} {
		a, b := req(1, 0, tc.a), req(2, 1, tc.b)
		ab, rec, ok := Combine(a, b, pol)
		if !ok {
			t.Fatalf("attempts %d and %d: no combine", tc.a, tc.b)
		}
		if ab.Attempt != tc.want || ab.ID != 1 || rec.ID1 != 1 || rec.ID2 != 2 {
			t.Fatalf("attempts %d and %d: combined ⟨%d⟩ attempt %d, record (%d, %d); want ⟨1⟩ attempt %d, record (1, 2)",
				tc.a, tc.b, ab.ID, ab.Attempt, rec.ID1, rec.ID2, tc.want)
		}
		// A third request, itself a retransmit, joins the combined one.
		abc, _, ok := Combine(ab, req(3, 2, tc.a+tc.b), pol)
		if !ok || abc.Attempt != max(tc.want, tc.a+tc.b) {
			t.Fatalf("attempts %d and %d, then %d: combined %v attempt %d", tc.a, tc.b, tc.a+tc.b, ok, abc.Attempt)
		}
		var one [1]Leaf
		var ids []word.ReqID
		for _, lf := range abc.Leaves(&one) {
			ids = append(ids, lf.ID)
			if want := word.ProcID(lf.ID - 1); lf.Src != want {
				t.Fatalf("leaf %d names processor %d, want %d", lf.ID, lf.Src, want)
			}
		}
		if !reflect.DeepEqual(ids, []word.ReqID{1, 2, 3}) {
			t.Fatalf("attempts %d and %d: the representation list names %v, want [1 2 3]", tc.a, tc.b, ids)
		}
	}
}

func TestCombineMergesSources(t *testing.T) {
	pol := Policy{AllowReversal: true}
	a := NewRequest(1, 9, rmw.FetchAdd(1), 4)
	b := NewRequest(2, 9, rmw.FetchAdd(1), 2)
	ab, _, _ := Combine(a, b, pol)
	c := NewRequest(3, 9, rmw.FetchAdd(1), 3)
	abc, _, _ := Combine(ab, c, pol)
	want := []word.ProcID{2, 3, 4}
	if len(abc.Srcs()) != len(want) {
		t.Fatalf("Srcs = %v, want %v", abc.Srcs(), want)
	}
	for i, s := range want {
		if abc.Srcs()[i] != s {
			t.Fatalf("Srcs = %v, want %v", abc.Srcs(), want)
		}
	}
}

// TestSourcelessNeverReverses: a combine whose policy cannot reverse builds
// no lineage, and a message without a source set is never reversed again —
// its sources might include the other message's, so reversing could reorder
// one processor's own requests.  The store behind a load reverses when both
// sources are known and distinct, and not when either is missing.
func TestSourcelessNeverReverses(t *testing.T) {
	a := NewRequest(1, 5, rmw.FetchAdd(1), 0)
	b := NewRequest(2, 5, rmw.FetchAdd(2), 1)
	ab, _, ok := Combine(a, b, Policy{})
	if !ok || ab.Lin != nil {
		t.Fatalf("a combine without reversal or bookkeeping built lineage %+v", ab.Lin)
	}
	pol := Policy{AllowReversal: true}
	load := NewRequest(3, 5, rmw.Load{}, 2)
	store := NewRequest(4, 5, rmw.StoreOf(9), 3)
	if _, rec, _ := Combine(load, store, pol); !rec.Reversed {
		t.Fatal("a load and a store from distinct processors did not reverse")
	}
	sourceless := load
	sourceless.Lin = nil
	for _, pair := range [][2]Request{{sourceless, store}, {load, Request{ID: 4, Addr: 5, Op: rmw.StoreOf(9)}}} {
		combined, rec, ok := Combine(pair[0], pair[1], pol)
		if !ok || rec.Reversed {
			t.Fatalf("combine %v + %v: ok %v, reversed %v; want combined in order", pair[0], pair[1], ok, rec.Reversed)
		}
		if combined.Srcs() != nil {
			t.Fatalf("the union with an unknown source set is %v, want unknown", combined.Srcs())
		}
	}
	if _, rec, _ := Combine(ab, store, pol); rec.Reversed {
		t.Fatal("a combined message built without a lineage was reversed")
	}
}

// TestTableLoadStoreSwapReversed reproduces the second 3×3 table of
// Section 5.1 (experiment T2): with order reversal enabled, combining a
// store behind a load or swap reverses the pair so the combined message is
// a plain store and no value returns through the network.
func TestTableLoadStoreSwapReversed(t *testing.T) {
	mk := map[string]func() rmw.Mapping{
		"load":  func() rmw.Mapping { return rmw.Load{} },
		"store": func() rmw.Mapping { return rmw.StoreOf(11) },
		"swap":  func() rmw.Mapping { return rmw.SwapOf(22) },
	}
	want := map[[2]string]struct {
		op       string
		reversed bool
	}{
		{"load", "load"}:   {"load", false},
		{"load", "store"}:  {"store", true},
		{"load", "swap"}:   {"swap", false},
		{"store", "load"}:  {"store", false},
		{"store", "store"}: {"store", false},
		{"store", "swap"}:  {"store", false},
		{"swap", "load"}:   {"swap", false},
		{"swap", "store"}:  {"store", true},
		{"swap", "swap"}:   {"swap", false},
	}
	opName := func(m rmw.Mapping) string {
		switch v := m.(type) {
		case rmw.Load:
			return "load"
		case rmw.Const:
			if v.NeedOld {
				return "swap"
			}
			return "store"
		}
		return "?"
	}
	for pair, exp := range want {
		a := NewRequest(1, 5, mk[pair[0]](), 0)
		b := NewRequest(2, 5, mk[pair[1]](), 1)
		combined, rec, ok := Combine(a, b, Policy{AllowReversal: true})
		if !ok {
			t.Fatalf("%s+%s must combine", pair[0], pair[1])
		}
		if got := opName(combined.Op); got != exp.op {
			t.Errorf("%s+%s → %s, want %s", pair[0], pair[1], got, exp.op)
		}
		if rec.Reversed != exp.reversed {
			t.Errorf("%s+%s reversed=%v, want %v", pair[0], pair[1], rec.Reversed, exp.reversed)
		}
		// Whatever the order chosen, decombined replies must match a
		// serial execution in that order.
		cell := word.W(77)
		serialCell := cell
		first, second := a, b
		if rec.Reversed {
			first, second = b, a
		}
		wantReplies, _ := SerialReplies(serialCell, []rmw.Mapping{first.Op, second.Op})
		reply := Execute(&cell, combined)
		r1, r2 := Decombine(rec, reply)
		if r1.ID != first.ID || r1.Val != wantReplies[0] {
			t.Errorf("%s+%s first reply %v, want ⟨%d, %v⟩", pair[0], pair[1], r1, first.ID, wantReplies[0])
		}
		if r2.ID != second.ID || r2.Val != wantReplies[1] {
			t.Errorf("%s+%s second reply %v, want ⟨%d, %v⟩", pair[0], pair[1], r2, second.ID, wantReplies[1])
		}
	}
}

// TestReversalSameSourceGuard: "reversing operations is clearly wrong when
// successive requests of the same processor are combined" (Section 5.1).
func TestReversalSameSourceGuard(t *testing.T) {
	a := NewRequest(1, 5, rmw.Load{}, 3)
	b := NewRequest(2, 5, rmw.StoreOf(9), 3) // same processor
	combined, rec, ok := Combine(a, b, Policy{AllowReversal: true})
	if !ok {
		t.Fatal("must combine")
	}
	if rec.Reversed {
		t.Fatal("reversed two requests from the same processor")
	}
	// The load must see the value before its own store.
	cell := word.W(42)
	reply := Execute(&cell, combined)
	r1, _ := Decombine(rec, reply)
	if r1.Val.Val != 42 {
		t.Errorf("load reply = %d, want 42 (pre-store value)", r1.Val.Val)
	}
	if cell.Val != 9 {
		t.Errorf("final cell = %d, want 9", cell.Val)
	}

	// The guard must also apply transitively through combined messages.
	c := NewRequest(3, 5, rmw.StoreOf(1), 7)
	cd, _, _ := Combine(c, NewRequest(4, 5, rmw.Load{}, 3), Policy{})
	_, rec2, ok := Combine(NewRequest(5, 5, rmw.Load{}, 3), cd, Policy{AllowReversal: true})
	if !ok {
		t.Fatal("must combine")
	}
	if rec2.Reversed {
		t.Error("reversed across a combined message sharing processor 3")
	}
}

func TestWaitBuffer(t *testing.T) {
	t.Run("lifo-per-id", func(t *testing.T) {
		b := NewWaitBuffer[Record](Unbounded)
		r1 := Record{ID1: 1, ID2: 2, F: rmw.FetchAdd(1)}
		r2 := Record{ID1: 1, ID2: 3, F: rmw.FetchAdd(2)}
		if !b.Push(r1.ID1, r1) || !b.Push(r2.ID1, r2) {
			t.Fatal("pushes must succeed")
		}
		got, ok := b.Pop(1)
		if !ok || got.ID2 != 3 {
			t.Fatalf("first pop = %+v, want the most recent record (ID2=3)", got)
		}
		got, ok = b.Pop(1)
		if !ok || got.ID2 != 2 {
			t.Fatalf("second pop = %+v, want the older record (ID2=2)", got)
		}
		if _, ok := b.Pop(1); ok {
			t.Fatal("third pop must miss")
		}
		if b.Len() != 0 {
			t.Fatalf("Len = %d, want 0", b.Len())
		}
	})
	t.Run("capacity", func(t *testing.T) {
		b := NewWaitBuffer[Record](2)
		for i := 0; i < 2; i++ {
			id := word.ReqID(i + 1)
			if !b.Push(id, Record{ID1: id, ID2: 100, F: rmw.Load{}}) {
				t.Fatalf("push %d must succeed", i)
			}
		}
		if b.Push(9, Record{ID1: 9, ID2: 100, F: rmw.Load{}}) {
			t.Fatal("push beyond capacity must fail")
		}
		if b.Rejections != 1 || b.Combines != 2 {
			t.Fatalf("stats: rejections=%d combines=%d", b.Rejections, b.Combines)
		}
		b.Pop(1)
		if !b.CanPush() {
			t.Fatal("pop must free capacity")
		}
	})
	t.Run("disabled", func(t *testing.T) {
		b := NewWaitBuffer[Record](0)
		if b.Push(1, Record{ID1: 1, ID2: 2, F: rmw.Load{}}) {
			t.Fatal("capacity-0 buffer must reject all combines")
		}
	})
}

func TestValueSlots(t *testing.T) {
	cases := []struct {
		m         rmw.Mapping
		req, resp int
	}{
		{rmw.Load{}, 0, 1},
		{rmw.StoreOf(1), 1, 0},
		{rmw.SwapOf(1), 1, 1},
		{rmw.FetchAdd(1), 1, 1},
		{rmw.Bool{A: 1, B: 2}, 2, 1},
		{rmw.FEStoreIfClearSet(1), 1, 1},
		{rmw.FELoadClear(), 0, 1},
	}
	for _, tc := range cases {
		if got := ValueSlots(tc.m); got != tc.req {
			t.Errorf("ValueSlots(%v) = %d, want %d", tc.m, got, tc.req)
		}
		if got := ReplyValueSlots(tc.m); got != tc.resp {
			t.Errorf("ReplyValueSlots(%v) = %d, want %d", tc.m, got, tc.resp)
		}
	}
}

// TestTrafficNeverIncreases is the combining half of experiment E11: for
// every pair in the load/store/swap family (with reversal enabled and the
// requests from distinct processors), the combined request carries no more
// value slots than the two originals together, and likewise for replies.
func TestTrafficNeverIncreases(t *testing.T) {
	ops := []rmw.Mapping{rmw.Load{}, rmw.StoreOf(4), rmw.SwapOf(6)}
	for _, fa := range ops {
		for _, fb := range ops {
			a := NewRequest(1, 0, fa, 0)
			b := NewRequest(2, 0, fb, 1)
			combined, _, ok := Combine(a, b, Policy{AllowReversal: true})
			if !ok {
				t.Fatalf("%v+%v must combine", fa, fb)
			}
			if got, lim := ValueSlots(combined.Op), ValueSlots(fa)+ValueSlots(fb); got > lim {
				t.Errorf("%v+%v: combined request carries %d slots > %d", fa, fb, got, lim)
			}
			if got, lim := ReplyValueSlots(combined.Op), ReplyValueSlots(fa)+ReplyValueSlots(fb); got > lim {
				t.Errorf("%v+%v: combined reply carries %d slots > %d", fa, fb, got, lim)
			}
		}
	}
}

// TestLeafListDecombine: a fat reply to a three-way combine, its leaf list
// in representation order as a reply-caching module fills it, decombines
// through DecombineExact into exactly the listed values — the value a cached
// leaf was answered with included, which re-applying the record's mapping
// would not give.  A stale record, one whose second id the list does not
// name, is refused by CanDecombine, and a clone owns its list.  The exact
// one-leaf form, which carries no list, refuses the same stale record and
// every other record keyed by its id, where a plain reply accepts them.
func TestLeafListDecombine(t *testing.T) {
	a := NewRequest(1, 100, rmw.FetchAdd(3), 0)
	b := NewRequest(2, 100, rmw.FetchAdd(5), 1)
	c := NewRequest(3, 100, rmw.FetchAdd(7), 2)
	books := Policy{Bookkeeping: true}
	ab, rec1, ok1 := Combine(a, b, books)
	abc, rec2, ok2 := Combine(ab, c, books)
	if !ok1 || !ok2 || len(abc.Reps()) != 3 {
		t.Fatalf("setup: combines %v %v, %d leaves", ok1, ok2, len(abc.Reps()))
	}
	// Serialized from 10: a sees 10, b 13 — but b was answered before, from
	// the reply cache, with 77 — and c 13+5.
	cell, leaves := word.W(10), NewLeafList(len(abc.Reps()))
	for i, lf := range abc.Reps() {
		(*leaves)[i] = LeafVal{ID: lf.ID, Val: cell}
		cell = lf.Op.Apply(cell)
	}
	(*leaves)[1].Val = word.W(77)
	reply := Reply{ID: abc.ID, Val: word.W(10), Leaves: leaves}

	stale := Record{ID1: 1, ID2: 9, F: rmw.FetchAdd(3)}
	if CanDecombine(stale, reply) {
		t.Error("CanDecombine accepted a record for a leaf the reply does not name")
	}
	got := map[word.ReqID]int64{}
	r, rc := DecombineExact(rec2, reply)
	ra, rb := DecombineExact(rec1, r)
	for _, rep := range []Reply{ra, rb, rc} {
		if rep.Leaves != leaves {
			t.Errorf("reply %d does not share the module's list", rep.ID)
		}
		got[rep.ID] = rep.Val.Val
	}
	if want := map[word.ReqID]int64{1: 10, 2: 77, 3: 18}; !reflect.DeepEqual(got, want) {
		t.Errorf("decombined values %v, want %v", got, want)
	}

	cl := reply.Clone()
	(*cl.Leaves)[0].Val = word.W(-1)
	if v, ok := reply.Leaf(1); !ok || v != word.W(10) || len(*cl.Leaves) != 3 {
		t.Errorf("writing the clone's list changed the original's: leaf 1 is %v", v)
	}
	if two := NewLeafList(2); len(*two) != 2 || cap(*two) != 2 {
		t.Errorf("a two-leaf list has length %d and capacity %d", len(*two), cap(*two))
	}

	one := ExactReply(1, word.W(10), 2)
	if v, ok := one.Leaf(1); !ok || v != word.W(10) {
		t.Errorf("one-leaf reply: leaf 1 is %v %v, want 10 true", v, ok)
	}
	if _, ok := one.Leaf(9); ok {
		t.Error("one-leaf reply names a leaf other than its own")
	}
	for _, rec := range []Record{stale, rec1} {
		if CanDecombine(rec, one) {
			t.Errorf("CanDecombine accepted record %v for a one-leaf reply", rec)
		}
		if !CanDecombine(rec, Reply{ID: 1, Val: word.W(10)}) {
			t.Errorf("CanDecombine refused record %v for a plain reply", rec)
		}
	}
	if got := one.AppendLeafIDs(nil); !reflect.DeepEqual(got, []word.ReqID{1}) {
		t.Errorf("one-leaf reply: leaves %v, want [1]", got)
	}
	if c := one.Clone(); c != one {
		t.Errorf("one-leaf clone %+v differs from %+v", c, one)
	}
	if n := testing.AllocsPerRun(100, func() { one = ExactReply(1, word.W(10), 2).Clone() }); n != 0 {
		t.Errorf("one-leaf reply: %.1f allocs, want 0", n)
	}
}

// TestAppendLeafIDs: a message stands for its own id until it combines
// under bookkeeping, then for its representation list; a reply stands for
// its own id, or for its leaf list when it carries one.
func TestAppendLeafIDs(t *testing.T) {
	a := NewRequest(1, 100, rmw.FetchAdd(3), 0)
	b := NewRequest(2, 100, rmw.FetchAdd(5), 1)
	if got := a.AppendLeafIDs([]word.ReqID{7}); !reflect.DeepEqual(got, []word.ReqID{7, 1}) {
		t.Errorf("uncombined request: %v, want [7 1]", got)
	}
	var one [1]Leaf
	if got := a.Leaves(&one); !reflect.DeepEqual(got, []Leaf{{ID: 1, Src: 0, Op: rmw.FetchAdd(3)}}) {
		t.Errorf("uncombined request: leaves %v, want its own", got)
	}
	if ab, _, _ := Combine(b, a, Policy{}); ab.Reps() != nil {
		t.Errorf("combined without bookkeeping: representation list %v, want none", ab.Reps())
	}
	ab, _, _ := Combine(b, a, Policy{Bookkeeping: true})
	if got := ab.AppendLeafIDs(nil); !reflect.DeepEqual(got, []word.ReqID{2, 1}) {
		t.Errorf("combined request: %v, want its leaves [2 1]", got)
	}
	if got := ab.Reps(); len(got) != 2 || got[0].Src != 1 || got[1].Src != 0 {
		t.Errorf("combined request: leaves %v, want sources [1 0]", got)
	}
	if got := (Reply{ID: 2}).AppendLeafIDs(nil); !reflect.DeepEqual(got, []word.ReqID{2}) {
		t.Errorf("plain reply: %v, want [2]", got)
	}
	leaves := NewLeafList(2)
	(*leaves)[0], (*leaves)[1] = LeafVal{ID: 2}, LeafVal{ID: 1}
	if got := (Reply{ID: 2, Leaves: leaves}).AppendLeafIDs(nil); !reflect.DeepEqual(got, []word.ReqID{2, 1}) {
		t.Errorf("fat reply: %v, want its leaves [2 1]", got)
	}
}
