package memory

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// ledgerModel is the exactly-once ledger as a checkpointing module first
// kept it, the reference the module's logged one is held to: a committed
// reply-cache map, an uncommitted delta map consulted first, an undo map of
// each written cell's first pre-image since the checkpoint, and a prune that
// walks the whole committed map.
type ledgerModel struct {
	ckpt    bool
	floors  []word.ReqID
	cells   map[word.Addr]word.Word
	cache   map[word.ReqID]modelLeaf
	delta   map[word.ReqID]modelLeaf
	undo    map[word.Addr]word.Word
	pruneAt int
	hits    int64
}

// modelLeaf is one executed leaf in the model's maps: the value its
// operation saw and the processor that issued it.
type modelLeaf struct {
	val word.Word
	src word.ProcID
}

func newLedgerModel(ckpt bool, floors []word.ReqID) *ledgerModel {
	return &ledgerModel{
		ckpt: ckpt, floors: floors, pruneAt: minPrune,
		cells: map[word.Addr]word.Word{},
		cache: map[word.ReqID]modelLeaf{}, delta: map[word.ReqID]modelLeaf{}, undo: map[word.Addr]word.Word{},
	}
}

func (l *ledgerModel) exec(req core.Request) core.Reply {
	before := l.cells[req.Addr]
	cell := before
	var vals []core.LeafVal
	var one [1]core.Leaf
	for _, lf := range req.Leaves(&one) {
		c, ok := l.delta[lf.ID]
		if !ok {
			c, ok = l.cache[lf.ID]
		}
		v := c.val
		if ok || lf.ID < l.floors[lf.Src] {
			l.hits++
		} else {
			v = cell
			cell = lf.Op.Apply(v)
			if l.ckpt {
				l.delta[lf.ID] = modelLeaf{v, lf.Src}
			} else if l.cache[lf.ID] = (modelLeaf{v, lf.Src}); len(l.cache) >= l.pruneAt {
				l.prune()
			}
		}
		vals = append(vals, core.LeafVal{ID: lf.ID, Val: v})
	}
	if _, logged := l.undo[req.Addr]; l.ckpt && !logged {
		l.undo[req.Addr] = before
	}
	l.cells[req.Addr] = cell
	rep := core.Reply{ID: req.ID, Attempt: req.Attempt, Leaves: &vals}
	rep.Val, _ = rep.Leaf(req.ID)
	return rep
}

func (l *ledgerModel) prune() {
	for id, c := range l.cache {
		if id < l.floors[c.src] {
			delete(l.cache, id)
		}
	}
	l.pruneAt = max(2*len(l.cache), minPrune)
}

func (l *ledgerModel) checkpoint() {
	for id, c := range l.delta {
		l.cache[id] = c
	}
	clear(l.delta)
	l.prune()
	clear(l.undo)
}

func (l *ledgerModel) crash() []word.ReqID {
	var ids []word.ReqID
	for id := range l.delta {
		ids = append(ids, id)
	}
	for addr, w := range l.undo {
		l.cells[addr] = w
	}
	clear(l.delta)
	clear(l.undo)
	slices.Sort(ids)
	return ids
}

// leafVals reads a reply's leaves and their values through core.Reply's
// accessors, whatever form the reply carries them in.
func leafVals(rep core.Reply) []core.LeafVal {
	var vals []core.LeafVal
	for _, id := range rep.AppendLeafIDs(nil) {
		v, ok := rep.Leaf(id)
		if !ok {
			return nil // not an exact reply
		}
		vals = append(vals, core.LeafVal{ID: id, Val: v})
	}
	return vals
}

// sameLeaves reports whether two exact replies name the same leaves, in the
// same order, with the same values.
func sameLeaves(a, b core.Reply) bool {
	va := leafVals(a)
	return va != nil && reflect.DeepEqual(va, leafVals(b))
}

// runLedgerSchedule drives a module with delivered floors — with
// checkpoints, or without (pruning whenever its cache doubles) — and the
// model through one schedule, two bytes a step, and fails on the first
// difference: in a reply (its value and its leaf list), the dedup-hit
// count, the cached-leaf count, a cell, or a crash's id list.  The first
// byte picks the step — a fresh leaf, two or three fresh leaves combined, a
// copy of an earlier message (a retransmit or a network duplicate), a
// checkpoint, a crash, a floor raise — and the second its operand.  It
// returns how many leaves were answered without executing and how many
// crashes lost some.
func runLedgerSchedule(t *testing.T, ckpt bool, schedule []byte) (hits int64, lossy int) {
	t.Helper()
	const procs, addrs = 4, 3
	floors, mfloors := make([]word.ReqID, procs), make([]word.ReqID, procs)
	opts := []Option{WithReplyCache(), WithDeliveredFloors(floors)}
	if ckpt {
		opts = append(opts, WithCheckpoints())
	}
	m, model := NewModule(opts...), newLedgerModel(ckpt, mfloors)
	seq := make([]int, procs)
	var sent []core.Request
	fresh := func(proc int, addr word.Addr, arg int) core.Request {
		id := word.ReqID(seq[proc]*procs + proc + 1) // ids increase per processor
		seq[proc]++
		op := rmw.Mapping(rmw.FetchAdd(int64(arg%7 + 1)))
		if arg&8 != 0 {
			op = rmw.SwapOf(int64(arg))
		}
		return leafReq(id, addr, op, word.ProcID(proc))
	}
	do := func(step int, req core.Request) {
		got, want := m.Do(req), model.exec(req)
		if got.ID != want.ID || got.Attempt != want.Attempt || got.Val != want.Val || !sameLeaves(got, want) {
			t.Fatalf("step %d: reply to %d = %+v %v; the model says %+v %v", step, req.ID, got, leafVals(got), want, leafVals(want))
		}
	}
	for step := 0; step+1 < len(schedule); step += 2 {
		op, arg := schedule[step]%10, int(schedule[step+1])
		addr := word.Addr(arg / procs % addrs)
		switch {
		case op < 3:
			req := fresh(arg%procs, addr, arg)
			sent = append(sent, req)
			do(step, req)
		case op == 3:
			req := fresh(arg%procs, addr, arg)
			for k := 1; k <= 1+arg/64%2; k++ {
				if c, _, ok := core.Combine(req, fresh((arg+k)%procs, addr, arg/k), core.Policy{Bookkeeping: true}); ok {
					req = c
				}
			}
			sent = append(sent, req)
			do(step, req)
		case op < 6:
			if len(sent) > 0 {
				req := sent[arg%len(sent)]
				if req.Reps() == nil {
					req.Attempt++ // a retransmit; a combined copy is a duplicate
				}
				do(step, req)
			}
		case op == 6 && ckpt:
			m.Checkpoint()
			model.checkpoint()
		case op == 7 && ckpt:
			got, want := m.Crash(), model.crash()
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Crash lost %v; the model says %v", step, got, want)
			}
			if len(want) > 0 {
				lossy++
			}
		default:
			// Raise a processor's floor to one of its issued ids, or past
			// them all.
			proc := arg % procs
			f := word.ReqID(arg/procs%(seq[proc]+1)*procs + proc + 1)
			floors[proc], mfloors[proc] = max(floors[proc], f), max(mfloors[proc], f)
		}
		if m.DedupHits != model.hits {
			t.Fatalf("step %d: %d dedup hits, the model counts %d", step, m.DedupHits, model.hits)
		}
		if got, want := m.replyCache.len(), len(model.cache)+len(model.delta); got != want {
			t.Fatalf("step %d: %d leaves cached, the model holds %d", step, got, want)
		}
		for a := word.Addr(0); a < addrs; a++ {
			if got, want := m.Peek(a), model.cells[a]; got != want {
				t.Fatalf("step %d: cell %d = %+v, the model says %+v", step, a, got, want)
			}
		}
	}
	return model.hits, lossy
}

// ledgerSchedules are seeded random schedules for FuzzReplyLedger's corpus.
func ledgerSchedules() [][]byte {
	var out [][]byte
	for seed := uint64(0); seed < 8; seed++ {
		r := rand.New(rand.NewPCG(seed, 50))
		s := make([]byte, 800)
		for i := range s {
			s[i] = byte(r.UintN(256))
		}
		out = append(out, s)
	}
	return out
}

// FuzzReplyLedger holds the module's reply cache and checkpoint log to the
// map-based model under random sequences of leaf and combined requests,
// retransmits, checkpoints, crashes and floor raises; the first argument
// picks checkpoint mode.
func FuzzReplyLedger(f *testing.F) {
	for i, s := range ledgerSchedules() {
		f.Add(i%4 != 0, s)
	}
	f.Fuzz(func(t *testing.T, ckpt bool, schedule []byte) {
		runLedgerSchedule(t, ckpt, schedule)
	})
}

// TestLedgerSchedulesReach checks that FuzzReplyLedger's seed schedules get
// where they were written to get: leaves answered without executing, and
// crashes that roll executions back.
func TestLedgerSchedulesReach(t *testing.T) {
	var hits int64
	lossy := 0
	for _, s := range ledgerSchedules() {
		h, l := runLedgerSchedule(t, true, s)
		hits, lossy = hits+h, lossy+l
	}
	if hits == 0 || lossy == 0 {
		t.Fatalf("%d dedup hits, %d crashes that lost leaves — the schedules never got there", hits, lossy)
	}
}

// TestCheckpointZeroAlloc: a warmed module's checkpoint round — fresh
// single-leaf requests executed, their floors raised, Checkpoint, the
// released replies drained — allocates nothing, and neither does a one-leaf
// retransmit answered from the cache: a one-leaf reply carries its value
// inline.  The cache, its order log, the undo log and the prune add none.
func TestCheckpointZeroAlloc(t *testing.T) {
	const procs, perRound, rounds = 4, 8, 400
	floors := make([]word.ReqID, procs)
	m := NewModule(WithCheckpoints(), WithDeliveredFloors(floors))
	reqs := make([]core.Request, rounds*perRound)
	for i := range reqs {
		p := i % procs
		reqs[i] = leafReq(word.ReqID(i+1), word.Addr(i%3), rmw.FetchAdd(1), word.ProcID(p))
	}
	next := 0
	round := func() {
		first := next
		for range perRound {
			m.Enqueue(reqs[next])
			next++
			m.Tick()
		}
		// Everything before this round has been delivered.
		for p := range floors {
			floors[p] = word.ReqID(first + 1)
		}
		m.Checkpoint()
		for range perRound {
			m.Tick()
		}
	}
	for range rounds / 2 {
		round()
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("checkpoint round: %.1f allocs, want 0", got)
	}
	if n := m.replyCache.len(); n > 2*perRound {
		t.Fatalf("%d leaves cached after the rounds, want at most %d", n, 2*perRound)
	}
	cachedLeaf := reqs[next-1]
	cachedLeaf.Attempt = 1
	retransmit := func() {
		m.execCached(&cachedLeaf)
		m.Checkpoint() // holds the undo log, a record per execution, at its warmed size
	}
	if got := testing.AllocsPerRun(100, retransmit); got != 0 {
		t.Errorf("execCached on a cached leaf: %.1f allocs, want 0", got)
	}
}
