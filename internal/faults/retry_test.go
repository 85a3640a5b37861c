package faults

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// modelTracker is the tracker as it was first written, kept as the reference
// the indexed one is held to: one map of live requests, a count per
// (proc, addr), and an Expired that walks the whole map every call.  Its
// round-trip estimator is RFC 6298 §2 written out step by step; srtt and
// rttvar are kept in eighths and quarters so that its integer division
// rounds as the tracker's shifts do.  Like the tracker it settles at the top
// of Expired: the round trips delivered since the last settle are folded
// processor by processor in index order, each processor's in delivery
// order, and only then are the requests tracked since given deadlines.
type modelTracker struct {
	plan    Plan
	live    map[word.ReqID]*Pending
	perAddr map[addrKey]int
	// next is 1 + each processor's last tracked id.
	next map[int]word.ReqID
	// fresh are the ids tracked, and rtts[proc] the first-attempt round
	// trips delivered, since the last settle.
	fresh []word.ReqID
	rtts  map[int][]int64

	samples        int
	srtt8, rttvar4 int64

	duplicates, recovered int64
}

type addrKey struct {
	proc int
	addr word.Addr
}

func newModelTracker(flt *Injector) *modelTracker {
	return &modelTracker{plan: flt.Plan(), live: map[word.ReqID]*Pending{}, perAddr: map[addrKey]int{},
		next: map[int]word.ReqID{}, rtts: map[int][]int64{}}
}

// rto is the first attempt's timeout: the plan's RetryTimeout until a
// round trip is measured, then srtt + 4·rttvar within [RetryTimeout,
// RetryCap].
func (t *modelTracker) rto() int64 {
	if t.samples == 0 {
		return t.plan.RetryTimeout
	}
	return max(t.plan.RetryTimeout, min(t.plan.RetryCap, t.srtt8/8+t.rttvar4))
}

// timeout is the delay before attempt k: rto·2^(k-1), at most RetryCap.
func (t *modelTracker) timeout(attempt uint32) int64 {
	d := t.rto()
	for k := uint32(2); k <= attempt; k++ {
		if d >= t.plan.RetryCap {
			break
		}
		d *= 2
	}
	return min(d, t.plan.RetryCap)
}

// observe is RFC 6298 §2.2–2.3 for one round trip r, with α = 1/8, β = 1/4.
func (t *modelTracker) observe(r int64) {
	if t.samples++; t.samples == 1 {
		t.srtt8, t.rttvar4 = 8*r, 2*r // srtt = r, rttvar = r/2
		return
	}
	srtt := t.srtt8 / 8
	diff := r - srtt
	if diff < 0 {
		diff = -diff
	}
	t.rttvar4 = t.rttvar4 - t.rttvar4/4 + diff // rttvar ← ¾·rttvar + ¼·|srtt − r|
	t.srtt8 = t.srtt8 - srtt + r               // srtt ← ⅞·srtt + ⅛·r
}

func (t *modelTracker) Track(proc int, req core.Request, hot bool, now int64) {
	t.live[req.ID] = &Pending{Proc: proc, Req: req, Hot: hot, IssueCycle: now}
	t.perAddr[addrKey{proc, req.Addr}]++
	t.next[proc] = req.ID + 1
	t.fresh = append(t.fresh, req.ID)
}

// markLost marks a live, unmarked request lost and reports whether it did.
func (t *modelTracker) markLost(id word.ReqID) bool {
	p, ok := t.live[id]
	if !ok || p.Lost {
		return false
	}
	p.Lost = true
	return true
}

// settle folds the pending round trips, processors in index order, then
// arms the requests tracked since the last settle that are still live.
func (t *modelTracker) settle() {
	procs := make([]int, 0, len(t.rtts))
	for proc := range t.rtts {
		procs = append(procs, proc)
	}
	sort.Ints(procs)
	for _, proc := range procs {
		for _, r := range t.rtts[proc] {
			t.observe(r)
		}
	}
	clear(t.rtts)
	for _, id := range t.fresh {
		if p, ok := t.live[id]; ok {
			p.Deadline = p.IssueCycle + t.timeout(1)
		}
	}
	t.fresh = t.fresh[:0]
}

// floor is the processor's delivered floor by a full scan: its smallest
// live id, else 1 + its last tracked id, else 0.
func (t *modelTracker) floor(proc int) word.ReqID {
	f := t.next[proc]
	for _, p := range t.live {
		if p.Proc == proc {
			f = min(f, p.Req.ID)
		}
	}
	return f
}

func (t *modelTracker) HeldBack(proc int, addr word.Addr) bool {
	return t.perAddr[addrKey{proc, addr}] > 1
}

func (t *modelTracker) Deliver(id word.ReqID, now int64) (Pending, bool) {
	p, ok := t.live[id]
	if !ok {
		t.duplicates++
		return Pending{}, false
	}
	delete(t.live, id)
	k := addrKey{p.Proc, p.Req.Addr}
	if t.perAddr[k]--; t.perAddr[k] == 0 {
		delete(t.perAddr, k)
	}
	if p.Req.Attempt > 0 {
		t.recovered++
	} else {
		t.rtts[p.Proc] = append(t.rtts[p.Proc], now-p.IssueCycle)
	}
	return *p, true
}

func (t *modelTracker) Expired(now int64) []Pending {
	t.settle()
	var out []Pending
	for _, p := range t.live {
		if now < p.Deadline {
			continue
		}
		if !t.oldestLive(p) {
			p.Deadline = now + t.timeout(1)
			continue
		}
		p.Req.Attempt++
		p.Deadline = now + t.timeout(p.Req.Attempt+1)
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Req.ID < out[j].Req.ID
	})
	return out
}

func (t *modelTracker) oldestLive(p *Pending) bool {
	if t.perAddr[addrKey{p.Proc, p.Req.Addr}] < 2 {
		return true
	}
	for _, q := range t.live {
		if q != p && q.Proc == p.Proc && q.Req.Addr == p.Req.Addr && q.Req.ID < p.Req.ID {
			return false
		}
	}
	return true
}

// modelPlans are the retry parameters the schedules run under: the defaults
// (a backed-off deadline lands in the bucket it was read from), a short
// timeout, backoffs longer than one revolution of the wheel, and a timeout
// beyond the largest wheel.
var modelPlans = []Plan{
	{Seed: 1},
	{Seed: 2, RetryTimeout: 8, RetryCap: 40},
	{Seed: 3, RetryTimeout: 50, RetryCap: 400},
	{Seed: 4, RetryTimeout: 5000, RetryCap: 5000},
}

// runTrackerSchedule drives the tracker and the model with one schedule, two
// bytes a step, and fails on the first difference: in what Deliver, MarkLost
// and Expired return, or afterwards in Outstanding, in Timeout, in Floors, in
// Current of every id ever issued and in HeldBack of every (proc, addr).
// The first byte picks the step — track (to a shared address half the time,
// so a processor's requests pile up on it and HeldBack and the deferral
// fire), deliver a live request, deliver again one already delivered or
// (one time in four) mark an issued id lost, advance a cycle (settling),
// skip cycles — and the second its operand.  It returns how many retransmits and deferrals it
// saw.
func runTrackerSchedule(t *testing.T, plan Plan, schedule []byte) (retries, deferred int) {
	t.Helper()
	const procs, addrs = 4, 3
	trk, model := NewTracker(NewInjector(plan), procs), newModelTracker(NewInjector(plan))
	var now int64
	var issued []word.ReqID
	seq := make([]int, procs)
	floors := make([]word.ReqID, procs)
	// owner is the processor that issued an id: ids are p + 1 + procs·k.
	owner := func(id word.ReqID) int { return int(id-1) % procs }
	liveIDs := func() []word.ReqID {
		ids := make([]word.ReqID, 0, len(model.live))
		for id := range model.live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	deliver := func(step int, proc int, id word.ReqID) {
		got, gotOK := trk.Deliver(proc, id, now)
		want, wantOK := model.Deliver(id, now)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Deliver(%d) at %d = %+v, %v; the model says %+v, %v", step, id, now, got, gotOK, want, wantOK)
		}
	}
	expire := func(step int) {
		before := map[word.ReqID]int64{}
		for id, p := range model.live {
			before[id] = p.Deadline
		}
		got, want := trk.Expired(now), model.Expired(now)
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("step %d: Expired(%d) =\n%+v\nthe model says\n%+v", step, now, got, want)
		}
		retries += len(want)
		for id, p := range model.live {
			if p.Req.Attempt == 0 && p.Deadline != before[id] {
				deferred++
			}
		}
	}
	for step := 0; step+1 < len(schedule); step += 2 {
		op, arg := schedule[step]%10, int(schedule[step+1])
		switch {
		case op < 4:
			proc, addr := arg%procs, word.Addr(0)
			if arg&4 != 0 {
				addr = word.Addr(arg/8%addrs + 1)
			}
			// Ids increase per processor, as the ports issue them.
			id := word.ReqID(seq[proc]*procs + proc + 1)
			seq[proc]++
			req := core.NewRequest(id, addr, rmw.FetchAdd(1), word.ProcID(proc))
			trk.Track(proc, req, addr == 0, now)
			model.Track(proc, req, addr == 0, now)
			issued = append(issued, id)
		case op < 6:
			if ids := liveIDs(); len(ids) > 0 {
				id := ids[arg%len(ids)]
				deliver(step, owner(id), id)
			}
		case op == 6 && arg%4 == 3 && len(issued) > 0:
			id := issued[arg/4%len(issued)]
			if got, want := trk.MarkLost(id), model.markLost(id); got != want {
				t.Fatalf("step %d: MarkLost(%d) = %v, the model says %v", step, id, got, want)
			}
		case op == 6:
			if len(issued) > 0 {
				id := issued[arg%len(issued)]
				deliver(step, owner(id), id) // a duplicate, most of the time
			} else {
				deliver(step, arg%procs, word.ReqID(arg+1)) // never tracked
			}
		case op < 9:
			now++
			expire(step)
		default:
			now += int64(arg) * int64(arg) / 16 // up to 4064 cycles unobserved
			expire(step)
		}
		if trk.Outstanding() != len(model.live) {
			t.Fatalf("step %d: Outstanding = %d, the model holds %d", step, trk.Outstanding(), len(model.live))
		}
		for k := uint32(1); k <= 4; k++ {
			if got, want := trk.Timeout(k), model.timeout(k); got != want {
				t.Fatalf("step %d: Timeout(%d) = %d, the model says %d", step, k, got, want)
			}
		}
		trk.Floors(floors)
		for proc, got := range floors {
			if want := model.floor(proc); got != want {
				t.Fatalf("step %d: Floors gives processor %d floor %d, the model's scan %d", step, proc, got, want)
			}
		}
		for _, id := range issued {
			p, live := model.live[id]
			attempts := []uint32{0, 1, 2}
			if live {
				attempts = append(attempts, p.Req.Attempt, p.Req.Attempt+1)
			}
			for _, a := range attempts {
				if got, want := trk.Current(owner(id), id, a), live && p.Req.Attempt == a; got != want {
					t.Fatalf("step %d: Current(%d, %d, %d) = %v, the model says %v", step, owner(id), id, a, got, want)
				}
			}
		}
		for proc := 0; proc < procs; proc++ {
			for addr := word.Addr(0); addr <= addrs; addr++ {
				if got, want := trk.HeldBack(proc, addr), model.HeldBack(proc, addr); got != want {
					t.Fatalf("step %d: HeldBack(%d, %d) = %v, the model says %v", step, proc, addr, got, want)
				}
			}
		}
	}
	// Retransmits are Expired's results, compared above; the engine's port
	// counts the copies it sends (Tracker.Retries).
	if trk.Duplicates.Load() != model.duplicates || trk.Recovered.Load() != model.recovered {
		t.Fatalf("counters: %d duplicates, %d recovered; the model counted %d, %d",
			trk.Duplicates.Load(), trk.Recovered.Load(), model.duplicates, model.recovered)
	}
	return retries, deferred
}

// TestTrackerMatchesModel holds the indexed tracker to the full-scan model
// over seeded random schedules under every plan of modelPlans, and checks
// that the schedules reached what they were written to reach: retransmits,
// deferrals behind an older request to the same address, and duplicates.
func TestTrackerMatchesModel(t *testing.T) {
	for pi, plan := range modelPlans {
		retries, deferred := 0, 0
		for seed := uint64(0); seed < 24; seed++ {
			r := rand.New(rand.NewPCG(seed, uint64(pi)))
			schedule := make([]byte, 1200)
			for i := range schedule {
				schedule[i] = byte(r.UintN(256))
			}
			rt, df := runTrackerSchedule(t, plan, schedule)
			retries, deferred = retries+rt, deferred+df
		}
		if retries == 0 || deferred == 0 {
			t.Errorf("plan %d: %d retransmits, %d deferrals — the schedules never got there", pi, retries, deferred)
		}
	}
}

// TestRetryTimeoutEstimator pins the estimator to RFC 6298 on hand-worked
// samples: the first sample's initialisation, Karn's rule, the clamp to
// [RetryTimeout, RetryCap] and the per-attempt doubling — and that one
// revolution of the timing wheel covers RetryCap, so a request armed at the
// cap is read once, when it is due.
func TestRetryTimeoutEstimator(t *testing.T) {
	plan := Plan{Seed: 1, RetryTimeout: 16, RetryCap: 1000}
	var now int64
	var next word.ReqID
	// roundTrip tracks a request and delivers it r cycles later; with
	// retransmit set it first lets the request time out and go again.  It
	// then settles, which folds the round trip into the estimate the caller
	// reads.
	roundTrip := func(trk *Tracker, r int64, retransmit bool) {
		t.Helper()
		next++
		trk.Track(0, core.NewRequest(next, word.Addr(next), rmw.FetchAdd(1), 0), false, now)
		if retransmit {
			now += trk.Timeout(1)
			if got := trk.Expired(now); len(got) != 1 || got[0].Req.Attempt != 1 {
				t.Fatalf("request %d did not time out and go again: %+v", next, got)
			}
		}
		now += r
		if _, ok := trk.Deliver(0, next, now); !ok {
			t.Fatalf("request %d not delivered", next)
		}
		trk.Settle()
	}
	trk := NewTracker(NewInjector(plan), 1)
	if got := trk.Timeout(1); got != 16 {
		t.Fatalf("RTO before any sample = %d, want RetryTimeout 16", got)
	}
	// Karn's rule: a request that was retransmitted is no sample, however
	// long it took — the estimator is still unset.
	roundTrip(trk, 500, true)
	if got := trk.Timeout(1); got != 16 {
		t.Fatalf("RTO after a retransmitted delivery = %d, want 16 (Karn's rule)", got)
	}
	// First sample r = 40: srtt = 40, rttvar = 20, RTO = 40 + 4·20.
	roundTrip(trk, 40, false)
	if got := trk.Timeout(1); got != 120 {
		t.Fatalf("RTO after the first sample of 40 = %d, want 120", got)
	}
	// Second sample r = 80: rttvar = ¾·20 + ¼·|40 − 80| = 25, srtt = ⅞·40 +
	// ⅛·80 = 45, RTO = 45 + 100.
	roundTrip(trk, 80, false)
	if got := trk.Timeout(1); got != 145 {
		t.Fatalf("RTO after samples 40, 80 = %d, want 145", got)
	}
	// Karn's rule again, now with an estimate to disturb.
	roundTrip(trk, 900, true)
	if got := trk.Timeout(1); got != 145 {
		t.Fatalf("RTO after a retransmitted delivery = %d, want 145 (Karn's rule)", got)
	}
	// Doubling per later attempt, up to the cap.
	for k, want := range []int64{145, 290, 580, 1000, 1000} {
		if got := trk.Timeout(uint32(k + 1)); got != want {
			t.Errorf("Timeout(%d) = %d, want %d", k+1, got, want)
		}
	}
	// Clamp: a huge first sample pins the RTO at the cap, a run of tiny ones
	// brings it down to the floor and no further.
	huge := NewTracker(NewInjector(plan), 1)
	roundTrip(huge, 1<<30, false)
	if got := huge.Timeout(1); got != 1000 {
		t.Fatalf("RTO after a sample of 2^30 = %d, want RetryCap 1000", got)
	}
	tiny := NewTracker(NewInjector(plan), 1)
	for i := 0; i < 64; i++ {
		roundTrip(tiny, 1, false)
	}
	if got := tiny.Timeout(1); got != 16 {
		t.Fatalf("RTO after 64 samples of 1 = %d, want RetryTimeout 16", got)
	}
	// The wheel: one revolution longer than RetryCap, up to its 4096 bound.
	for _, p := range append([]Plan{plan}, modelPlans...) {
		flt := NewInjector(p)
		if c, n := flt.Plan().RetryCap, int64(len(NewTracker(flt, 1).wheel)); n <= c && n < 4096 {
			t.Errorf("RetryCap %d: a wheel of %d buckets does not cover it", c, n)
		}
	}
}

// FuzzTrackerModel is TestTrackerMatchesModel with the schedule, and the
// choice among modelPlans, left to the fuzzer.
func FuzzTrackerModel(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0, 0, 9, 255, 4, 0, 7, 0, 6, 0})
	f.Add(uint8(1), []byte{0, 1, 0, 1, 0, 1, 9, 12, 9, 12, 4, 0, 9, 40, 6, 1})
	f.Add(uint8(2), []byte{1, 2, 1, 6, 9, 30, 9, 30, 9, 60, 5, 1, 9, 90})
	f.Add(uint8(3), []byte{2, 3, 9, 255, 9, 255, 2, 3, 9, 255, 4, 0})
	f.Fuzz(func(t *testing.T, plan uint8, schedule []byte) {
		runTrackerSchedule(t, modelPlans[int(plan)%len(modelPlans)], schedule)
	})
}

// TestTrackerSteadyStateZeroAlloc: once the boxes, the buckets and the
// scratch slices have reached their working size, a round of issue, expiry
// (with a retransmit in it) and delivery allocates nothing.
func TestTrackerSteadyStateZeroAlloc(t *testing.T) {
	const procs = 8
	trk := NewTracker(NewInjector(Plan{Seed: 1, RetryTimeout: 4, RetryCap: 8}), procs)
	reqs := make([]core.Request, procs)
	for p := range reqs {
		reqs[p] = core.NewRequest(0, word.Addr(p%3), rmw.FetchAdd(1), word.ProcID(p))
	}
	var now int64
	var next word.ReqID
	retried := 0
	round := func() {
		// Every processor issues; the requests wait out a timeout or two,
		// are retransmitted, and are then all delivered.
		first := next
		for p := range reqs {
			next++
			reqs[p].ID = next
			trk.Track(p, reqs[p], false, now)
		}
		for i := 0; i < 6; i++ {
			now++
			retried += len(trk.Expired(now))
		}
		for id := first + 1; id <= next; id++ {
			trk.Deliver(int(id-first-1), id, now)
		}
	}
	for i := 0; i < 200; i++ {
		round()
	}
	if retried == 0 || trk.Outstanding() != 0 {
		t.Fatalf("warm-up: %d retransmits, %d outstanding", retried, trk.Outstanding())
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("Track + Expired + Deliver: %.1f allocs per round, want 0", allocs)
	}
}

// TestTrackerPortsConcurrent: between settles, the ports of different
// processors touch disjoint records, so two goroutines may drive Track,
// Deliver, Current and HeldBack for processors 0 and 1 at once, as the
// workers of a staged machine do for the processors of their own stage-0
// switches.  Under -race a write either makes to state the other reads —
// the estimator, the wheel, a shared free list or count — fails it.  Each
// round delivers the previous round's requests (armed by the settle in
// between) and half its own (never armed), then settles serially.
func TestTrackerPortsConcurrent(t *testing.T) {
	const procs, window = 2, 4
	trk := NewTracker(NewInjector(Plan{Seed: 1, RetryTimeout: 2, RetryCap: 64}), procs)
	id := func(round, i, p int) word.ReqID { return word.ReqID((round*window+i)*procs + p + 1) }
	var now int64
	for round := 0; round < 64; round++ {
		var wg sync.WaitGroup
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < window; i++ {
					trk.Track(p, core.NewRequest(id(round, i, p), word.Addr(i), rmw.FetchAdd(1), word.ProcID(p)), false, now)
					trk.HeldBack(p, word.Addr(i))
					if !trk.Current(p, id(round, i, p), 0) {
						t.Errorf("round %d: processor %d's request %d is not current", round, p, id(round, i, p))
					}
				}
				for i := 0; i < window; i++ {
					if round > 0 && i%2 == 1 {
						if _, ok := trk.Deliver(p, id(round-1, i, p), now); !ok {
							t.Errorf("round %d: processor %d's request %d was not live", round, p, id(round-1, i, p))
						}
					}
					if i%2 == 0 {
						trk.Deliver(p, id(round, i, p), now)
					}
				}
			}()
		}
		wg.Wait()
		now++
		if got := trk.Expired(now); len(got) != 0 {
			t.Fatalf("round %d: %d retransmits before any deadline", round, len(got))
		}
	}
	if got, want := trk.Outstanding(), procs*window/2; got != want {
		t.Fatalf("outstanding %d, want %d (the last round's odd requests)", got, want)
	}
	if trk.Duplicates.Load() != 0 {
		t.Fatalf("%d duplicates", trk.Duplicates.Load())
	}
}

// FuzzPlanRoundTrip: ParsePlan never panics, and a plan it accepts survives
// EncodePlan and ParsePlan unchanged — the spec a chaos reproducer prints is
// the plan that failed.
func FuzzPlanRoundTrip(f *testing.F) {
	for _, p := range []*Plan{{}, Default(3), DefaultAdversarial(7), DefaultCrash(5), GenCrashPlan(13, 3, 4000, 80)} {
		f.Add(EncodePlan(p))
	}
	f.Add("seed=1,canary= a=b ,retry=0,stalls=-1:-1:0:0+0:0:5:5")
	f.Add("seed=1,dup=0.02,canary=nodedup,retry=256")
	f.Add("dropfwd=NaN,droprev=-0,dup=0x1p-4,corrupt=1e-320")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		enc := EncodePlan(p)
		back, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("ParsePlan(%q) accepted, but its encoding %q is rejected: %v", spec, enc, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the plan\nspec: %q\nenc:  %q\nin:   %+v\nout:  %+v", spec, enc, p, back)
		}
	})
}

// TestTrackerFloors: a processor's delivered floor is its smallest live id,
// else one past the last id it tracked, and 0 before its first; and Track
// refuses an id that does not increase the processor's last.
func TestTrackerFloors(t *testing.T) {
	trk := NewTracker(NewInjector(Plan{Seed: 1, RetryTimeout: 64, RetryCap: 512}), 3)
	floors := make([]word.ReqID, 3)
	check := func(want ...word.ReqID) {
		t.Helper()
		trk.Floors(floors)
		if !reflect.DeepEqual(floors, want) {
			t.Fatalf("floors %v, want %v", floors, want)
		}
	}
	track := func(proc int, id word.ReqID) {
		trk.Track(proc, core.NewRequest(id, word.Addr(id), rmw.FetchAdd(1), word.ProcID(proc)), false, 0)
	}
	check(0, 0, 0)
	track(0, 3)
	track(0, 6)
	track(1, 4)
	check(3, 4, 0)
	trk.Deliver(0, 3, 10)
	check(6, 4, 0)
	trk.Deliver(1, 4, 10)
	trk.Deliver(0, 6, 10)
	check(7, 5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Track accepted an id below the processor's last")
		}
	}()
	track(0, 5)
}
