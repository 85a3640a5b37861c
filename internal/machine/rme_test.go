package machine

import (
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Recoverable mutual exclusion end to end: lock clients run the RME protocol
// (acquire via store-if-clear-and-set, spin on NAK, non-atomic read/modify/
// write of a shared counter inside the critical section, release via
// store-and-clear) as custom injectors on the real transports, clean and
// under crash–restart plans.  Mutual exclusion is checked by the counter: the
// critical-section increment is deliberately split into a Load and a Store,
// so any two overlapping critical sections lose an update and the final
// counter misses the nprocs*rounds target.

const (
	rmeLockAddr = word.Addr(0)
	rmeCtrAddr  = word.Addr(1)
)

// lockClient is one processor of the RME experiment.  It is a plain
// engine.Injector, so the engines' tracking, retransmission, and dedup
// machinery applies to its requests exactly as to program-driven traffic.
type lockClient struct {
	proc   word.ProcID
	ids    *word.IDGen
	nprocs int
	rounds int

	phase     int // 0 acquire, 1 CS load, 2 CS store, 3 release
	round     int
	pending   bool
	pendingID word.ReqID
	loaded    int64

	acquires  int
	naks      int
	trying    bool
	tryStart  int64
	latencies []int64 // cycles from first acquire attempt to grant, per round
}

func (c *lockClient) Done() bool { return c.round >= c.rounds }

func (c *lockClient) Next(cycle int64) (engine.Injection, bool) {
	if c.pending || c.Done() {
		return engine.Injection{}, false
	}
	var op rmw.Mapping
	addr := rmeLockAddr
	switch c.phase {
	case 0:
		op = rmw.RMEAcquire(int64(c.proc) + 1)
		if !c.trying {
			c.trying, c.tryStart = true, cycle
		}
	case 1:
		op, addr = rmw.Load{}, rmeCtrAddr
	case 2:
		op, addr = rmw.StoreOf(c.loaded+1), rmeCtrAddr
	default:
		op = rmw.RMERelease()
	}
	id := c.ids.NextPartitioned(c.nprocs)
	c.pending, c.pendingID = true, id
	return engine.Injection{Req: core.NewRequest(id, addr, op, c.proc)}, true
}

func (c *lockClient) Deliver(rep core.Reply, cycle int64) {
	if !c.pending || rep.ID != c.pendingID {
		panic("lockClient: reply for a request it does not have in flight")
	}
	c.pending = false
	switch c.phase {
	case 0:
		if rmw.RMEAcquired(rep.Val) {
			c.acquires++
			c.latencies = append(c.latencies, cycle-c.tryStart)
			c.trying = false
			c.phase = 1
		} else {
			c.naks++ // lock held; reissue a fresh acquire
		}
	case 1:
		c.loaded = rep.Val.Val
		c.phase = 2
	case 2:
		c.phase = 3
	default:
		c.phase = 0
		c.round++
	}
}

// runRMESoak drives nprocs lock clients for rounds critical sections each on
// one engine and checks mutual exclusion (counter invariant), liveness (all
// rounds complete), and exactly-once acquisition.  It returns the per-round
// acquire latencies across all clients.
func runRMESoak(t *testing.T, name string, nprocs, rounds, maxCycles int,
	build func([]engine.Injector) engine.Machine) []int64 {
	t.Helper()
	clients := make([]*lockClient, nprocs)
	inj := make([]engine.Injector, nprocs)
	for i := range clients {
		clients[i] = &lockClient{
			proc:   word.ProcID(i),
			ids:    word.Partition(i, nprocs),
			nprocs: nprocs,
			rounds: rounds,
		}
		inj[i] = clients[i]
	}
	eng := build(inj)
	done := func() bool {
		for _, c := range clients {
			if !c.Done() {
				return false
			}
		}
		return eng.InFlight() == 0
	}
	for c := 0; c < maxCycles && !done(); c++ {
		eng.Step()
		if eng.Stalled() {
			t.Fatalf("%s: engine stalled mid-protocol", name)
		}
	}
	if !done() {
		t.Fatalf("%s: protocol did not complete in %d cycles (in flight %d)",
			name, maxCycles, eng.InFlight())
	}
	if got := eng.InFlight(); got != 0 {
		t.Fatalf("%s: %d requests never delivered", name, got)
	}

	var acquires, naks int
	var lat []int64
	for _, c := range clients {
		acquires += c.acquires
		naks += c.naks
		lat = append(lat, c.latencies...)
	}
	want := int64(nprocs * rounds)
	if got := eng.Memory().Peek(rmeCtrAddr).Val; got != want {
		t.Fatalf("%s: counter = %d, want %d — a lost update means two clients "+
			"were inside the critical section at once", name, got, want)
	}
	if int64(acquires) != want {
		t.Fatalf("%s: %d successful acquires, want %d (exactly-once violated)",
			name, acquires, want)
	}
	if w := eng.Memory().Peek(rmeLockAddr); w.Tag != word.Empty {
		t.Fatalf("%s: lock word still held after all releases: %v", name, w)
	}
	if naks == 0 && nprocs > 1 {
		t.Fatalf("%s: no contention NAKs — the lock was never actually hot", name)
	}
	return lat
}

func rmeEngines(t *testing.T, plan *faults.Plan) map[string]func([]engine.Injector) engine.Machine {
	builds := map[string]func([]engine.Injector) engine.Machine{}
	for _, name := range []string{"omega", "bus", "hypercube"} {
		builds[name] = wired(t, name, wiring.Config{Procs: 8, WaitBufCap: 64, Faults: plan})
	}
	return builds
}

// TestRMELockClean runs the lock protocol on a healthy machine: 8 clients,
// 16 critical sections each, on all three cycle-driven transports.
func TestRMELockClean(t *testing.T) {
	for name, build := range rmeEngines(t, nil) {
		lat := runRMESoak(t, name, 8, 16, 400000, build)
		if len(lat) != 8*16 {
			t.Fatalf("%s: recorded %d acquire latencies, want %d", name, len(lat), 8*16)
		}
	}
}

// TestRMELockUnderCrashPlan runs the same protocol under combined crash and
// drop plans: module crashes roll the lock word back to a checkpoint, switch
// crashes flush in-flight acquires, and the exactly-once retry machinery
// must re-drive everything without ever admitting two holders.
func TestRMELockUnderCrashPlan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		for name, build := range rmeEngines(t, crashDropPlan(seed)) {
			runRMESoak(t, name, 8, 16, 400000, build)
		}
	}
	// The crash plan must actually have bitten at least once: rerun one
	// engine and inspect its counters.
	clients := make([]*lockClient, 8)
	inj := make([]engine.Injector, 8)
	for i := range clients {
		clients[i] = &lockClient{proc: word.ProcID(i), ids: word.Partition(i, 8), nprocs: 8, rounds: 16}
		inj[i] = clients[i]
	}
	eng := rmeEngines(t, crashDropPlan(1))["omega"](inj)
	for c := 0; c < 400000; c++ {
		eng.Step()
	}
	snap := eng.Snapshot()
	for _, k := range []string{"crashes", "restores", "checkpoints"} {
		if snap.Counters[k] == 0 {
			t.Fatalf("crash plan never exercised %s during the lock soak", k)
		}
	}
}

// TestRMERecoveryCost compares acquire latency clean versus crashed on the
// Omega network — the recovery_curve experiment's RME metric in miniature.
// Crashes must cost something (dead-time shows up in somebody's acquire)
// but the tail must stay bounded by the crash windows, not diverge.
func TestRMERecoveryCost(t *testing.T) {
	clean := runRMESoak(t, "network-clean", 8, 16, 400000, rmeEngines(t, nil)["omega"])
	crashed := runRMESoak(t, "network-crashed", 8, 16, 400000, rmeEngines(t, crashDropPlan(2))["omega"])
	var maxClean, maxCrashed int64
	for _, l := range clean {
		if l > maxClean {
			maxClean = l
		}
	}
	for _, l := range crashed {
		if l > maxCrashed {
			maxCrashed = l
		}
	}
	if maxCrashed <= maxClean {
		t.Logf("crashed max acquire latency %d did not exceed clean %d (plan may "+
			"not have overlapped an acquire)", maxCrashed, maxClean)
	}
	t.Logf("acquire latency max: clean %d cycles, crashed %d cycles", maxClean, maxCrashed)
}
