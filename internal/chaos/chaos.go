// Package chaos is the randomized fault-plan fuzzer behind `cmd/check
// -chaos`.  It samples deterministic fault plans mixing every fault kind
// the injector knows — Bernoulli message drops, switch/memory stall
// windows, crash–restart windows, and the adversarial delivery trio
// (per-link reordering, network-born duplication, payload corruption) —
// runs seeded randomized programs under each plan on any of the six
// cycle-engine wirings, and checks the invariants the recovery and
// integrity layers promise: the programs complete, the history is
// per-location serializable against final memory (Theorem 4.2), and RMW
// semantics are exactly-once (issued == completed with nothing left in
// flight).
//
// On a violation, Shrink minimizes the scenario while it still fails:
// fault windows are dropped one at a time, whole fault kinds are zeroed,
// and the surviving probabilities are halved to the smallest value that
// still reproduces.  Because every probabilistic fault decision is a
// fixed-threshold hash of (seed, kind, site, id, attempt), lowering a
// probability keeps a strict subset of the original faults — shrinking
// narrows the same execution instead of jumping to a different one.
// ReproCommand renders the result as a `cmd/replay -chaos` command line
// that replays the minimal scenario deterministically.
package chaos

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"

	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/machine"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// Scenario is one fuzz case: a wiring, a seeded randomized workload, and a
// sampled fault plan.  Run is a pure function of the Scenario, so a failing
// case replays from its fields alone and Shrink can bisect it.
type Scenario struct {
	// Topology names the wiring, one of wiring.Names().
	Topology string
	// Procs, Ops and Addrs shape the workload: processors, operations per
	// processor, and the (hot) shared address range.
	Procs, Ops, Addrs int
	// WorkloadSeed keys the randomized programs.
	WorkloadSeed uint64
	// Plan is the fault plan under test.
	Plan *faults.Plan
}

// maxCycles bounds one scenario run; sampled windows end by cycle ~2100
// and the workloads are tiny, so a run that needs more than this is wedged.
const maxCycles = 1_000_000

// NewScenario derives the index-th scenario of a fuzz run: every field is
// a pure function of (topology, fuzzSeed, index), so a fuzz run replays
// from its seed and the failing index alone.  The radix-4 omega needs a
// power-of-four processor count and gets a shorter program — the
// serializability checker's search grows steeply with operations per hot
// address.
func NewScenario(topology string, fuzzSeed uint64, index int) Scenario {
	rng := rand.New(rand.NewPCG(fuzzSeed, uint64(index)*0x9e3779b97f4a7c15+0x1f83d9ab))
	procs, ops := 8, 10
	if topology == "omega4" {
		procs, ops = 16, 6
	}
	return Scenario{
		Topology:     topology,
		Procs:        procs,
		Ops:          ops,
		Addrs:        4,
		WorkloadSeed: rng.Uint64(),
		Plan:         samplePlan(rng),
	}
}

// samplePlan draws one mixed fault plan: each kind is present with
// probability well under one, so plans vary from single-kind to
// everything-at-once, and every window lands early enough to overlap the
// short workloads.  The retry timeout is long so retransmits are about
// real losses, not congestion.
func samplePlan(rng *rand.Rand) *faults.Plan {
	p := &faults.Plan{Seed: rng.Uint64(), RetryTimeout: 256}
	if rng.Float64() < 0.7 {
		p.DropFwd = 0.002 + 0.018*rng.Float64()
	}
	if rng.Float64() < 0.7 {
		p.DropRev = 0.002 + 0.018*rng.Float64()
	}
	if rng.Float64() < 0.7 {
		p.Reorder = 0.005 + 0.045*rng.Float64()
		p.ReorderMax = int64(4 + rng.IntN(13))
	}
	if rng.Float64() < 0.7 {
		p.Dup = 0.005 + 0.025*rng.Float64()
	}
	if rng.Float64() < 0.7 {
		p.Corrupt = 0.005 + 0.025*rng.Float64()
	}
	win := func(stage, index int) faults.Window {
		from := int64(rng.IntN(2000))
		return faults.Window{Stage: stage, Index: index, From: from, To: from + int64(40+rng.IntN(80))}
	}
	for i := rng.IntN(3); i > 0; i-- {
		p.Stalls = append(p.Stalls, win(-1, rng.IntN(4)))
	}
	for i := rng.IntN(3); i > 0; i-- {
		p.MemStalls = append(p.MemStalls, win(-1, rng.IntN(4)))
	}
	if rng.Float64() < 0.4 {
		p.Crashes = append(p.Crashes, win(0, rng.IntN(4)))
	}
	if rng.Float64() < 0.4 {
		p.MemCrashes = append(p.MemCrashes, win(-1, rng.IntN(4)))
	}
	if rng.Float64() < 0.4 {
		p.LinkCrashes = append(p.LinkCrashes, win(1, rng.IntN(4)))
	}
	if p.HasCrashes() {
		p.CheckpointEvery = 64
	}
	return p
}

// Programs derives the scenario's randomized workload: a seeded
// per-instruction mix biased toward non-idempotent operations
// (fetch-and-add, affine, Boolean) so a double-executed RMW — the
// signature of a dedup bug — always shows up in the history or the final
// memory rather than hiding behind an idempotent store.
func Programs(seed uint64, procs, ops, addrs int) [][]machine.Instr {
	rng := rand.New(rand.NewPCG(seed, 1234))
	progs := make([][]machine.Instr, procs)
	for p := range progs {
		for i := 0; i < ops; i++ {
			addr := word.Addr(rng.IntN(addrs))
			var op rmw.Mapping
			switch r := rng.IntN(10); {
			case r < 4:
				op = rmw.FetchAdd(int64(rng.IntN(19) - 9))
			case r < 6:
				op = rmw.Affine{A: int64(rng.IntN(5) - 2), B: int64(rng.IntN(50))}
			case r < 7:
				op = rmw.Bool{A: rng.Uint64(), B: rng.Uint64()}
			case r < 8:
				op = rmw.SwapOf(int64(rng.IntN(100)))
			default:
				op = rmw.Load{}
			}
			progs[p] = append(progs[p], machine.RMW(addr, op))
		}
	}
	return progs
}

// Run executes one scenario at Workers 1 and checks its invariants, then
// reruns it at Workers 3, whose snapshot must be the same bytes — the
// worker count is unobservable under every plan (DESIGN.md §6.1).  It
// returns the engine's snapshot counters (for vacuous-pass accounting) and
// the first violation found, nil if the run is clean.  Run is
// deterministic: the same Scenario always produces the same counters and
// the same verdict.
func Run(sc Scenario) (map[string]int64, error) {
	progs := Programs(sc.WorkloadSeed, sc.Procs, sc.Ops, sc.Addrs)
	cfg := wiring.Config{Procs: sc.Procs, WaitBufCap: 64, Workers: 1, Faults: sc.Plan}
	_, eng, c, err := Battery(sc.Topology, cfg, progs, maxCycles)
	if err != nil {
		return c, err
	}
	cfg.Workers = 3
	build, err := wiring.New(sc.Topology, cfg)
	if err != nil {
		return c, err
	}
	m3 := machine.New(progs, build)
	m3.Run(maxCycles)
	if !bytes.Equal(m3.Engine().Snapshot().JSON(), eng.Snapshot().JSON()) {
		return c, fmt.Errorf("Workers=3 snapshot differs from Workers=1")
	}
	return c, nil
}

// Battery is the invariant battery every soak runs: it builds the programs'
// machine on the named wiring with the trace folded into a
// serial.Certificate, drives it, and checks that the programs complete
// within maxCycles, that the history is per-location serializable against
// the final contents of every address it touches (Theorem 4.2), and that RMW
// semantics are exactly-once — issued == completed with nothing left in
// flight — and that the occupancy index the sweeps skip on still counts
// what the queues hold (engine.Shell.CheckLoads).
//
// Serializability is checked by the certificate, which also checks
// real-time order, unless the run retransmitted, duplicated or rolled back
// an access; then the search decides, and the counters gain
// "searched_crash", "searched_dup" or "searched_retransmit".  A rejected
// certificate falls back to the search too, and fails the run whatever the
// search says (serial.Check).
//
// A caller's cfg.Trace still receives every event, after the fold.
//
// It returns the machine, the engine, the engine's snapshot counters and
// the first violation, nil if the run is clean; a watchdog trip is reported
// with the engine's replayable stall report.
func Battery(topology string, cfg wiring.Config, progs [][]machine.Instr, maxCycles int) (*machine.Machine, engine.Machine, map[string]int64, error) {
	fold := serial.NewFold()
	if sink := cfg.Trace; sink != nil {
		cfg.Trace = func(e engine.Event) { fold.Record(e); sink(e) }
	} else {
		cfg.Trace = fold.Record
	}
	build, err := wiring.New(topology, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	m := machine.New(progs, build)
	eng := m.Engine()
	if !m.Run(maxCycles) {
		if eng.Stalled() {
			return m, eng, eng.Snapshot().Counters, fmt.Errorf("watchdog tripped: %s", eng.StallReport())
		}
		return m, eng, eng.Snapshot().Counters,
			fmt.Errorf("programs did not complete within %d cycles (%d in flight)", maxCycles, eng.InFlight())
	}
	c := eng.Snapshot().Counters
	final := map[word.Addr]word.Word{}
	for _, op := range m.History().Ops() {
		final[op.Addr] = eng.Memory().Peek(op.Addr)
	}
	// A crash window can roll a served access back, and a network-born
	// duplicate or a retransmit can be served again, with no event to say
	// so: those runs go to the search.
	var cert serial.Certificate
	switch {
	case cfg.Faults != nil && cfg.Faults.HasCrashes():
		c["searched_crash"] = 1
	case c["dup_injected"] > 0:
		c["searched_dup"] = 1
	case c["retries"] > 0:
		c["searched_retransmit"] = 1
	default:
		cert = fold.Certificate()
	}
	if err := serial.Check(m.History(), cert, nil, final); err != nil {
		return m, eng, c, err
	}
	if c["issued"] != c["completed"] {
		return m, eng, c, fmt.Errorf("exactly-once violated: issued %d != completed %d", c["issued"], c["completed"])
	}
	if n := eng.InFlight(); n != 0 {
		return m, eng, c, fmt.Errorf("%d requests still in flight after completion", n)
	}
	if err := eng.CheckLoads(); err != nil {
		return m, eng, c, fmt.Errorf("occupancy index out of step with the queues: %v", err)
	}
	return m, eng, c, nil
}

// Windows counts the fault windows in a plan — the size metric the
// shrinker minimizes and the acceptance bar ("shrunk to ≤ N windows")
// measures.
func Windows(p *faults.Plan) int {
	n := 0
	for _, ws := range p.WindowLists() {
		n += len(*ws)
	}
	return n
}

func clonePlan(p *faults.Plan) *faults.Plan {
	q := *p
	for _, ws := range q.WindowLists() {
		*ws = slices.Clone(*ws)
	}
	return &q
}

// Shrink minimizes a failing scenario under a rerun budget and returns the
// smallest still-failing scenario plus the reruns spent.  The passes run
// to a fixpoint: shrink the program first (every later rerun gets
// cheaper), then drop fault windows one at a time, zero whole fault
// kinds, and finally walk each surviving probability and the reorder
// bound down while the violation reproduces.  A candidate is accepted
// only if it still fails, so the result always replays the violation.
func Shrink(sc Scenario, maxRuns int) (Scenario, int) {
	runs := 0
	fails := func(c Scenario) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		_, err := Run(c)
		return err != nil
	}
	cur := sc
	for changed := true; changed && runs < maxRuns; {
		changed = false
		// Shorter programs first: the serializability check dominates the
		// rerun cost and its search grows steeply with ops per address.
		for cur.Ops > 2 {
			cand := cur
			cand.Ops = cur.Ops / 2
			if !fails(cand) {
				break
			}
			cur = cand
			changed = true
		}
		for k := range cur.Plan.WindowLists() {
			for i := 0; i < len(*cur.Plan.WindowLists()[k]); i++ {
				cand := cur
				cand.Plan = clonePlan(cur.Plan)
				ws := cand.Plan.WindowLists()[k]
				*ws = slices.Delete(*ws, i, i+1)
				if fails(cand) {
					cur = cand
					changed = true
					i--
				}
			}
		}
		for k := range cur.Plan.Probs() {
			if *cur.Plan.Probs()[k] == 0 {
				continue
			}
			cand := cur
			cand.Plan = clonePlan(cur.Plan)
			*cand.Plan.Probs()[k] = 0
			if fails(cand) {
				cur = cand
				changed = true
			}
		}
		for k := range cur.Plan.Probs() {
			// Halving keeps a strict subset of the fired faults (fixed
			// hash thresholds), so this walks to the smallest probability
			// that still triggers the violation.
			for p := *cur.Plan.Probs()[k]; p > 1e-6; p = *cur.Plan.Probs()[k] {
				cand := cur
				cand.Plan = clonePlan(cur.Plan)
				*cand.Plan.Probs()[k] = p / 2
				if !fails(cand) {
					break
				}
				cur = cand
				changed = true
			}
		}
		for cur.Plan.Reorder > 0 && cur.Plan.ReorderMax > 1 {
			cand := cur
			cand.Plan = clonePlan(cur.Plan)
			cand.Plan.ReorderMax = cur.Plan.ReorderMax / 2
			if !fails(cand) {
				break
			}
			cur = cand
			changed = true
		}
	}
	// Cosmetic: a reorder bound without a reorder probability is inert.
	if cur.Plan.Reorder == 0 && cur.Plan.ReorderMax != 0 {
		cur.Plan = clonePlan(cur.Plan)
		cur.Plan.ReorderMax = 0
	}
	return cur, runs
}

// ReproCommand renders a scenario as the cmd/replay command line that
// replays it deterministically — the form a shrunk violation is reported
// in.
func ReproCommand(sc Scenario) string {
	return fmt.Sprintf("go run ./cmd/replay -chaos -topology %s -n %d -ops %d -addrs %d -seed %d -plan '%s'",
		sc.Topology, sc.Procs, sc.Ops, sc.Addrs, sc.WorkloadSeed, faults.EncodePlan(sc.Plan))
}
