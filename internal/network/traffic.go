package network

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// TrafficConfig describes the synthetic hot-spot workload of Pfister &
// Norton [20], which the paper's introduction builds on: each processor
// issues requests at a given rate; a fraction h of them target one hot
// address and the rest are uniform over the address space.
type TrafficConfig struct {
	// Rate is the per-cycle issue probability while under the window.
	Rate float64
	// HotFraction is h, the fraction of requests directed at HotAddr.
	HotFraction float64
	// HotAddr is the hot-spot location.
	HotAddr word.Addr
	// Window bounds outstanding requests per processor (processors
	// pipeline accesses, Section 3.2).  The zero value means the default
	// of 4; negative windows are invalid and NewStochastic panics with a
	// clear error rather than silently substituting the default.  With
	// Adaptive set, Window is the *initial* window of the AIMD
	// controller, not a fixed bound.
	Window int
	// Adaptive turns on AIMD admission control: the effective window
	// shrinks multiplicatively when round-trip latency signals congestion
	// (tree saturation on the path to a hot module) and recovers
	// additively as the tree drains.  MinWindow/MaxWindow clamp the range
	// (defaults 1 and 4×Window).
	Adaptive  bool
	MinWindow int
	MaxWindow int
	// AddrSpace sizes the uniform address range (default 64·N).
	AddrSpace word.Addr
	// ZipfN, when positive, replaces the two-class hot/uniform split with
	// a Zipfian popularity law over ZipfN addresses: rank r (address
	// HotAddr+r) is drawn with weight 1/(r+1)^ZipfS.  Rank 0 — HotAddr
	// itself — counts as the hot class for the Hot/Cold tallies and the
	// Injection.Hot flag, so combining instrumentation keeps working.
	// HotFraction is ignored under Zipfian traffic.  ZipfS ≤ 0 with a
	// positive ZipfN means uniform over the ZipfN addresses (the s → 0
	// limit); negative ZipfN panics.
	ZipfN int
	ZipfS float64
	// BurstOn/BurstOff impose deterministic on/off bursts on the issue
	// process: the injector issues only during the first BurstOn cycles of
	// every BurstOn+BurstOff period (phase taken from the global cycle
	// count, so all injectors burst together — the worst case for the
	// network).  BurstOn == 0 means no bursting; BurstOn > 0 with
	// BurstOff == 0 is always-on; negative values panic.  The gate is
	// checked before any randomness is drawn, so the same seed produces
	// the same request stream shifted into the on-windows.
	BurstOn  int64
	BurstOff int64
	// MakeOp builds the operation for a request; nil means
	// fetch-and-add(1), the Ultracomputer hot-spot operation.
	MakeOp func(rng *rand.Rand, hot bool) rmw.Mapping
}

// Stochastic is the workload injector for one processor.
type Stochastic struct {
	proc        word.ProcID
	cfg         TrafficConfig
	rng         *rand.Rand
	ids         *word.IDGen
	nprocs      int
	outstanding int

	// aimd is the adaptive admission controller (nil unless
	// cfg.Adaptive); issued remembers each in-flight request's issue
	// cycle so Deliver can feed the controller round-trip times.
	aimd   *AIMD
	issued map[word.ReqID]int64

	// zipfCDF is the normalized cumulative weight table for Zipfian
	// address draws (nil unless cfg.ZipfN > 0): rank r is chosen when a
	// uniform draw lands in (zipfCDF[r-1], zipfCDF[r]].
	zipfCDF []float64

	// faa is the default fetch-and-add(1) operation boxed once: storing a
	// 16-byte rmw.Assoc into an interface per request would otherwise
	// heap-allocate on the steady-state injection path.  lin is likewise
	// the one-source lineage every request of this injector shares — safe
	// because nothing writes a lineage once it is built (core.Lineage).
	faa rmw.Mapping
	lin *core.Lineage

	// Hot and Cold count issued requests by class.
	Hot, Cold int64
}

var _ Injector = (*Stochastic)(nil)

// NewStochastic builds the injector for processor proc of nprocs.  A
// negative cfg.Window is rejected with a panic; zero means the default.
func NewStochastic(proc, nprocs int, cfg TrafficConfig, seed uint64) *Stochastic {
	if cfg.Window < 0 {
		panic(fmt.Sprintf("network: TrafficConfig.Window must be ≥ 0 (0 means the default of 4), got %d", cfg.Window))
	}
	if cfg.Window == 0 {
		cfg.Window = 4
	}
	if cfg.ZipfN < 0 {
		panic(fmt.Sprintf("network: TrafficConfig.ZipfN must be ≥ 0 (0 disables Zipfian traffic), got %d", cfg.ZipfN))
	}
	if cfg.BurstOn < 0 || cfg.BurstOff < 0 {
		panic(fmt.Sprintf("network: TrafficConfig burst cycles must be ≥ 0, got on=%d off=%d", cfg.BurstOn, cfg.BurstOff))
	}
	if cfg.BurstOn == 0 && cfg.BurstOff > 0 {
		panic(fmt.Sprintf("network: TrafficConfig.BurstOff %d without BurstOn — the injector would never issue", cfg.BurstOff))
	}
	s := &Stochastic{
		proc:   word.ProcID(proc),
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(seed, uint64(proc)*0x9e3779b97f4a7c15+1)),
		ids:    word.Partition(proc, nprocs),
		nprocs: nprocs,
		faa:    rmw.FetchAdd(1),
		lin:    core.SourceOf(word.ProcID(proc)),
	}
	if cfg.AddrSpace == 0 {
		s.cfg.AddrSpace = word.Addr(64 * nprocs)
	}
	if cfg.Adaptive {
		min, max := cfg.MinWindow, cfg.MaxWindow
		if min <= 0 {
			min = 1
		}
		if max <= 0 {
			max = 4 * cfg.Window
		}
		s.aimd = newAIMD(cfg.Window, min, max)
		s.issued = make(map[word.ReqID]int64)
	}
	if cfg.ZipfN > 0 {
		// Inverse-CDF table: weight 1/(r+1)^s for rank r, normalized so
		// the last entry is exactly 1 (no draw can fall off the end).
		s.zipfCDF = make([]float64, cfg.ZipfN)
		sum := 0.0
		for r := 0; r < cfg.ZipfN; r++ {
			sum += math.Pow(float64(r+1), -cfg.ZipfS)
			s.zipfCDF[r] = sum
		}
		for r := range s.zipfCDF {
			s.zipfCDF[r] /= sum
		}
		s.zipfCDF[cfg.ZipfN-1] = 1
	}
	return s
}

// Window returns the current admission window — fixed, or the AIMD
// controller's live value under Adaptive.
func (s *Stochastic) Window() int {
	if s.aimd != nil {
		return s.aimd.Window()
	}
	return s.cfg.Window
}

// Admission exposes the AIMD controller (nil unless Adaptive), for
// experiment reporting: mean window, decrease count.
func (s *Stochastic) Admission() *AIMD { return s.aimd }

// Next draws the next request per the Bernoulli issue process, gated by
// the deterministic burst schedule when one is configured.
func (s *Stochastic) Next(cycle int64) (Injection, bool) {
	if s.cfg.BurstOn > 0 && s.cfg.BurstOff > 0 &&
		cycle%(s.cfg.BurstOn+s.cfg.BurstOff) >= s.cfg.BurstOn {
		// Off phase.  Checked before any rng draw so the burst gate only
		// delays the request stream — it never reshuffles it.
		return Injection{}, false
	}
	if s.outstanding >= s.Window() {
		return Injection{}, false
	}
	if s.rng.Float64() >= s.cfg.Rate {
		return Injection{}, false
	}
	var hot bool
	var addr word.Addr
	if s.zipfCDF != nil {
		rank := sort.SearchFloat64s(s.zipfCDF, s.rng.Float64())
		hot, addr = rank == 0, s.cfg.HotAddr+word.Addr(rank)
	} else {
		hot = s.rng.Float64() < s.cfg.HotFraction
		addr = s.cfg.HotAddr
		if !hot {
			addr = word.Addr(s.rng.Int64N(int64(s.cfg.AddrSpace)))
			if addr == s.cfg.HotAddr {
				addr++
			}
		}
	}
	op := s.faa
	if s.cfg.MakeOp != nil {
		op = s.cfg.MakeOp(s.rng, hot)
	}
	if hot {
		s.Hot++
	} else {
		s.Cold++
	}
	s.outstanding++
	id := s.ids.NextPartitioned(s.nprocs)
	if s.issued != nil {
		s.issued[id] = cycle
	}
	// Built literally rather than through core.NewRequest so the request
	// reuses the injector's shared lineage instead of allocating one per
	// request.
	return Injection{Req: core.Request{ID: id, Addr: addr, Op: op, Lin: s.lin}, Hot: hot}, true
}

// Deliver releases a window slot and, under Adaptive, feeds the round-trip
// time to the AIMD controller.
func (s *Stochastic) Deliver(rep core.Reply, cycle int64) {
	s.outstanding--
	if s.issued != nil {
		if at, ok := s.issued[rep.ID]; ok {
			delete(s.issued, rep.ID)
			s.aimd.OnDeliver(cycle-at, cycle)
		}
	}
}

// AIMD is the additive-increase/multiplicative-decrease admission window a
// traffic source consults before issuing: it shrinks when round trips
// stretch well past the uncongested baseline (the congestion signal a
// processor can observe without global state) and recovers additively as
// the tree drains.  It is self-tuning: the baseline is the minimum RTT seen
// this run, so no latency constant needs calibrating per topology.
type AIMD struct {
	min, max float64
	win      float64

	minRTT  int64
	lastCut int64

	// Decreases counts multiplicative window cuts; WindowSum and Samples
	// accumulate the window at each delivery so MeanWindow reports the
	// effective admission level of a run.
	Decreases int64
	WindowSum int64
	Samples   int64
}

// newAIMD builds a controller starting at initial, clamped to [min, max].
func newAIMD(initial, min, max int) *AIMD {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	a := &AIMD{min: float64(min), max: float64(max), win: float64(initial)}
	if a.win < a.min {
		a.win = a.min
	}
	if a.win > a.max {
		a.win = a.max
	}
	return a
}

// Window returns the current admission window (at least 1).
func (a *AIMD) Window() int { return int(a.win) }

// MeanWindow returns the average window across deliveries (0 before any).
func (a *AIMD) MeanWindow() float64 {
	if a.Samples == 0 {
		return 0
	}
	return float64(a.WindowSum) / float64(a.Samples)
}

// congestRTTFactor and recoverRTTFactor bracket the signal: a round trip
// beyond congestRTTFactor× the minimum seen means queues on the path are
// deep (cut the window); one within recoverRTTFactor× means the path is
// drained (grow it).  Between the two the window holds steady, which keeps
// the controller from oscillating on moderate queueing.
const (
	congestRTTFactor = 4
	recoverRTTFactor = 2
)

// OnDeliver feeds one completed round trip: rtt in cycles, now the current
// cycle.  Cuts are rate-limited to one per round-trip time so a single
// congested window of deliveries is not punished once per reply.
func (a *AIMD) OnDeliver(rtt, now int64) {
	if rtt < 1 {
		rtt = 1
	}
	if a.minRTT == 0 || rtt < a.minRTT {
		a.minRTT = rtt
	}
	switch {
	case rtt > congestRTTFactor*a.minRTT:
		if now-a.lastCut >= rtt {
			a.win /= 2
			if a.win < a.min {
				a.win = a.min
			}
			a.lastCut = now
			a.Decreases++
		}
	case rtt <= recoverRTTFactor*a.minRTT:
		a.win += 1 / a.win
		if a.win > a.max {
			a.win = a.max
		}
	}
	a.WindowSum += int64(a.win)
	a.Samples++
}

// HotspotResult is one point of the hot-spot sweep (experiment E8/E9).
type HotspotResult struct {
	Procs       int
	HotFraction float64
	Combining   bool
	Stats       Stats
}

// RunHotspot runs one hot-spot simulation: nprocs processors, issue rate,
// hot fraction h, for the given number of cycles.  combining selects an
// unbounded wait buffer versus none.
func RunHotspot(nprocs int, rate, h float64, combining bool, cycles int, seed uint64) HotspotResult {
	traffic := TrafficConfig{Rate: rate, HotFraction: h, HotAddr: 0}
	return RunHotspotTraffic(nprocs, traffic, combining, cycles, seed)
}

// RunHotspotTraffic is RunHotspot with full control over the workload
// (window depth, operation mix, address space).
func RunHotspotTraffic(nprocs int, traffic TrafficConfig, combining bool, cycles int, seed uint64) HotspotResult {
	waitCap := 0
	if combining {
		waitCap = core.Unbounded
	}
	cfg := Config{
		Procs:      nprocs,
		QueueCap:   4,
		WaitBufCap: waitCap,
	}
	inj := make([]Injector, nprocs)
	for p := 0; p < nprocs; p++ {
		inj[p] = NewStochastic(p, nprocs, traffic, seed)
	}
	sim := NewSim(cfg, inj)
	sim.Run(cycles)
	return HotspotResult{
		Procs:       nprocs,
		HotFraction: traffic.HotFraction,
		Combining:   combining,
		Stats:       sim.Stats(),
	}
}

// AsymptoticHotBandwidth is the analytic saturation limit the sweep is
// compared against: with fraction h of references directed at one module
// and the rest spread over N modules, a non-combining memory delivers at
// most 1/(h + (1−h)/N) references per cycle — the single hot module serves
// one request per cycle and receives fraction h + (1−h)/N of all traffic.
func AsymptoticHotBandwidth(nprocs int, h float64) float64 {
	return 1 / (h + (1-h)/float64(nprocs))
}
