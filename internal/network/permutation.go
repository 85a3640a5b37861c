package network

import (
	"math/bits"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// Permutation workloads — the classic evaluation patterns for multistage
// networks.  An Omega network is blocking: it routes some permutations
// conflict-free at full bandwidth and serializes others on shared links,
// which is why the hot-spot results are quoted against the uniform and
// permutation baselines.

// Permutation maps each source processor to the single module it
// addresses.
type Permutation func(proc, nprocs int) int

// IdentityPerm sends processor p to module p (conflict-free on an Omega).
func IdentityPerm(p, _ int) int { return p }

// BitReversePerm sends p to its bit-reversed index, a classically bad
// permutation for shuffle-based networks.
func BitReversePerm(p, n int) int {
	k := bits.TrailingZeros(uint(n))
	return int(bits.Reverse64(uint64(p)) >> (64 - k))
}

// TransposePerm swaps the high and low halves of the index bits (matrix
// transpose traffic).
func TransposePerm(p, n int) int {
	k := bits.TrailingZeros(uint(n))
	half := k / 2
	low := p & (1<<half - 1)
	high := p >> half
	return low<<(k-half) | high
}

// ShiftPerm sends p to (p+1) mod n.
func ShiftPerm(p, n int) int { return (p + 1) % n }

// PermInjector issues a fixed-rate stream of fetch-and-adds to one target
// module per processor.
type PermInjector struct {
	proc        word.ProcID
	target      word.Addr
	window      int
	outstanding int
	ids         *word.IDGen
	nprocs      int
}

var _ Injector = (*PermInjector)(nil)

// NewPermInjector builds the injector for proc under the permutation.
func NewPermInjector(proc, nprocs int, perm Permutation, window int) *PermInjector {
	if window <= 0 {
		window = 4
	}
	return &PermInjector{
		proc:   word.ProcID(proc),
		target: word.Addr(perm(proc, nprocs)),
		window: window,
		ids:    word.Partition(proc, nprocs),
		nprocs: nprocs,
	}
}

// Next issues whenever the window allows (full offered load).
func (p *PermInjector) Next(int64) (Injection, bool) {
	if p.outstanding >= p.window {
		return Injection{UntilReply: true}, false
	}
	p.outstanding++
	id := p.ids.NextPartitioned(p.nprocs)
	return Injection{Req: core.NewRequest(id, p.target, rmw.FetchAdd(1), p.proc)}, true
}

// Deliver frees a window slot.
func (p *PermInjector) Deliver(core.Reply, int64) { p.outstanding-- }

// RunPermutation measures delivered bandwidth for a permutation pattern.
// Combining is disabled: each processor owns its target, so no requests
// share an address.
func RunPermutation(nprocs int, perm Permutation, cycles int) Stats {
	inj := make([]Injector, nprocs)
	for p := 0; p < nprocs; p++ {
		inj[p] = NewPermInjector(p, nprocs, perm, 4)
	}
	sim := NewSim(Config{Procs: nprocs, WaitBufCap: 0}, inj)
	sim.Run(cycles)
	return sim.Stats()
}
