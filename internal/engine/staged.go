package engine

import "fmt"

// Staged is the wiring of a multistage interconnection network built from
// k = log_radix(procs) columns of radix×radix combining switches.  Lines
// are numbered 0..procs-1 at every column boundary; the switch holding
// line L is L/radix and the port is L%radix.  A Staged value supplies only
// pure arithmetic — no state — and must satisfy:
//
//   - LineProc inverts ProcLine, and PrevLine(s+1, ·) inverts NextLine(s, ·).
//   - Destination-tag routing terminates at the destination: entering on
//     line ProcLine(p) and leaving each stage s on port OutPort(s, dst) of
//     the current switch ends, after the last stage, on output line dst —
//     which is wired straight to memory module dst.  (TestStagedRouting
//     checks this exhaustively for every wiring.)
//
// The reverse path needs no routing function: forward messages record the
// input port taken at each stage, replies pop those ports, and PrevLine
// carries them back across the inter-stage permutations.
type Staged interface {
	Name() string
	Procs() int
	Radix() int
	Stages() int
	// ProcLine maps processor p to its stage-0 input line; LineProc is the
	// inverse (which processor a stage-0 reply on this line belongs to).
	ProcLine(proc int) int
	LineProc(line int) int
	// NextLine maps output line `line` of stage `stage` to the input line
	// it is wired to at stage+1; PrevLine(stage, line) is the inverse
	// (which stage-1 output line feeds input line `line` of `stage`).
	NextLine(stage, line int) int
	PrevLine(stage, line int) int
	// OutPort selects the output port at `stage` for a request homing on
	// memory module dst (destination-tag routing).
	OutPort(stage, dst int) int
	// Validate checks the wiring parameters; constructors never panic so
	// that invalid command-line parameters surface through Config.Validate.
	Validate() error
}

// stagedBase holds the parameters and digit arithmetic shared by the
// staged wirings: procs = radix^stages, and line digits in base radix.
type stagedBase struct {
	procs, radix, stages int
}

func stagedParams(procs, radix int) stagedBase {
	k := 0
	if radix >= 2 {
		for m := radix; m < procs; m *= radix {
			k++
		}
		k++ // procs == radix^k when valid; Validate rejects the rest
	}
	return stagedBase{procs: procs, radix: radix, stages: k}
}

func (b stagedBase) Procs() int  { return b.procs }
func (b stagedBase) Radix() int  { return b.radix }
func (b stagedBase) Stages() int { return b.stages }

func (b stagedBase) validate(name string) error {
	if b.radix < 2 {
		return fmt.Errorf("%s: Radix must be >= 2, got %d", name, b.radix)
	}
	if !IsPowerOf(b.procs, b.radix) {
		return fmt.Errorf("%s: Procs must be a positive power of Radix %d, got %d", name, b.radix, b.procs)
	}
	if b.stages*pathBits > 64 || b.radix > 1<<pathBits {
		return fmt.Errorf("%s: %d stages of radix %d do not fit the reply path header (%d bits a stage in 64)",
			name, b.stages, b.radix, pathBits)
	}
	return nil
}

// digit returns base-radix digit i of line; setDigit0 replaces digit 0.
func (b stagedBase) digit(line, i int) int {
	for ; i > 0; i-- {
		line /= b.radix
	}
	return line % b.radix
}

// swapDigits exchanges base-radix digits 0 and i of line.
func (b stagedBase) swapDigits(line, i int) int {
	stride := 1
	for j := 0; j < i; j++ {
		stride *= b.radix
	}
	d0 := line % b.radix
	di := (line / stride) % b.radix
	return line + (di - d0) + (d0-di)*stride
}

// OutPort is the destination-tag rule shared by omega and the butterfly:
// stage s consumes digit k-1-s of the destination module.
func (b stagedBase) OutPort(stage, dst int) int {
	return b.digit(dst, b.stages-1-stage)
}

// Omega is the paper's wiring: a perfect shuffle (rotate the base-radix
// digits left by one) before every column, including processor placement.
type Omega struct{ stagedBase }

// OmegaOf returns the omega wiring for procs processors and radix-wide
// switches.  Parameters are checked by Validate, not here.
func OmegaOf(procs, radix int) Omega { return Omega{stagedParams(procs, radix)} }

func (o Omega) Name() string          { return "omega" }
func (o Omega) Validate() error       { return o.validate("omega") }
func (o Omega) ProcLine(proc int) int { return o.shuffle(proc) }
func (o Omega) LineProc(line int) int { return o.unshuffle(line) }

// NextLine is the shuffle at every inter-stage boundary; PrevLine the
// inverse shuffle.  Both are stage-independent for omega.
func (o Omega) NextLine(_, line int) int { return o.shuffle(line) }
func (o Omega) PrevLine(_, line int) int { return o.unshuffle(line) }

func (o Omega) shuffle(line int) int {
	return (line*o.radix)%o.procs + line*o.radix/o.procs
}

func (o Omega) unshuffle(line int) int {
	return line/o.radix + (line%o.radix)*(o.procs/o.radix)
}

// FatTree is the k-ary butterfly wiring — the channel graph a fat-tree
// (folded Clos) presents to messages climbing to their root switch and
// descending to memory, unfolded into k one-directional columns so the
// staged engine can run it unchanged.  Processors enter on their own line
// (identity placement); the permutation after stage s swaps base-radix
// digit 0 with digit k-1-s, parking the destination digit that stage s
// just resolved in its final position.
type FatTree struct{ stagedBase }

// FatTreeOf returns the butterfly/fat-tree wiring for procs processors
// and radix-wide switches.  Parameters are checked by Validate, not here.
func FatTreeOf(procs, radix int) FatTree { return FatTree{stagedParams(procs, radix)} }

func (f FatTree) Name() string          { return "fattree" }
func (f FatTree) Validate() error       { return f.validate("fattree") }
func (f FatTree) ProcLine(proc int) int { return proc }
func (f FatTree) LineProc(line int) int { return line }

// NextLine applies the stage-s butterfly exchange; each digit swap is its
// own inverse, so PrevLine(s, ·) undoes NextLine(s-1, ·).
func (f FatTree) NextLine(stage, line int) int {
	return f.swapDigits(line, f.stages-1-stage)
}

func (f FatTree) PrevLine(stage, line int) int {
	return f.swapDigits(line, f.stages-stage)
}

// FwdBlocks partitions the switches one forward phase of the staged
// stepper hops into closed blocks: stage first, and when paired also stage
// first−1, hopped after it in the same phase.  Stage first's switches
// sharing a next-stage switch join one block — their forward hops contend
// on its input queues; at the last stage, whose far side is its own
// modules, each switch is alone — and each switch of stage first−1 joins
// the stage-first switches it feeds, so a block's second-stage hops land
// only on switches its own first-stage hops have already made.  A member
// sw < ns is switch sw of stage first, ns+sw switch sw of stage first−1.
// Blocks are derived from the wiring by union-find, so any Staged
// implementation gets a correct parallel partition for free; unpaired, on
// omega, they are the radix switches congruent mod ns/radix that DESIGN.md
// §6 derives analytically.  Each block's members are ascending, and blocks
// are ordered by smallest member — a deterministic shape the stepper splits
// across workers.
func FwdBlocks(t Staged, first int, paired bool) [][]int {
	far := func(line int) int { return line } // the last stage: module line is the switch's own
	if first+1 < t.Stages() {
		far = func(line int) int { return t.NextLine(first, line) }
	}
	var near func(int) int
	if paired {
		near = func(line int) int { return t.NextLine(first-1, line) }
	}
	return stageGroups(t, far, near)
}

// RevBlocks is FwdBlocks for a reverse phase: stage first ≥ 1, whose
// switches sharing a previous-stage switch join one block — a reply leaving
// either can land credits on the same upstream reverse queues; on omega the
// radix contiguous switches — and when paired stage first+1, each of whose
// switches joins the stage-first switches its replies enter.
func RevBlocks(t Staged, first int, paired bool) [][]int {
	var near func(int) int
	if paired {
		near = func(line int) int { return t.PrevLine(first+1, line) }
	}
	return stageGroups(t, func(line int) int { return t.PrevLine(first, line) }, near)
}

// stageGroups is the union-find behind the blocks: far maps
// a line of the first stage to the far-side line it is wired to, and near,
// when non-nil, a line of the second stage to the first-stage line it is
// wired to.
func stageGroups(t Staged, far, near func(line int) int) [][]int {
	r, ns := t.Radix(), t.Procs()/t.Radix()
	size := ns
	if near != nil {
		size = 2 * ns
	}
	parent := make([]int, size)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		if ra, rb := find(a), find(b); ra != rb {
			parent[max(ra, rb)] = min(ra, rb)
		}
	}
	// Switches wired to the same far-side switch join one group.  Both
	// sides have ns switches; farOwner[f] is 1 + the first near switch
	// wired to f.
	farOwner := make([]int, ns)
	for idx := 0; idx < ns; idx++ {
		for p := 0; p < r; p++ {
			f := far(idx*r+p) / r
			if owner := farOwner[f] - 1; owner >= 0 {
				union(idx, owner)
			} else {
				farOwner[f] = idx + 1
			}
		}
	}
	// A second-stage switch joins the first-stage switches it feeds.
	if near != nil {
		for idx := 0; idx < ns; idx++ {
			for p := 0; p < r; p++ {
				union(ns+idx, near(idx*r+p)/r)
			}
		}
	}
	// Number the groups by smallest member, then lay their members out in
	// one array, group after group, each ascending.  group[root] is 1 + the
	// number of the root's group.
	group := make([]int, size)
	var sizes []int
	for idx := 0; idx < size; idx++ {
		root := find(idx)
		if group[root] == 0 {
			sizes = append(sizes, 0)
			group[root] = len(sizes)
		}
		sizes[group[root]-1]++
	}
	groups, flat, off := make([][]int, len(sizes)), make([]int, size), 0
	for g, n := range sizes {
		groups[g] = flat[off : off : off+n]
		off += n
	}
	for idx := 0; idx < size; idx++ {
		g := group[find(idx)] - 1
		groups[g] = append(groups[g], idx)
	}
	return groups
}
