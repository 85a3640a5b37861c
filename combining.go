// Package combining is a library reproduction of
//
//	Kruskal, Rudolph, Snir.  Efficient Synchronization on Multiprocessors
//	with Shared Memory.  PODC 1986 / ACM TOPLAS 10(4), 1988.
//
// It provides the paper's read-modify-write formalism and every tractable
// mapping family of Section 5; the memory-request combining mechanism of
// Section 4 with its correctness machinery (Lemma 4.1 bookkeeping and the
// Theorem 4.2 serializability checkers); one cycle-accurate combining
// machine — the Omega network of the hot-spot experiments and the Section 7
// variants (hypercube, torus, bus FIFO) on one engine core — that runs
// programs, and an invariant battery that checks each run, whose trace
// counts the Section 6 parallel-prefix tree the network builds.  The
// fetch-and-add coordination algorithms run on goroutines in
// combining/pkg/sync.
//
// The facade re-exports the names the commands, examples and root tests
// use from the internal packages; see DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-versus-measured record.
package combining

import (
	"combining/internal/chaos"
	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/machine"
	"combining/internal/model"
	"combining/internal/network"
	"combining/internal/pathexpr"
	"combining/internal/rmw"
	"combining/internal/serial"
	"combining/internal/wiring"
	"combining/internal/word"
)

// WiringConfig is what the six shipped cycle wirings share; Wirings names
// them, and NewWiring turns a name into the function that builds the wiring
// over its injectors — the one switch from a topology name to a machine
// (internal/wiring).  Its error is the one-line config check commands run
// up front.  ParseMachine and EncodeMachine are the machine spec codec: a
// name and config as one command-line word ("omega,procs=16,queue=4,wait=-1"),
// the -machine flag of cmd/replay and cmd/combsim.
type WiringConfig = wiring.Config

var (
	Wirings       = wiring.Names
	NewWiring     = wiring.New
	ParseMachine  = wiring.ParseMachine
	EncodeMachine = wiring.EncodeMachine
)

// ---- Words and identifiers (internal/word) ----

// Word is one shared-memory cell: a 64-bit value plus a state tag.
type Word = word.Word

// Addr names a shared-memory cell.
type Addr = word.Addr

// ProcID identifies a processor.
type ProcID = word.ProcID

// ReqID identifies a request.
type ReqID = word.ReqID

// IDGen issues request ids; PartitionIDs gives processor i of n its own
// id stream, disjoint from every other processor's, for custom injectors.
type IDGen = word.IDGen

var PartitionIDs = word.Partition

// Full/empty tags.
const (
	Empty = word.Empty
	Full  = word.Full
)

// W builds an untagged word; WT builds a tagged one.
var (
	W  = word.W
	WT = word.WT
)

// ---- The RMW formalism (internal/rmw) ----

// Mapping is the updating transformation f of RMW(X, f).
type Mapping = rmw.Mapping

// Mapping families.
type (
	// Load is the identity mapping (a load).
	Load = rmw.Load
	// Const is the constant mapping I_v (store or swap).
	Const = rmw.Const
	// Bool is the Boolean bit-vector family (x AND a) XOR b.
	Bool = rmw.Bool
	// Affine is x → ax+b over wrapping integers.
	Affine = rmw.Affine
	// Moebius is x → (ax+b)/(cx+d) over float64.
	Moebius = rmw.Moebius
	// Table is a data-level synchronization state table.
	Table = rmw.Table
)

// The four unary Boolean operations of Section 5.3.
const (
	BLoad  = rmw.BLoad
	BClear = rmw.BClear
	BSet   = rmw.BSet
	BComp  = rmw.BComp
)

// Mapping constructors and composition.
var (
	StoreOf  = rmw.StoreOf
	SwapOf   = rmw.SwapOf
	FetchAdd = rmw.FetchAdd

	BoolOf = rmw.BoolOf

	ComposeBoolUnary = rmw.ComposeBoolUnary

	FELoad              = rmw.FELoad
	FELoadClear         = rmw.FELoadClear
	FEStoreSet          = rmw.FEStoreSet
	FEStoreIfClearSet   = rmw.FEStoreIfClearSet
	FEStoreClear        = rmw.FEStoreClear
	FEStoreIfClearClear = rmw.FEStoreIfClearClear
	FELoadIfSetClear    = rmw.FELoadIfSetClear
	FEStoreIfClear      = rmw.FEStoreIfClear
	FEStoreIfSet        = rmw.FEStoreIfSet

	// Recoverable mutual exclusion (Section 5.5 full/empty operations as
	// a crash-survivable lock; internal/rmw/rme.go): acquire spins on
	// NAK, release clears, RMEAcquired decodes an acquire reply.  Both
	// operations are combinable Tables.
	RMEAcquire  = rmw.RMEAcquire
	RMERelease  = rmw.RMERelease
	RMEAcquired = rmw.RMEAcquired

	// Compose returns f∘g — f then g — per the Section 4.2 rule, and
	// whether the pair is combinable.
	Compose = rmw.Compose
	// ComposeAll folds Compose over a chain.
	ComposeAll = rmw.ComposeAll

	// EncodeMapping and DecodeMapping are the wire encoding.
	EncodeMapping = rmw.Encode
	DecodeMapping = rmw.Decode
)

// ---- The combining mechanism (internal/core) ----

// Reply is a reply message ⟨id, val⟩.
type Reply = core.Reply

// Policy configures combining (order reversal).
type Policy = core.Policy

// Combining primitives.
var (
	// NewRequest builds a fresh request.
	NewRequest = core.NewRequest
	// Combine merges two requests per Section 4.2.
	Combine = core.Combine
	// Decombine splits a reply using a wait-buffer record.
	Decombine = core.Decombine
	// Execute performs a memory-side RMW on a cell.
	Execute = core.Execute
	// SerialReplies is the serial reference semantics of Lemma 4.1.
	SerialReplies = core.SerialReplies
)

// Unbounded is the wait-buffer capacity for unlimited combining.
const Unbounded = core.Unbounded

// ---- Cycle-accurate network machine (internal/network) ----

// Injector supplies traffic for one processor port.  Injectors of
// different ports may be called at the same time (a staged machine at
// Workers > 1 serves each port on the worker that owns its first switch),
// so they must not share unsynchronized mutable state; one injector's own
// calls never overlap.  PartitionIDs gives each port its own id space.
type Injector = network.Injector

// Injection is one offered request.
type Injection = network.Injection

// Stochastic is the hot-spot workload injector.
type Stochastic = network.Stochastic

// TrafficConfig describes the hot-spot workload.
type TrafficConfig = network.TrafficConfig

// HotspotResult is one sweep point.
type HotspotResult = network.HotspotResult

// NetTraceLog collects the simulator's trace events (WiringConfig.Trace).
type NetTraceLog = engine.TraceLog

// Permutation traffic patterns for network baselines.
type Permutation = network.Permutation

// Classic permutation patterns and runner.
var (
	IdentityPerm    = network.IdentityPerm
	BitReversePerm  = network.BitReversePerm
	TransposePerm   = network.TransposePerm
	ShiftPerm       = network.ShiftPerm
	RunPermutation  = network.RunPermutation
	NewPermInjector = network.NewPermInjector
)

// Traffic generators, sweeps and the analytic bound.
var (
	NewStochastic          = network.NewStochastic
	RunHotspot             = network.RunHotspot
	RunHotspotTraffic      = network.RunHotspotTraffic
	AsymptoticHotBandwidth = model.HotspotBandwidth
)

// PredictUniformLatency is the closed-form round-trip prediction of the
// analytic performance model (Kruskal & Snir 1983).
var PredictUniformLatency = model.UniformLatency

// ---- Programs and histories (internal/machine, internal/serial) ----

// Machine runs instruction streams on a cycle machine: NewMachine takes the
// programs and the function that builds the machine over their injectors —
// a NewWiring result or M1.
type Machine = machine.Machine

// Instr is one program instruction.
type Instr = machine.Instr

// MachineEngine is any cycle-driven transport programs can run on — the one
// method set (step, run, drain, watchdog, snapshot, memory) all three cycle
// engines share.
type MachineEngine = engine.Machine

// Program builders.
var (
	NewMachine = machine.New
	// M1 builds the Section 3.2 stronger memory: the bus with one bank,
	// combining off.
	M1  = machine.M1
	RMW = machine.RMW
	// ParseTrace reads a request trace into one program per processor;
	// WriteTrace writes programs back in the trace format.
	ParseTrace = machine.ParseTrace
	WriteTrace = machine.WriteTrace
)

// History is a record of completed operations.
type History = serial.History

// HistOp is one completed operation.
type HistOp = serial.Op

// Consistency checkers.
var (
	// CheckM2 verifies per-location serializability (Theorem 4.2).
	CheckM2 = serial.CheckM2
	// CheckM2WithFinal additionally explains the final memory contents.
	CheckM2WithFinal = serial.CheckM2WithFinal
	// NewCertificateFold returns the trace sink (a Config's Trace is its
	// Record) that folds a machine run into the serialization it built.
	NewCertificateFold = serial.NewFold
	// CheckCertificate replays that serialization against the history in
	// one pass: per-location serializability and real-time order.
	CheckCertificate = serial.CheckCertificate
)

// ---- Deterministic fault injection (internal/faults) ----

// FaultPlan is one deterministic fault scenario: seeded link drops, switch
// stall windows, memory slowdowns, and the retransmit timeout schedule.
// Every engine Config accepts a *FaultPlan.
type FaultPlan = faults.Plan

var (
	// DefaultFaultPlan is the standard soak plan for a seed: 1% drops
	// each way, one switch blackout, one memory slowdown.
	DefaultFaultPlan = faults.Default
	// DefaultCrashPlan is the standard crash–restart soak plan for a
	// seed: one switch crash, one module crash, one link-down burst,
	// checkpoints every 64 cycles.
	DefaultCrashPlan = faults.DefaultCrash
	// GenCrashPlan derives a seeded crash schedule: n crashes of each
	// kind scattered over [0, horizon) with the given dead time.
	GenCrashPlan = faults.GenCrashPlan
	// DefaultAdversarialPlan is the standard adversarial-delivery soak
	// plan for a seed: Default's drops and stall windows plus per-link
	// reordering, network-born duplication, and payload corruption on the
	// terminal links (DESIGN.md §8).
	DefaultAdversarialPlan = faults.DefaultAdversarial
	// ParseFaultPlan is the command-line plan codec: a plan travels as one
	// comma-joined key=value shell word, the form the chaos fuzzer emits
	// reproducers in and cmd/replay / cmd/combsim accept back.
	ParseFaultPlan = faults.ParsePlan
)

// ---- Chaos fuzzing (internal/chaos) ----

// ChaosScenario is one fuzz case of the randomized fault-plan fuzzer: a
// machine (a wiring name and its WiringConfig), a seeded randomized
// workload, and a sampled fault plan.  Running a scenario is a pure
// function of its fields, so violations replay and shrink
// deterministically.
type ChaosScenario = chaos.Scenario

var (
	// NewChaosScenario derives the index-th scenario of a fuzz run.
	NewChaosScenario = chaos.NewScenario
	// RunChaos executes one scenario and returns its snapshot counters
	// plus the first invariant violation (nil if clean).
	RunChaos = chaos.Run
	// CheckBattery is the invariant battery RunChaos, cmd/replay and every
	// cmd/check soak share: build the programs' machine on a wiring, run it to
	// completion, per-location serializability against final memory (by
	// the run's certificate where its trace can give one), issued ==
	// completed, nothing left in flight.
	CheckBattery = chaos.Battery
	// CheckWidths reruns a finished machine's programs at other Workers
	// widths, each of which must reproduce its snapshot and replies.
	CheckWidths = chaos.AtWidths
	// ShrinkChaos minimizes a failing scenario under a rerun budget.
	ShrinkChaos = chaos.Shrink
	// ChaosWindows counts a plan's fault windows — the shrink metric.
	ChaosWindows = chaos.Windows
	// ChaosRepro renders a scenario as a replayable cmd/replay command,
	// its machine as a -machine spec beside its -plan.
	ChaosRepro = chaos.ReproCommand
)

// ---- Path expressions (internal/pathexpr) ----

// CompilePath compiles a path expression into combinable guard mappings.
var CompilePath = pathexpr.Compile
