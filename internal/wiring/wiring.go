// Package wiring is the one place a topology name becomes a machine.  §7 of
// the paper says combining carries over to any wiring; the engines say it
// once (internal/engine), and this package lets the drivers say it once
// too: the soaks, the chaos fuzzer, cmd/replay, cmd/combsim and the bench
// table all build their machines here, from a name and the fields the six
// shipped wirings share.
package wiring

import (
	"fmt"
	"strings"

	"combining/internal/busnet"
	"combining/internal/engine"
	"combining/internal/faults"
	"combining/internal/hypercube"
	"combining/internal/network"
)

// Names lists the six shipped cycle wirings: the radix-2 and radix-4 omega
// networks and the fat-tree on the staged engine, the bus machine, and the
// binary hypercube and near-square torus on the direct engine.  The order
// is the chaos fuzzer's rotation, so scenario indices replay across commits.
func Names() []string {
	return []string{"omega", "omega4", "fattree", "bus", "hypercube", "torus"}
}

// Config is what the six wirings share.  Zero values take each engine's own
// default (see network.Config, hypercube.Config, busnet.Config).
type Config struct {
	// Procs is the processor count: a power of two, a power of four on
	// omega4, any count ≥ 1 on the bus.
	Procs int
	// QueueCap, RevQueueCap and MemQueueCap bound the forward, reverse and
	// memory-side queues.  The bus has no reverse queues, and MemQueueCap
	// is its bank queue.
	QueueCap, RevQueueCap, MemQueueCap int
	// WaitBufCap bounds each station's wait buffer (0 disables combining).
	WaitBufCap int
	// AllowReversal enables the Section 5.1 order-reversal optimization.
	AllowReversal bool
	// Banks is the bus machine's interleaved bank count (default 4); the
	// other wirings have one module per processor.
	Banks int
	// Workers shards each cycle's work; unobservable in the output.
	Workers int
	// Faults, when non-nil, arms the fault plan and the recovery layer.
	Faults *faults.Plan
	// Trace, when non-nil, receives every engine event of every cycle
	// (engine.ShellConfig.Trace); the trace is the same at every Workers.
	Trace func(engine.Event)
}

// New returns the function that builds the named wiring over its injectors,
// one per processor, or the one-line error a command prints before any run
// starts when name is not a shipped wiring or cfg a machine it can build.
// The function holds no per-machine state: each call builds a fresh machine.
func New(name string, c Config) (func([]engine.Injector) engine.Machine, error) {
	switch name {
	case "omega", "omega4", "fattree":
		cfg := network.Config{Procs: c.Procs, QueueCap: c.QueueCap, RevQueueCap: c.RevQueueCap,
			MemQueueCap: c.MemQueueCap, WaitBufCap: c.WaitBufCap, AllowReversal: c.AllowReversal,
			Workers: c.Workers, Faults: c.Faults, Trace: c.Trace}
		if name == "omega4" {
			cfg.Radix = 4
		}
		if name == "fattree" {
			cfg.Topology = engine.FatTreeOf(c.Procs, 2)
		}
		return func(inj []engine.Injector) engine.Machine { return network.NewSim(cfg, inj) }, cfg.Validate()
	case "hypercube", "torus":
		cfg := hypercube.Config{Nodes: c.Procs, QueueCap: c.QueueCap, RevQueueCap: c.RevQueueCap,
			MemQueueCap: c.MemQueueCap, WaitBufCap: c.WaitBufCap, AllowReversal: c.AllowReversal,
			Workers: c.Workers, Faults: c.Faults, Trace: c.Trace}
		if name == "torus" {
			cfg.Topology = engine.SquareTorusOf(c.Procs)
		}
		return func(inj []engine.Injector) engine.Machine { return hypercube.NewSim(cfg, inj) }, cfg.Validate()
	case "bus":
		cfg := busnet.Config{Procs: c.Procs, Banks: c.Banks, QueueCap: c.QueueCap,
			BankQueueCap: c.MemQueueCap, WaitBufCap: c.WaitBufCap, AllowReversal: c.AllowReversal,
			Workers: c.Workers, Faults: c.Faults, Trace: c.Trace}
		if cfg.Banks == 0 {
			cfg.Banks = 4
		}
		return func(inj []engine.Injector) engine.Machine { return busnet.NewSim(cfg, inj) }, cfg.Validate()
	}
	return nil, fmt.Errorf("wiring: unknown topology %q (want %s)", name, strings.Join(Names(), ", "))
}
