// Package engine is the common core the combining transports share: the
// machine rim every cycle engine embeds (Shell), one configuration
// validator (Spec), one snapshot counter schema (Counters), and the
// topology abstractions the cycle engines are parameterized by.
//
// The paper's central claim is that combining lives in the switches and
// memory modules, not in any particular wiring (Section 7): whatever
// connects processors to memory, replies retrace their requests and the
// mechanism carries over.  The code says that once.  A cycle machine is a
// fabric — queues and the hop sweeps over them — inside a rim that is the
// same for every fabric.
//
// What the core owns (Shell):
//
//   - the step frame: cycle advance, the stall mask, crash-window edge
//     detection with its ledger bookkeeping (one engine-supplied flush per
//     switch fault domain; module rollback is the rim's own), retransmit
//     expiry into per-port retry lists, limbo release, and after the sweep
//     the saturation monitor and the progress watchdog;
//   - the processor port: retry first, else the pending slot refilled from
//     the injector, tracked, held back behind an earlier same-address
//     request — exposed as Offer/Sent/Lost so each fabric keeps its own
//     arbitration loop;
//   - both terminal links: into memory (EnterMemory — metadata filed,
//     request enqueued) and out to the processor (Deliver — duplicate
//     suppression, replay ledger, latency, completion counters, the
//     injector's Deliver), with the adversarial integrity layer — stamp at
//     the last trusted hop, reorder into limbo, corrupt, verify,
//     quarantine, duplicate with an owning clone — written once;
//   - the memory array and the guards every module tick repeats (ModuleUp:
//     crashed / checkpoint due; MemStalled), and Serve, which ticks a
//     module and reunites the reply with its request;
//   - Run, Drain, InFlight, Stalled, StallReport, Snapshot and the
//     accessors — the Machine interface drivers program against — plus
//     config validation and defaults, the counter-key schema, and
//     conflict-group derivation for parallel steppers.
//
// What an engine supplies (Hooks): Sweep (its reverse/memory/forward sweeps
// and port arbitration), Flush (empty one switch fault domain, report the
// lost leaves), CanFeed (its module feed rule, for limbo release),
// Saturated (its saturation predicate), Hops and Queued (its movement
// count and occupancy, for the watchdog and the in-flight census), Detail
// (queue occupancy for a stall report), Observe (its hop, hold and combine
// counters and gauges), and optionally Reassemble (a wait buffer behind the
// processor link).  What it keeps is its queues, tryAccept/arriveFwd/
// enqueue, the sweeps, and its Config.  internal/engine's loopback test
// builds a whole machine from a 25-line sweep and nothing else.
//
// Worker-phase rule: a parallel sweep may read the masks (SwitchStalled,
// SwitchDead, ModuleDead), draw link drops (LinkDropsFwd/LinkDropsRev —
// hash decisions, atomic counters), and call ModuleUp, MemStalled, Serve
// and EnterMemory for modules the worker owns, passing the worker's own
// Shard — shard-only writes; the stepping goroutine folds shards in with
// Merge.  Ports and deliveries belong to one goroutine at a time.  A module
// has one owner per barrier-separated phase: its cycle API takes no lock
// (see internal/memory).
//
// Messages cross the rim by pointer and are copied where they come to rest:
// EnterMemory reads the caller's slot and files its own copy; Serve returns
// the filed box itself, valid until that module's next reply emerges.
//
// What a topology supplies: pure wiring arithmetic, well under 150 lines
// each.
//
//   - A Staged topology (omega, fat-tree/butterfly) supplies processor→line
//     placement, the inter-stage permutations and their inverses, and
//     destination-tag port selection — plus the conflict groups the
//     deterministic parallel stepper partitions on, which
//     RevGroups/FwdGroups derive generically from the wiring.  A step
//     loop does not call the arithmetic per hop: CompileStaged evaluates
//     it once into the per-stage tables (StagedTables) the sweeps index.
//     The hop sweeps and switch machinery live in internal/network and
//     are reused unchanged by every staged wiring.
//
//   - A Direct topology (hypercube, torus) supplies the link structure of
//     a direct-connection machine — degree, neighbor map, and the
//     forward/reverse routing functions, with the invariant that the
//     reverse route retraces the forward route node for node (the paper's
//     "only major restriction": replies return via the same route, so the
//     wait buffers that combined a request see its reply).  The
//     store-and-forward sweeps live in internal/hypercube and are reused
//     unchanged by every direct wiring.
//
// Adding a topology means writing the wiring functions and nothing else;
// adding a fabric means writing a hop sweep and nothing else.
package engine
