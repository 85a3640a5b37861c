// Package engine is the common core the combining transports share: the
// combining station (Station), the machine every cycle engine embeds (Shell)
// with the hops that move messages between stations, the compiled link table
// they index (Links), one configuration validator (Spec), one snapshot
// counter schema (Counters), and the topology abstractions the wirings are
// parameterized by.
//
// The paper's central claim is that combining is a property of a queue with
// a wait buffer (Section 4, Figure 1), not of any particular wiring (Section
// 7): whatever connects processors to memory, replies retrace their requests
// and the mechanism carries over — "the processors themselves act like
// network switches".  The code says that once.  A cycle machine is stations,
// a link table and a schedule.
//
// What the core owns:
//
//   - the station (station.go): forward FIFOs, reverse FIFOs, one wait
//     buffer of one record type, and the six things done to it — accept a
//     request (combine at the tail, else push, else refuse), the
//     reserved-credit check, accept a reply (decombine recursively, else
//     queue it toward its processor or hand it over), pop a head, crash
//     flush, occupancy — the only code that pushes or pops a station queue,
//     and so the only code that keeps the occupancy index (Shell.Loads) the
//     hops read before they touch a station or a module.
//     One request entry (FwdEntry) and one reply entry (RevEntry) carry the
//     superset of routing state: a recorded path or the issuing processor.
//     internal/asyncnet's switch goroutines own the same station;
//   - the hops (hop.go), each written once over the stations and the table:
//     FwdHop and RevHop (a station's forward and reverse move), Tick (module
//     guards, reverse credit, serve, route — the only caller of serve),
//     MemReady/Feed (the terminal link into a module), Inject (offer, link
//     draw, accept), Commit (deliver what the hops brought home), and the
//     arbiter, Turn;
//   - the step frame: cycle advance, the stall mask, crash-window edge
//     detection with its ledger bookkeeping (a station's crash flushes it,
//     the modules it hosts and the metadata it holds; module rollback is the
//     shell's own), retransmit expiry into per-port retry lists, limbo
//     release, and after the sweep the lane merge, the saturation monitor and
//     the progress watchdog;
//   - the processor port: retry first, else the pending slot refilled from
//     the injector, tracked, held back behind an earlier same-address
//     request;
//   - both terminal links: into memory (metadata filed, request enqueued)
//     and out to the processor (duplicate suppression, replay ledger,
//     latency, completion counters, the injector's Deliver), with the
//     adversarial integrity layer — stamp at the last trusted hop, reorder
//     into limbo, corrupt, verify, quarantine, duplicate with an owning
//     clone — written once;
//   - the memory array and request metadata;
//   - the event trace (trace.go): one vocabulary, written into per-station
//     and per-port buffers by their owners and handed to the sink after
//     each sweep in a fixed order, so a trace is the same at every width;
//   - Run, Drain, InFlight, Stalled, StallReport, Snapshot and the
//     accessors — the Machine interface drivers program against — plus
//     config validation and defaults, the counter-key schema, and
//     conflict-group derivation for parallel steppers.
//
// What a wiring supplies (ShellConfig): its stations (NewStations), the
// Links it compiles, and four Hooks — Sweep (its schedule: the order in
// which its stations hop in a cycle, straight code over the hops), CanFeed
// (its module feed rule), Saturated (its saturation predicate) and Observe
// (which shared counters it publishes under which names, and its gauges).
// The schedules stay code because they differ in machine semantics: the
// staged network's pipeline order (internal/network, barrier-separated
// phases over conflict groups that one worker or several run), the direct
// machine's store-and-forward sweep under the hops' one-link-per-cycle
// stamp (internal/hypercube), the bus's single shared medium
// (internal/busnet).
// internal/engine's tests build two more machines the repo ships nowhere:
// a one-station crossbar (shell_test.go) and a binary reduction tree whose
// interior stations host neither processor nor memory (tree_test.go), each a
// table and a schedule of a few dozen lines.
//
// The worker-phase rule — which hops a schedule's pool workers may call, and
// with whose Lane — is in hop.go.  A module has one owner per
// barrier-separated phase: its cycle API takes no lock (see internal/memory).
//
// Messages stay put (store.go, DESIGN.md §6.2): a station queue holds a
// small entry — address or reply id, return path, the body's handle — and a
// hop copies only that; the body stays in one slot of the shell's store from
// the cycle the message enters the fabric until it leaves, and the memory
// link files the entry, so the module's reply is written into the body of
// the request it answers.
//
// What a topology supplies: pure wiring arithmetic, well under 150 lines
// each, evaluated once by CompileStaged / CompileDirect.
//
//   - A Staged topology (omega, fat-tree/butterfly) supplies processor→line
//     placement, the inter-stage permutations and their inverses, and
//     destination-tag port selection — plus the conflict groups the
//     deterministic stepper partitions on, which
//     RevGroups/FwdGroups derive generically from the wiring.
//
//   - A Direct topology (hypercube, torus) supplies the link structure of
//     a direct-connection machine — degree, neighbor map, and the
//     forward/reverse routing functions, with the invariant that the
//     reverse route retraces the forward route node for node (the paper's
//     "only major restriction": replies return via the same route, so the
//     wait buffers that combined a request see its reply).
//
// Adding a topology of either kind means writing the wiring functions and
// nothing else; adding a wiring of a new kind means a table and a schedule.
package engine
