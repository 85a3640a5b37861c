// Package sync provides contention-free synchronization primitives for
// real Go programs, built from the combinable read-modify-write vocabulary
// of Kruskal, Rudolph and Snir (PODC 1986) the rest of this repository
// simulates.
//
// The paper's combining networks make hot-spot synchronization scale by
// merging concurrent RMWs to one location inside the interconnect, so the
// hot memory module sees O(log n) traffic instead of O(n).  Mellor-Crummey
// and Scott showed the same idea lands in software: locks and barriers in
// which every waiter waits on its own locally-accessible flag, and a single
// remote write by some other processor ends the wait.  This package is that
// translation, in pure Go, with each primitive named by the combinable
// mapping it implements (DESIGN.md §9 carries the full correspondence).
//
// Under a runtime that multiplexes many goroutines onto few processors a
// local spin only pays while the waiter keeps its processor, so every wait
// here is one primitive, par.Wait: spin briefly, yield twice, then park on
// a channel private to the flag.  The waker's single remote write is a
// swap whose old value says whether to send, so a parked waiter costs the
// scheduler nothing and the O(1)-remote-reference counts below stand.
//
//   - MCSLock — the queue lock built on one atomic swap per queued
//     acquisition (the paper's I_v constant mapping with the old value
//     returned), behind a barging fast path: a running acquirer takes a
//     free lock with one compare-and-swap.  Each queued waiter waits on its
//     own cache-line-padded queue node, and only the queue head waits on
//     the lock word; once the head parks, the next release hands the lock
//     straight to it.  Not strictly FIFO — a barger can overtake a head
//     that is still spinning, never a parked one — and O(1) remote
//     references per acquisition regardless of contention.
//
//   - Barrier — a combining-tree barrier with dynamic winners, the
//     software image of a combined fetch-and-add: an arrival is one swap
//     of the caller's name into a tree node, the first of two to reach a
//     node waits on its own flag, the last carries the combined arrival
//     up, and whoever is last at the root never waits and releases the
//     tree top-down, one store per participant.  Local flags only;
//     reusable via per-participant episode numbers.
//
//   - Counter — a sharded combining counter: adds land on per-processor
//     cache-line-padded shards (fetch-and-add on a line nothing else
//     writes), and Read software-combines the shards pairwise up a binary
//     tree, mirroring the paper's combine-at-switch semantics.  The
//     steady-state Add path is allocation-free.
//
//   - FECell — a full/empty-bit synchronization cell (the paper's §5.5
//     two-state tables, as in the Denelcor HEP): conditional stores fail
//     on a full cell and consuming loads empty it, each answering false
//     for the NAK; a producer/consumer hand-off busy-waits by retrying.
//
// Every primitive is validated two ways in this repository: differentially
// against the simulator's serial oracle (core.SerialReplies on the
// equivalent RMW trace) and with race-detector soaks at 100k goroutines
// on hot-spot workloads (the *HotSpot100k tests and TestBarrierWide).  Benchmarks against the
// stdlib baselines (sync.Mutex, sync.WaitGroup, bare atomic.AddInt64) are
// the BenchmarkSync* family here (`make syncbench`) and the sync_* workloads
// of bench/run.sh.
package sync
