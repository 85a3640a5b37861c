// Package network implements a cycle-accurate simulator of the
// packet-switched multistage interconnection network of Section 4: an
// Omega (shuffle-exchange) network of 2×2 combining switches connecting N
// processors to N interleaved memory modules.
//
// The simulator realizes the paper's assumptions directly:
//
//   - packet switching, with bounded FIFO output queues per switch port;
//   - non-overtaking links (queues preserve order);
//   - replies retrace the request path in reverse, using a path header the
//     request builds as it ascends (Section 4.1);
//   - combining at switch output queues, with a bounded wait buffer per
//     switch (partial combining when full — always correct, Section 7).
//
// It is the instrument for the hot-spot experiments (E8, E9, A1): the
// phenomena of Pfister & Norton [20] — bandwidth collapse toward the
// single-module limit and tree saturation delaying even non-hot traffic —
// emerge from the queueing model, and combining removes them.
package network

import (
	"combining/internal/core"
	"combining/internal/engine"
)

// fwdMsg is a request message in flight — the rim's message, whose Path
// header this fabric builds: the input port used at each stage so far,
// pushed as the request ascends.  Replies pop the entries in reverse.
type fwdMsg = engine.Fwd

// revMsg is a reply message descending toward a processor.
type revMsg struct {
	rep core.Reply
	// path holds the ports for the stages not yet traversed; the entry
	// for the current stage is popped on arrival.
	path []uint8
	// issueCycle and hot are copied from the request for metrics.
	issueCycle int64
	hot        bool
	// slots is the number of data values this reply carries (0 for a
	// bare store acknowledgment), for the traffic accounting of E11.
	slots int
}

// netRecord extends the core wait-buffer record with the reply routing
// state the network needs: the second request's path header and metric
// tags for both constituents.
type netRecord struct {
	core.Record
	// pathSecond is the full path header of the request serialized
	// second (whose reply is synthesized as f(val)).
	pathSecond []uint8
	// issue2 and hot2 tag the second request's reply for metrics.
	issue2 int64
	hot2   bool
	// needs1 and needs2 record whether each constituent's reply carries
	// a value, for traffic accounting.
	needs1, needs2 bool
	// reps2 names the second request's leaves so a crash flushing this
	// record can report exactly which operations lost their reply path.
	reps2 []core.Leaf
}
