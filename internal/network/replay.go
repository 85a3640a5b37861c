package network

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// Trace-driven workloads: a plain-text format for request traces, so
// measured or generated access streams can be replayed deterministically
// through any of the engines.  One request per line:
//
//	<cycle> <proc> <addr> <op> [args...]
//
// where op is one of: load, store <v>, swap <v>, add <a>, or <a>, and <a>,
// xor <a>, min <a>, max <a>.  Lines starting with '#' are comments.
// Requests for one processor must appear in nondecreasing cycle order;
// the cycle is the earliest issue time (backpressure may delay actual
// injection).

// TraceEntry is one parsed request.
type TraceEntry struct {
	Cycle int64
	Proc  int
	Addr  word.Addr
	Op    rmw.Mapping
}

// ParseTrace reads the trace format.
func ParseTrace(r io.Reader) ([]TraceEntry, error) {
	var out []TraceEntry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace line %d: want at least 4 fields, got %d", lineNo, len(fields))
		}
		cycle, err1 := strconv.ParseInt(fields[0], 10, 64)
		proc, err2 := strconv.Atoi(fields[1])
		addr, err3 := strconv.ParseUint(fields[2], 10, 32)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("trace line %d: bad cycle/proc/addr", lineNo)
		}
		opName := fields[3]
		var arg int64
		if len(fields) >= 5 {
			arg, err1 = strconv.ParseInt(fields[4], 10, 64)
			if err1 != nil {
				return nil, fmt.Errorf("trace line %d: bad argument %q", lineNo, fields[4])
			}
		}
		var op rmw.Mapping
		switch opName {
		case "load":
			op = rmw.Load{}
		case "store":
			op = rmw.StoreOf(arg)
		case "swap":
			op = rmw.SwapOf(arg)
		default:
			// The associative ops go by their θ names, as WriteTrace writes them.
			for o := rmw.OpAdd; o <= rmw.OpMax; o++ {
				if o.String() == opName {
					op = rmw.Assoc{Op: o, A: arg}
				}
			}
			if op == nil {
				return nil, fmt.Errorf("trace line %d: unknown op %q", lineNo, opName)
			}
		}
		out = append(out, TraceEntry{Cycle: cycle, Proc: proc, Addr: word.Addr(addr), Op: op})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// WriteTrace emits entries in the trace format.
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	bw := bufio.NewWriter(w)
	for _, e := range entries {
		var opStr string
		switch v := e.Op.(type) {
		case rmw.Load:
			opStr = "load"
		case rmw.Const:
			if v.NeedOld {
				opStr = fmt.Sprintf("swap %d", v.V)
			} else {
				opStr = fmt.Sprintf("store %d", v.V)
			}
		case rmw.Assoc:
			opStr = fmt.Sprintf("%s %d", v.Op, v.A)
		default:
			return fmt.Errorf("trace: cannot serialize op %v", e.Op)
		}
		if _, err := fmt.Fprintf(bw, "%d %d %d %s\n", e.Cycle, e.Proc, e.Addr, opStr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReplayInjector feeds one processor's slice of a trace.
type ReplayInjector struct {
	entries []TraceEntry
	next    int
	ids     *word.IDGen
	nprocs  int
	proc    word.ProcID

	// Completed counts delivered replies.
	Completed int64
}

var _ Injector = (*ReplayInjector)(nil)

// NewReplayInjectors splits a trace by processor into injectors for an
// nprocs-port engine.  Entries whose proc is out of range are an error.
func NewReplayInjectors(entries []TraceEntry, nprocs int) ([]Injector, []*ReplayInjector, error) {
	per := make([][]TraceEntry, nprocs)
	for _, e := range entries {
		if e.Proc < 0 || e.Proc >= nprocs {
			return nil, nil, fmt.Errorf("trace: proc %d out of range [0,%d)", e.Proc, nprocs)
		}
		per[e.Proc] = append(per[e.Proc], e)
	}
	inj := make([]Injector, nprocs)
	reps := make([]*ReplayInjector, nprocs)
	for p := 0; p < nprocs; p++ {
		chunk := per[p]
		sort.SliceStable(chunk, func(i, j int) bool { return chunk[i].Cycle < chunk[j].Cycle })
		reps[p] = &ReplayInjector{
			entries: chunk,
			ids:     word.Partition(p, nprocs),
			nprocs:  nprocs,
			proc:    word.ProcID(p),
		}
		inj[p] = reps[p]
	}
	return inj, reps, nil
}

// Next implements Injector.
func (r *ReplayInjector) Next(cycle int64) (Injection, bool) {
	if r.next >= len(r.entries) || r.entries[r.next].Cycle > cycle {
		return Injection{}, false
	}
	e := r.entries[r.next]
	r.next++
	id := r.ids.NextPartitioned(r.nprocs)
	return Injection{Req: core.NewRequest(id, e.Addr, e.Op, r.proc)}, true
}

// Deliver implements Injector.
func (r *ReplayInjector) Deliver(core.Reply, int64) { r.Completed++ }

// Done reports whether the whole slice has been issued and answered.
func (r *ReplayInjector) Done() bool {
	return r.next >= len(r.entries) && r.Completed == int64(len(r.entries))
}
