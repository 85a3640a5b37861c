package machine

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"combining/internal/rmw"
	"combining/internal/word"
)

// Request traces: a plain-text format for measured or generated access
// streams, so they replay deterministically on any wiring.  One request per
// line:
//
//	<cycle> <proc> <addr> <op> [arg]
//
// where op is one of: load, store <v>, swap <v>, add <a>, or <a>, and <a>,
// xor <a>, min <a>, max <a>.  Lines starting with '#' are comments.
//
// A trace is a program set: each line is the instruction
// Instr{Addr, Op, MinCycle: cycle} of program proc.  The cycle is the
// earliest issue time (backpressure may delay actual injection), and the
// instructions carry no dependencies, so a processor pipelines them.

// ParseTrace reads a trace into one program per processor of a procs-port
// machine.  Each program is stably sorted by cycle, so a processor's lines
// may come in any order and same-cycle lines keep theirs.  A proc outside
// [0, procs) is an error.
func ParseTrace(r io.Reader, procs int) ([][]Instr, error) {
	progs := make([][]Instr, procs)
	sc := bufio.NewScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
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
		if proc < 0 || proc >= procs {
			return nil, fmt.Errorf("trace line %d: proc %d out of range [0,%d)", lineNo, proc, procs)
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
		progs[proc] = append(progs[proc], Instr{Addr: word.Addr(addr), Op: op, MinCycle: cycle})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	for _, prog := range progs {
		slices.SortStableFunc(prog, func(a, b Instr) int { return cmp.Compare(a.MinCycle, b.MinCycle) })
	}
	return progs, nil
}

// WriteTrace writes programs in the trace format, processor by processor,
// each in program order.  Only what a trace line can say is written: an
// instruction with a fence, a dynamic address or op, or dependencies, or
// an op the format has no name for, is an error.
func WriteTrace(w io.Writer, progs [][]Instr) error {
	bw := bufio.NewWriter(w)
	for p, prog := range progs {
		for i, in := range prog {
			if in.Fence || in.DynAddr != nil || in.DynOp != nil || len(in.After) > 0 {
				return fmt.Errorf("trace: proc %d instruction %d is not a plain timed access", p, i)
			}
			var opStr string
			switch v := in.Op.(type) {
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
				return fmt.Errorf("trace: cannot serialize op %v", in.Op)
			}
			if _, err := fmt.Fprintf(bw, "%d %d %d %s\n", in.MinCycle, p, in.Addr, opStr); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
