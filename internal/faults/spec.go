package faults

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Plan spec strings: a compact, command-line-safe rendering of a Plan that
// EncodePlan and ParsePlan invert exactly.  The chaos fuzzer emits its
// shrunk reproducers in this form ("go run ./cmd/replay -chaos ...
// -plan <spec>"), and cmd/replay / cmd/combsim accept it back, so a failing
// plan travels as one shell word.
//
// Format: comma-joined key=value pairs; window lists are '+'-joined
// stage:index:from:to quadruples.  Zero-valued fields are omitted.
//
//	seed=7,dropfwd=0.01,reorder=0.02,reordermax=8,stalls=-1:0:50:120
//
// Keys: seed, dropfwd, droprev, reorder, reordermax, dup, corrupt, canary,
// retry, retrycap, ckpt, stalls, memstalls, crashes, memcrashes,
// linkcrashes.

// EncodePlan renders the plan as a spec string ParsePlan inverts.
func EncodePlan(p *Plan) string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	add("seed", strconv.FormatUint(p.Seed, 10))
	if p.DropFwd != 0 {
		add("dropfwd", f(p.DropFwd))
	}
	if p.DropRev != 0 {
		add("droprev", f(p.DropRev))
	}
	if p.Reorder != 0 {
		add("reorder", f(p.Reorder))
	}
	if p.ReorderMax != 0 {
		add("reordermax", strconv.FormatInt(p.ReorderMax, 10))
	}
	if p.Dup != 0 {
		add("dup", f(p.Dup))
	}
	if p.Corrupt != 0 {
		add("corrupt", f(p.Corrupt))
	}
	if p.Canary != "" {
		add("canary", p.Canary)
	}
	if p.RetryTimeout != 0 {
		add("retry", strconv.FormatInt(p.RetryTimeout, 10))
	}
	if p.RetryCap != 0 {
		add("retrycap", strconv.FormatInt(p.RetryCap, 10))
	}
	if p.CheckpointEvery != 0 {
		add("ckpt", strconv.FormatInt(p.CheckpointEvery, 10))
	}
	ws := func(k string, ws []Window) {
		if len(ws) == 0 {
			return
		}
		strs := make([]string, len(ws))
		for i, w := range ws {
			strs[i] = fmt.Sprintf("%d:%d:%d:%d", w.Stage, w.Index, w.From, w.To)
		}
		add(k, strings.Join(strs, "+"))
	}
	ws("stalls", p.Stalls)
	ws("memstalls", p.MemStalls)
	ws("crashes", p.Crashes)
	ws("memcrashes", p.MemCrashes)
	ws("linkcrashes", p.LinkCrashes)
	return strings.Join(parts, ",")
}

// ParsePlan parses a spec string produced by EncodePlan (or written by
// hand), rejecting unknown keys and malformed values with a one-line error.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("faults: empty plan spec")
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("faults: plan spec entry %q is not key=value", part)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "dropfwd":
			p.DropFwd, err = parseProb(v)
		case "droprev":
			p.DropRev, err = parseProb(v)
		case "reorder":
			p.Reorder, err = parseProb(v)
		case "reordermax":
			p.ReorderMax, err = parseNonNeg(v)
		case "dup":
			p.Dup, err = parseProb(v)
		case "corrupt":
			p.Corrupt, err = parseProb(v)
		case "canary":
			p.Canary = v
			if !slices.Contains(Canaries, v) {
				err = fmt.Errorf("unknown canary (want %s)", strings.Join(Canaries, ", "))
			}
		case "retry":
			p.RetryTimeout, err = parseNonNeg(v)
		case "retrycap":
			p.RetryCap, err = parseNonNeg(v)
		case "ckpt":
			p.CheckpointEvery, err = parseNonNeg(v)
		case "stalls":
			p.Stalls, err = parseWindows(v)
		case "memstalls":
			p.MemStalls, err = parseWindows(v)
		case "crashes":
			p.Crashes, err = parseWindows(v)
		case "memcrashes":
			p.MemCrashes, err = parseWindows(v)
		case "linkcrashes":
			p.LinkCrashes, err = parseWindows(v)
		default:
			return nil, fmt.Errorf("faults: unknown plan spec key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: plan spec %s=%q: %v", k, v, err)
		}
	}
	return p, nil
}

func parseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f < 1) { // NaN parses, and is outside too
		return 0, fmt.Errorf("probability outside [0, 1)")
	}
	return f, nil
}

func parseNonNeg(v string) (int64, error) {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("must be >= 0")
	}
	return n, nil
}

func parseWindows(v string) ([]Window, error) {
	var out []Window
	for _, ws := range strings.Split(v, "+") {
		fields := strings.Split(ws, ":")
		if len(fields) != 4 {
			return nil, fmt.Errorf("window %q is not stage:index:from:to", ws)
		}
		stage, err1 := strconv.Atoi(fields[0])
		index, err2 := strconv.Atoi(fields[1])
		from, err3 := strconv.ParseInt(fields[2], 10, 64)
		to, err4 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("window %q has a non-numeric field", ws)
		}
		if to < from {
			return nil, fmt.Errorf("window %q ends before it starts", ws)
		}
		out = append(out, Window{Stage: stage, Index: index, From: from, To: to})
	}
	return out, nil
}
