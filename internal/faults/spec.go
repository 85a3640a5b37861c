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
// Keys, in the order EncodePlan writes them: see Fields.

// Field is one spec key and the Plan field it names.  Of returns a pointer
// to that field: a *uint64 (the seed, always written), a *float64
// probability, an *int64 count, a *string (the canary) or a *[]Window.
type Field struct {
	Key string
	Of  func(*Plan) any
}

// Fields lists every spec key in the order EncodePlan writes them.
// EncodePlan and ParsePlan range over it, and so do Probs and WindowLists.
var Fields = []Field{
	{"seed", func(p *Plan) any { return &p.Seed }},
	{"dropfwd", func(p *Plan) any { return &p.DropFwd }},
	{"droprev", func(p *Plan) any { return &p.DropRev }},
	{"reorder", func(p *Plan) any { return &p.Reorder }},
	{"reordermax", func(p *Plan) any { return &p.ReorderMax }},
	{"dup", func(p *Plan) any { return &p.Dup }},
	{"corrupt", func(p *Plan) any { return &p.Corrupt }},
	{"canary", func(p *Plan) any { return &p.Canary }},
	{"retry", func(p *Plan) any { return &p.RetryTimeout }}, // the RTO's floor, in cycles
	{"retrycap", func(p *Plan) any { return &p.RetryCap }},  // the RTO's and the backoff's ceiling
	{"ckpt", func(p *Plan) any { return &p.CheckpointEvery }},
	{"stalls", func(p *Plan) any { return &p.Stalls }},
	{"memstalls", func(p *Plan) any { return &p.MemStalls }},
	{"crashes", func(p *Plan) any { return &p.Crashes }},
	{"memcrashes", func(p *Plan) any { return &p.MemCrashes }},
	{"linkcrashes", func(p *Plan) any { return &p.LinkCrashes }},
}

// Probs returns pointers to p's five fault probabilities, in spec order.
func (p *Plan) Probs() []*float64 { return fieldsOf[float64](p) }

// WindowLists returns pointers to p's five window lists, in spec order.
func (p *Plan) WindowLists() []*[]Window { return fieldsOf[[]Window](p) }

// fieldsOf returns the fields of p of type T, in spec order.
func fieldsOf[T any](p *Plan) []*T {
	var out []*T
	for _, f := range Fields {
		if v, ok := f.Of(p).(*T); ok {
			out = append(out, v)
		}
	}
	return out
}

// EncodePlan renders the plan as a spec string ParsePlan inverts.
func EncodePlan(p *Plan) string {
	var parts []string
	for _, f := range Fields {
		var v string
		switch x := f.Of(p).(type) {
		case *uint64:
			v = strconv.FormatUint(*x, 10)
		case *float64:
			if *x != 0 {
				v = strconv.FormatFloat(*x, 'g', -1, 64)
			}
		case *int64:
			if *x != 0 {
				v = strconv.FormatInt(*x, 10)
			}
		case *string:
			v = *x
		case *[]Window:
			strs := make([]string, len(*x))
			for i, w := range *x {
				strs[i] = fmt.Sprintf("%d:%d:%d:%d", w.Stage, w.Index, w.From, w.To)
			}
			v = strings.Join(strs, "+")
		}
		if v != "" {
			parts = append(parts, f.Key+"="+v)
		}
	}
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
		i := slices.IndexFunc(Fields, func(f Field) bool { return f.Key == k })
		if i < 0 {
			return nil, fmt.Errorf("faults: unknown plan spec key %q", k)
		}
		var err error
		switch f := Fields[i].Of(p).(type) {
		case *uint64:
			*f, err = strconv.ParseUint(v, 10, 64)
		case *float64:
			*f, err = parseProb(v)
		case *int64:
			*f, err = parseNonNeg(v)
		case *string:
			*f = v
			if !slices.Contains(Canaries, v) {
				err = fmt.Errorf("unknown canary (want %s)", strings.Join(Canaries, ", "))
			}
		case *[]Window:
			*f, err = parseWindows(v)
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
