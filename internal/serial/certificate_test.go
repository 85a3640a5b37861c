package serial

import (
	"reflect"
	"strings"
	"testing"

	"combining/internal/engine"
	"combining/internal/rmw"
	"combining/internal/word"
)

// timedOp is an operation whose id is its processor's number times 100
// plus seq, so each test's certificate can name it.
func timedOp(proc word.ProcID, seq int, addr word.Addr, m rmw.Mapping, reply int64, issue, done int64) Op {
	return Op{Proc: proc, Seq: seq, Addr: addr, Op: m, Reply: word.W(reply),
		ID: word.ReqID(int(proc)*100 + seq), IssueAt: issue, DoneAt: done}
}

func history(ops ...Op) *History {
	h := &History{}
	for _, op := range ops {
		h.Add(op)
	}
	return h
}

func TestLinearizableAccepts(t *testing.T) {
	// Two overlapping FAAs may serialize either way; a third strictly
	// after both must come last — and does, by its reply.
	h := history(
		timedOp(0, 1, 9, rmw.FetchAdd(1), 1, 10, 20),
		timedOp(1, 1, 9, rmw.FetchAdd(1), 0, 12, 22),
		timedOp(2, 1, 9, rmw.FetchAdd(1), 2, 30, 40))
	if err := CheckCertificate(h, Certificate{9: {101, 1, 201}}, nil, nil); err != nil {
		t.Fatalf("valid timed history rejected: %v", err)
	}
}

func TestLinearizableRejectsRealTimeViolation(t *testing.T) {
	// Operation A completed (cycle 20) before B issued (cycle 30), yet
	// the replies claim B executed first (B saw 0, A saw B's effect).
	h := history(
		timedOp(0, 1, 9, rmw.FetchAdd(1), 1, 10, 20), // A: saw 1 → after someone
		timedOp(1, 1, 9, rmw.FetchAdd(1), 0, 30, 40)) // B: saw 0 → first
	replyOrder := Certificate{9: {101, 1}}
	if err := CheckCertificate(h, replyOrder, nil, nil); err == nil {
		t.Fatal("real-time violation accepted")
	}
	if err := CheckCertificate(h, Certificate{9: {1, 101}}, nil, nil); err == nil {
		t.Fatal("real-time order with the wrong replies accepted")
	}
	// The same replies without timestamps are fine (M2 allows it).
	untimed := history(
		timedOp(0, 1, 9, rmw.FetchAdd(1), 1, 0, 0),
		timedOp(1, 1, 9, rmw.FetchAdd(1), 0, 0, 0))
	if err := CheckCertificate(untimed, replyOrder, nil, nil); err != nil {
		t.Fatalf("untimed history rejected: %v", err)
	}
	if err := CheckM2(h, nil); err != nil {
		t.Fatalf("M2 must still accept the timed history: %v", err)
	}
}

func TestLinearizableStaleRead(t *testing.T) {
	// A load issued strictly after a store completed must see it.
	stale := history(
		timedOp(0, 1, 3, rmw.StoreOf(7), 0, 10, 20),
		timedOp(1, 1, 3, rmw.Load{}, 0, 30, 40)) // stale: saw 0
	for _, order := range []Certificate{{3: {1, 101}}, {3: {101, 1}}} {
		if err := CheckCertificate(stale, order, nil, nil); err == nil {
			t.Fatalf("stale read accepted with order %v", order)
		}
	}
	fresh := history(
		timedOp(0, 1, 3, rmw.StoreOf(7), 0, 10, 20),
		timedOp(1, 1, 3, rmw.Load{}, 7, 30, 40))
	if err := CheckCertificate(fresh, Certificate{3: {1, 101}}, nil, nil); err != nil {
		t.Fatalf("fresh read rejected: %v", err)
	}
}

func TestLinearizableFinalValue(t *testing.T) {
	h := history(timedOp(0, 1, 3, rmw.FetchAdd(5), 0, 1, 2))
	cert := Certificate{3: {1}}
	if err := CheckCertificate(h, cert, nil, map[word.Addr]word.Word{3: word.W(5)}); err != nil {
		t.Fatalf("correct final rejected: %v", err)
	}
	if err := CheckCertificate(h, cert, nil, map[word.Addr]word.Word{3: word.W(9)}); err == nil {
		t.Fatal("wrong final accepted")
	}
}

func TestLinearizableOverlapFreedom(t *testing.T) {
	// Fully overlapping operations are unconstrained by time; any
	// reply-consistent order works even across many processors.
	h := &History{}
	var order []word.ReqID
	for p := 5; p >= 0; p-- {
		h.Add(timedOp(word.ProcID(p), 1, 9, rmw.FetchAdd(1), int64(5-p), 10, 100))
		order = append(order, word.ReqID(p*100+1))
	}
	if err := CheckCertificate(h, Certificate{9: order}, nil, nil); err != nil {
		t.Fatalf("overlapping history rejected: %v", err)
	}
}

// TestCertificateMutations: a certificate with two leaves swapped, one
// dropped or one duplicated is rejected, and so is one that breaks a
// processor's issue order or puts an operation at another location.
func TestCertificateMutations(t *testing.T) {
	// Three processors fetch-and-add 1 to one cell in turn; a load of the
	// other cell rides along.
	h := history(
		timedOp(0, 1, 5, rmw.FetchAdd(1), 0, 1, 9),
		timedOp(1, 1, 5, rmw.FetchAdd(1), 1, 1, 9),
		timedOp(2, 1, 5, rmw.FetchAdd(1), 2, 1, 9),
		timedOp(0, 2, 5, rmw.FetchAdd(1), 3, 10, 19),
		timedOp(1, 2, 6, rmw.Load{}, 0, 10, 19))
	valid := Certificate{5: {1, 101, 201, 2}, 6: {102}}
	if err := CheckCertificate(h, valid, nil, nil); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	for name, cert := range map[string]Certificate{
		"swapped":           {5: {101, 1, 201, 2}, 6: {102}},
		"dropped":           {5: {1, 101, 201}, 6: {102}},
		"duplicated":        {5: {1, 101, 201, 2, 2}, 6: {102}},
		"issue order":       {5: {1, 2, 101, 201}, 6: {102}},
		"wrong location":    {5: {1, 101, 201, 2, 102}},
		"unknown id":        {5: {1, 101, 201, 2}, 6: {102, 7}},
		"dropped location":  {5: {1, 101, 201, 2}},
		"swapped across ps": {5: {1, 201, 101, 2}, 6: {102}},
	} {
		if err := CheckCertificate(h, cert, nil, nil); err == nil {
			t.Errorf("%s: certificate %v accepted", name, cert)
		}
	}
}

// TestFoldReadsDecombinesLastFirst: a message stands for itself, then for
// what each message combined into it stands for, in the order they were
// combined — the reverse of the order its reply split them off.
func TestFoldReadsDecombinesLastFirst(t *testing.T) {
	f := NewFold()
	for _, e := range []engine.Event{
		{Kind: engine.Combined, ID: 1, ID2: 2, Addr: 4},
		{Kind: engine.Combined, ID: 3, ID2: 5, Addr: 4},
		{Kind: engine.Combined, ID: 1, ID2: 3, Addr: 4},
		{Kind: engine.Served, ID: 1, Addr: 4},
		{Kind: engine.Served, ID: 6, Addr: 7},
		{Kind: engine.Decombined, ID: 1, ID2: 3},
		{Kind: engine.Decombined, ID: 3, ID2: 5},
		{Kind: engine.Decombined, ID: 1, ID2: 2},
		{Kind: engine.Served, ID: 8, Addr: 4},
	} {
		f.Record(e)
	}
	if got, want := f.Certificate(), (Certificate{4: {1, 2, 3, 5, 8}, 7: {6}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("certificate %v, want %v", got, want)
	}
}

// TestCheckNamesTheFailureClass: a wrong certificate over a serializable
// history fails as "certificate wrong, M2 holds"; a history the search
// refutes fails as "per-location serializability violated", certificate or
// none.
func TestCheckNamesTheFailureClass(t *testing.T) {
	h := history(
		timedOp(0, 1, 5, rmw.FetchAdd(1), 1, 0, 0),
		timedOp(1, 1, 5, rmw.FetchAdd(1), 0, 0, 0))
	if err := Check(h, Certificate{5: {101, 1}}, nil, nil); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	if err := Check(h, nil, nil, nil); err != nil {
		t.Fatalf("search rejected a serializable history: %v", err)
	}
	if err := Check(h, Certificate{5: {1, 101}}, nil, nil); err == nil ||
		!strings.HasPrefix(err.Error(), "certificate wrong, M2 holds: ") {
		t.Fatalf("wrong certificate: got %v", err)
	}
	bad := history(
		timedOp(0, 1, 5, rmw.FetchAdd(1), 0, 0, 0),
		timedOp(1, 1, 5, rmw.FetchAdd(1), 0, 0, 0)) // a lost update
	for _, cert := range []Certificate{nil, {5: {1, 101}}} {
		if err := Check(bad, cert, nil, nil); err == nil ||
			!strings.HasPrefix(err.Error(), "per-location serializability violated: ") {
			t.Fatalf("certificate %v: got %v", cert, err)
		}
	}
}
