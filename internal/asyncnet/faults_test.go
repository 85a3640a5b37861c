package asyncnet

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

// TestFaultSoakExactlyOnce runs the goroutine engine under a fault plan
// dropping ~1% of request and reply hops: every port hammers one shared
// counter and one private counter, and the run must still be exactly-once —
// the hot-spot replies a permutation of the serial prefix sums, the private
// replies in strict program order, no reply delivered twice.  Under -race
// this also exercises the injector and recovery counters from every switch
// goroutine at once.
func TestFaultSoakExactlyOnce(t *testing.T) {
	const (
		procs = 8
		reqs  = 96 // per port, per location
		hot   = word.Addr(7)
	)
	plan := &faults.Plan{Seed: 99, DropFwd: 0.01, DropRev: 0.01}
	net := New(Config{Procs: procs, Combining: true, Window: 8, Faults: plan})
	defer net.Close()

	hotVals := make([][]int64, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			port := net.Port(p)
			private := word.Addr(100 + p)
			vals := make([]int64, 0, reqs)
			for i := 0; i < reqs; i++ {
				h1 := port.RMWAsync(hot, rmw.FetchAdd(1))
				h2 := port.RMWAsync(private, rmw.FetchAdd(1))
				vals = append(vals, h1.Wait().Val)
				// Per-location program order must survive drops and
				// retransmits: the private counter sees this port alone.
				if got := h2.Wait().Val; got != int64(i) {
					t.Errorf("port %d private reply %d = %d, want %d", p, i, got, i)
					return
				}
			}
			hotVals[p] = vals
		}(p)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	total := procs * reqs
	ops := make([]rmw.Mapping, total)
	for i := range ops {
		ops[i] = rmw.FetchAdd(1)
	}
	serial, final := core.SerialReplies(word.W(0), ops)
	if mem := net.Memory().Peek(hot); mem != final {
		t.Fatalf("hot cell = %d, serial ground truth %d", mem.Val, final.Val)
	}
	var all []int64
	for _, vals := range hotVals {
		all = append(all, vals...)
	}
	if len(all) != total {
		t.Fatalf("collected %d hot replies, want %d", len(all), total)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, v := range all {
		if v != serial[i].Val {
			t.Fatalf("sorted hot reply %d = %d, want serial %d (duplicate or lost RMW)", i, v, serial[i].Val)
		}
	}

	snap := net.Snapshot()
	if snap.Counters["faults_injected"] == 0 {
		t.Fatal("plan injected no faults; the soak proved nothing")
	}
	if snap.Counters["retries"] == 0 {
		t.Fatal("drops fired but no retransmissions were recorded")
	}
	if d := snap.Counters["drops_fwd"] + snap.Counters["drops_rev"]; d == 0 {
		t.Fatal("faults_injected nonzero but no drops counted")
	}
	if _, ok := snap.Histograms["recovery_latency_ns"]; !ok {
		t.Fatal("snapshot missing recovery_latency_ns histogram")
	}
	// Every recovered request was retransmitted at least once and recorded
	// one recovery latency.
	recovered, retries := snap.Counters["recovered"], snap.Counters["retries"]
	if recovered == 0 {
		t.Fatal("drops fired but no request completed on a retransmit")
	}
	if retries < recovered {
		t.Fatalf("%d retries but %d recovered requests", retries, recovered)
	}
	if n := snap.Histograms["recovery_latency_ns"].Count; n != recovered {
		t.Fatalf("recovery_latency_ns holds %d samples, want one per recovered request (%d)", n, recovered)
	}
}

// TestWaitErrAbandonedHandle checks the recoverable error path: WaitErr on
// a handle abandoned by Fence returns ErrAbandonedHandle, while the legacy
// Wait keeps its panic.
func TestWaitErrAbandonedHandle(t *testing.T) {
	net := New(Config{Procs: 2})
	defer net.Close()
	port := net.Port(0)

	h := port.RMWAsync(word.Addr(3), rmw.FetchAdd(1))
	port.Fence()

	if _, err := h.WaitErr(); !errors.Is(err, ErrAbandonedHandle) {
		t.Fatalf("WaitErr on abandoned handle = %v, want ErrAbandonedHandle", err)
	}

	defer func() {
		r := recover()
		if r != "asyncnet: Wait on a handle abandoned by Fence" {
			t.Fatalf("Wait panic = %v, want the legacy abandoned-handle panic", r)
		}
	}()
	h.Wait()
	t.Fatal("Wait returned on an abandoned handle")
}

// TestWaitErrDeliversValue checks WaitErr on a live handle behaves exactly
// like Wait, including out-of-order buffering.
func TestWaitErrDeliversValue(t *testing.T) {
	net := New(Config{Procs: 2})
	defer net.Close()
	port := net.Port(0)

	h1 := port.RMWAsync(word.Addr(5), rmw.FetchAdd(10))
	h2 := port.RMWAsync(word.Addr(6), rmw.FetchAdd(20))
	v2, err := h2.WaitErr()
	if err != nil || v2.Val != 0 {
		t.Fatalf("WaitErr(h2) = %d, %v; want 0, nil", v2.Val, err)
	}
	v1, err := h1.WaitErr()
	if err != nil || v1.Val != 0 {
		t.Fatalf("WaitErr(h1) = %d, %v; want 0, nil", v1.Val, err)
	}
	if got := net.Memory().Peek(word.Addr(5)); got.Val != 10 {
		t.Fatalf("cell 5 = %d, want 10", got.Val)
	}
}
