package combining_test

// Differential testing across every engine in the repository: the same
// workload — each of N processors applies fetch-and-add(2^p) K times to
// one hot cell — runs on the M1 machine (the one-bank bus), the
// cycle-accurate Omega network (combining, partial, none, reversal), the
// hypercube, and the bus FIFO.  Every engine must produce the same final
// value and a reply multiset that witnesses some serialization; Theorem 4.2
// says combining changes neither.

import (
	"sort"
	"testing"

	combining "combining"
)

const (
	diffProcs = 8
	diffPer   = 4
	diffAddr  = combining.Addr(5)
)

// checkSerialization verifies the replies to unit fetch-and-adds are the
// exact set {0, …, total−1}.
func checkSerialization(t *testing.T, engine string, replies []int64, final int64) {
	t.Helper()
	total := diffProcs * diffPer
	if final != int64(total) {
		t.Fatalf("%s: final %d, want %d", engine, final, total)
	}
	if len(replies) != total {
		t.Fatalf("%s: %d replies, want %d", engine, len(replies), total)
	}
	sorted := append([]int64{}, replies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, v := range sorted {
		if v != int64(i) {
			t.Fatalf("%s: replies are not a serialization (position %d holds %d)", engine, i, v)
		}
	}
}

func diffPrograms() [][]combining.Instr {
	progs := make([][]combining.Instr, diffProcs)
	for p := 0; p < diffProcs; p++ {
		for i := 0; i < diffPer; i++ {
			progs[p] = append(progs[p], combining.RMW(diffAddr, combining.FetchAdd(1)))
		}
	}
	return progs
}

func repliesOf(m *combining.Machine) []int64 {
	var out []int64
	for p := 0; p < diffProcs; p++ {
		for i := 0; i < diffPer; i++ {
			out = append(out, m.Proc(p).Reply(i).Val)
		}
	}
	return out
}

func TestDifferentialEngines(t *testing.T) {
	// M1 central FIFO: the bus machine with one bank and combining off.  A
	// combine would hand the bank one request for two, so a bank that served
	// every request saw none.
	t.Run("m1", func(t *testing.T) {
		m := combining.NewMachine(diffPrograms(), combining.M1)
		if !m.Run(10000) {
			t.Fatal("did not complete")
		}
		checkSerialization(t, "m1", repliesOf(m), m.Memory().Peek(diffAddr).Val)
		if n := m.Memory().Modules(); n != 1 {
			t.Errorf("m1: %d memory modules, want 1", n)
		}
		if served := m.Memory().TotalServed(); served != diffProcs*diffPer {
			t.Errorf("m1: bank served %d requests for %d issued; combining is on", served, diffProcs*diffPer)
		}
	})

	// Omega network machine across combining configurations.
	for _, cfg := range []struct {
		name string
		net  combining.WiringConfig
	}{
		{"omega-none", combining.WiringConfig{Procs: diffProcs, WaitBufCap: 0}},
		{"omega-partial", combining.WiringConfig{Procs: diffProcs, WaitBufCap: 1}},
		{"omega-full", combining.WiringConfig{Procs: diffProcs, WaitBufCap: combining.Unbounded}},
		{"omega-reversal", combining.WiringConfig{Procs: diffProcs, WaitBufCap: combining.Unbounded, AllowReversal: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			fold := combining.NewCertificateFold()
			cfg.net.Trace = fold.Record
			m := combining.NewMachine(diffPrograms(), wired(t, "omega", cfg.net))
			if !m.Run(100000) {
				t.Fatal("did not complete")
			}
			checkSerialization(t, cfg.name, repliesOf(m),
				m.Memory().Peek(diffAddr).Val)
			if err := combining.CheckCertificate(m.History(), fold.Certificate(), nil, nil); err != nil {
				t.Errorf("%s: %v", cfg.name, err)
			}
		})
	}

	// Hypercube and bus (script injectors).
	t.Run("hypercube", func(t *testing.T) {
		inj, collect := scriptFleet()
		sim := wired(t, "hypercube", combining.WiringConfig{Procs: diffProcs, WaitBufCap: combining.Unbounded})(inj)
		if !sim.Drain(10000) {
			t.Fatal("did not drain")
		}
		checkSerialization(t, "hypercube", collect(), sim.Memory().Peek(diffAddr).Val)
	})
	t.Run("bus", func(t *testing.T) {
		inj, collect := scriptFleet()
		sim := wired(t, "bus", combining.WiringConfig{Procs: diffProcs, Banks: 4, WaitBufCap: combining.Unbounded})(inj)
		if !sim.Drain(10000) {
			t.Fatal("did not drain")
		}
		checkSerialization(t, "bus", collect(), sim.Memory().Peek(diffAddr).Val)
	})
}

// scriptFleet builds per-processor scripted injectors for the engines that
// take raw injectors, and a collector for their replies.
func scriptFleet() ([]combining.Injector, func() []int64) {
	inj := make([]combining.Injector, diffProcs)
	scripts := make([]*diffScript, diffProcs)
	id := 1
	for p := 0; p < diffProcs; p++ {
		scripts[p] = &diffScript{}
		for i := 0; i < diffPer; i++ {
			scripts[p].script = append(scripts[p].script, combining.Injection{
				Req: combining.NewRequest(combining.ReqID(id), diffAddr,
					combining.FetchAdd(1), combining.ProcID(p)),
			})
			id++
		}
		inj[p] = scripts[p]
	}
	return inj, func() []int64 {
		var out []int64
		for _, s := range scripts {
			for _, r := range s.replies {
				out = append(out, r.Val.Val)
			}
		}
		return out
	}
}

type diffScript struct {
	script  []combining.Injection
	next    int
	replies []combining.Reply
}

func (s *diffScript) Next(int64) (combining.Injection, bool) {
	if s.next >= len(s.script) {
		return combining.Injection{}, false
	}
	inj := s.script[s.next]
	s.next++
	return inj, true
}

func (s *diffScript) Deliver(rep combining.Reply, _ int64) {
	s.replies = append(s.replies, rep)
}
