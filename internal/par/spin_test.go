package par

import (
	"runtime"
	"testing"
	"time"
)

// TestWaitPingPong is the lost-wakeup stress: two goroutines hand a token
// back and forth through two Wait words, each the single owner of one.  A
// spin budget of 0 parks on every wait, SpinLimit races the parked-bit CAS
// against the Set swap in every interleaving the scheduler can produce; one
// lost wakeup leaves both sides blocked forever.
func TestWaitPingPong(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const rounds = 100_000
	for _, procs := range []int{1, 2} {
		for _, spin := range []int32{0, SpinLimit} {
			runtime.GOMAXPROCS(procs)
			var ping, pong Wait
			done := make(chan struct{}, 2)
			go func() {
				for i := uint32(1); i <= rounds; i++ {
					ping.Await(i, spin)
					pong.Set(i)
				}
				done <- struct{}{}
			}()
			go func() {
				for i := uint32(1); i <= rounds; i++ {
					ping.Set(i)
					pong.Await(i, spin)
				}
				done <- struct{}{}
			}()
			for i := 0; i < 2; i++ {
				select {
				case <-done:
				case <-time.After(2 * time.Minute):
					t.Fatalf("GOMAXPROCS %d, spin %d: ping-pong stuck — a wakeup was lost", procs, spin)
				}
			}
		}
	}
}

// TestWaitParksOnOneChannel pins the allocation contract: the owner makes
// its channel the first time it parks and reuses it on every later park.
func TestWaitParksOnOneChannel(t *testing.T) {
	const warm, runs = 100, 200
	var w, back Wait
	go func() {
		for i := uint32(1); i <= warm+runs+1; i++ { // AllocsPerRun adds a warm-up run
			w.Await(i, 0)
			back.Set(i)
		}
	}()
	i := uint32(0)
	cycle := func() {
		i++
		time.Sleep(50 * time.Microsecond) // let the owner reach its park
		w.Set(i)
		back.Await(i, 0) // orders the reads of w.ch below after the owner's write
	}
	for i < warm {
		cycle()
	}
	ch := w.ch
	if ch == nil {
		t.Fatalf("owner never parked in %d waits of 50µs with spin budget 0", warm)
	}
	if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
		t.Fatalf("a park/wake cycle allocates %.2f objects, want 0", avg)
	}
	if w.ch != ch {
		t.Fatal("the owner replaced its channel")
	}
}
