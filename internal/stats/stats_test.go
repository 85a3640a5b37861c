package stats

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestHighWater(t *testing.T) {
	var h HighWater
	for _, v := range []int64{3, 7, 5, 7, 2} {
		h.Observe(v)
	}
	if got := h.Load(); got != 7 {
		t.Fatalf("high water = %d, want 7", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3},
		{1 << 20, 20}, {1<<20 + 5, 20}, {1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 1000; i++ {
		h.Record(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count %d, want 1000", s.Count)
	}
	if s.Sum != 999*1000/2 {
		t.Fatalf("sum %d", s.Sum)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("buckets hold %d of %d observations", total, s.Count)
	}
	if s.P50 <= 0 || s.P99 < s.P50 || s.P90 < s.P50 || s.P99 > 2048 {
		t.Fatalf("percentiles inconsistent: p50 %.1f p90 %.1f p99 %.1f", s.P50, s.P90, s.P99)
	}
	if s.Mean < s.Percentile(0.05) || s.Mean > s.Percentile(0.999) {
		t.Fatalf("mean %.1f outside plausible range", s.Mean)
	}
}

// TestPercentileNeverExceedsMax: the estimator used to interpolate toward
// the bucket's nominal upper edge, over-reporting whenever the true maximum
// sat below it — catastrophically so for the clamped last bucket, whose
// edge is the open-ended 2^NumBuckets sentinel.
func TestPercentileNeverExceedsMax(t *testing.T) {
	// All mass at one mid-range value: every percentile must stay ≤ 3.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(3)
	}
	s := h.Snapshot()
	if s.Max != 3 {
		t.Fatalf("max = %d, want 3", s.Max)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if p := s.Percentile(q); p > 3 {
			t.Errorf("P%v = %.2f exceeds the true maximum 3", q*100, p)
		}
	}

	// Values clamped into the last bucket: without the max clamp the
	// estimator interpolates toward 2^NumBuckets ≈ 2.8e14 regardless of
	// where in the open-ended bucket the mass actually sits.
	var tail Histogram
	const big = int64(1) << (NumBuckets + 2) // ≥ 2^(NumBuckets−1): clamped bucket
	for i := 0; i < 100; i++ {
		tail.Record(big)
	}
	ts := tail.Snapshot()
	if ts.Max != big {
		t.Fatalf("max = %d, want %d", ts.Max, big)
	}
	for _, q := range []float64{0.5, 0.99, 1.0} {
		if p := ts.Percentile(q); p > float64(big) {
			t.Errorf("clamped bucket: P%v = %g exceeds the true maximum %d", q*100, p, big)
		}
	}
	// The old past-the-end fallback returned 2^len(Buckets); it must now
	// report the recorded maximum.
	if p := ts.Percentile(1.0); p != float64(big) {
		t.Errorf("P100 = %g, want the true maximum %d", p, big)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 0 || s.Buckets[0] != 1 {
		t.Fatalf("negative observation not clamped: %+v", s)
	}
}

func TestSnapshotJSON(t *testing.T) {
	var h Histogram
	h.Record(100)
	s := Snapshot{
		Engine:     "test",
		Counters:   map[string]int64{"combines": 7},
		Gauges:     map[string]int64{"queue_max": 3},
		Histograms: map[string]HistogramSnapshot{"latency": h.Snapshot()},
	}
	var back Snapshot
	if err := json.Unmarshal(s.JSON(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Engine != "test" || back.Counter("combines") != 7 ||
		back.Gauges["queue_max"] != 3 || back.Histograms["latency"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestConcurrentRecording hammers every primitive from many goroutines; with
// -race this doubles as the data-race proof for the lock-free claims.
func TestConcurrentRecording(t *testing.T) {
	const workers, per = 8, 10000
	var c Counter
	var hw HighWater
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				hw.Observe(int64(w*per + i))
				h.Record(int64(i))
				if i%1000 == 0 {
					_ = h.Snapshot() // snapshots race harmlessly with recording
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
	if got := hw.Load(); got != workers*per-1 {
		t.Fatalf("high water %d, want %d", got, workers*per-1)
	}
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("histogram count %d, want %d", s.Count, workers*per)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("buckets hold %d of %d observations", total, s.Count)
	}
}

// TestRender: a tagged block lands in the map under its tags, the keys come
// back sorted whether or not a map is given, and an untagged field panics.
func TestRender(t *testing.T) {
	type block struct {
		Zeta  int64 `counter:"zeta"`
		Alpha int64 `counter:"alpha"`
	}
	m := map[string]int64{"other": 7}
	keys := Render(block{Zeta: 2, Alpha: 1}, m)
	if !reflect.DeepEqual(keys, []string{"alpha", "zeta"}) || !reflect.DeepEqual(Render(block{}, nil), keys) {
		t.Fatalf("keys %v, want [alpha zeta] with or without a map", keys)
	}
	if want := map[string]int64{"other": 7, "alpha": 1, "zeta": 2}; !reflect.DeepEqual(m, want) {
		t.Fatalf("rendered %v, want %v", m, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an untagged field rendered")
		}
	}()
	Render(struct{ N int64 }{}, nil)
}
