// Package stats is the shared engine instrumentation subsystem: lock-free
// power-of-two latency histograms with percentile extraction, and the one
// JSON-serializable Snapshot every engine reports through.  Event counters
// are plain sync/atomic integers in the packages that count.
//
// The combining mechanism is transparent (Theorem 4.2) only if observing it
// never perturbs it: recording is a few atomic operations with no
// allocation and no lock, so the workers of a parallel stepper record
// without serializing the hot path they measure.  Snapshots copy the live
// values and are plain data thereafter.
package stats

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"sync/atomic"
)

// NumBuckets sizes the power-of-two histograms: bucket i counts values in
// [2^i, 2^(i+1)), bucket 0 holds 0–1, and the last bucket absorbs the tail.
// 48 buckets span nanosecond round trips up to ~39 hours, and any plausible
// cycle count.
const NumBuckets = 48

// Histogram is a lock-free power-of-two histogram.  The zero value is ready
// to use.  A Histogram must not be copied after first use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// bucketOf maps a value to its power-of-two bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Record adds one observation: three uncontended atomic adds plus a
// CAS on the running max, no allocation.  That max bounds the percentile
// estimator, which would otherwise interpolate past the largest value ever
// seen (all the way to the 2^NumBuckets sentinel for the clamped last
// bucket).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for m := h.max.Load(); v > m; m = h.max.Load() {
		if h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot copies the live histogram into plain data.  Concurrent Record
// calls may land between the bucket reads; the snapshot is then a slightly
// stale but internally consistent-enough view (each field is individually
// exact at some instant).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	last := -1
	var buckets [NumBuckets]int64
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		if buckets[i] != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), buckets[:last+1]...)
	}
	s.Mean = s.mean()
	s.P50 = s.Percentile(0.50)
	s.P90 = s.Percentile(0.90)
	s.P99 = s.Percentile(0.99)
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram, serializable to
// JSON.  Buckets is trimmed after the last non-zero bucket.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max,omitempty"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

func (s HistogramSnapshot) mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Percentile returns the approximate q-quantile (0 < q ≤ 1), interpolating
// within the power-of-two bucket.  Interpolation is clamped to the largest
// value actually recorded, so an estimate never exceeds the true maximum —
// without the clamp, the bucket holding the max would interpolate toward
// its nominal upper edge (for the last bucket, which absorbs everything ≥
// 2^(NumBuckets−1), that edge is the open-ended 2^NumBuckets sentinel,
// over-reporting by orders of magnitude).
func (s HistogramSnapshot) Percentile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		next := cum + float64(c)
		if next >= target && c > 0 {
			lo := float64(int64(1) << i)
			if i == 0 {
				lo = 0
			}
			hi := float64(int64(1) << (i + 1))
			if i == len(s.Buckets)-1 {
				// The trimmed final bucket is the one holding the maximum,
				// so its true upper edge is the max itself — below the
				// nominal power-of-two for an ordinary bucket, above it for
				// the open-ended last bucket that absorbs the whole tail.
				hi = float64(s.Max)
			}
			if hi < lo {
				// A racy snapshot can leave the max lagging the bucket
				// counts; keep the estimate inside the bucket.
				hi = lo
			}
			frac := (target - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return float64(s.Max)
}

// Snapshot is a point-in-time view of one engine's instrumentation — the
// one cross-engine observation API.  Every engine (network, busnet,
// hypercube) produces one; JSON gives the stable wire form whose
// hash the bench baseline (BENCH_combining.json) records as each point's
// digest.
type Snapshot struct {
	// Engine names the producing engine ("network", "hypercube", ...).
	Engine string `json:"engine"`
	// Counters are monotone event totals (combines, completions, ...).
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges are level measurements (queue high-water marks, ...).
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms are latency/size distributions keyed by metric name.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a named counter total, 0 when absent.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// JSON renders the snapshot with stable key order (Go serializes map keys
// sorted), indented for human diffing.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Snapshot contains only maps of plain data; this cannot fail.
		panic(err)
	}
	return b
}

// Render writes every field of the struct v into counters, under the key its
// `counter:"key"` tag names (a nil map takes nothing), and returns those
// keys sorted.  Every field must be an int64 with a tag: a counter block
// declares its snapshot schema once, in its tags.
func Render(v any, counters map[string]int64) []string {
	rv := reflect.ValueOf(v)
	keys := make([]string, rv.NumField())
	for i := range keys {
		f := rv.Type().Field(i)
		keys[i] = f.Tag.Get("counter")
		if keys[i] == "" || f.Type.Kind() != reflect.Int64 {
			panic(fmt.Sprintf("stats: %s.%s is not a tagged int64 counter", rv.Type(), f.Name))
		}
		if counters != nil {
			counters[keys[i]] = rv.Field(i).Int()
		}
	}
	sort.Strings(keys)
	return keys
}
