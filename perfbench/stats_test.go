package main

import (
	"math"
	"testing"
	"time"

	"leashedsgd/internal/metrics"
)

func TestFirstCrossing(t *testing.T) {
	pts := []metrics.TracePoint{
		{Elapsed: 0, Updates: 0, Loss: 2.3},
		{Elapsed: 25 * time.Millisecond, Updates: 40, Loss: 0.9},
		{Elapsed: 50 * time.Millisecond, Updates: 85, Loss: 0.1}, // exactly at target: counts
		{Elapsed: 75 * time.Millisecond, Updates: 130, Loss: 0.05},
	}
	c, ok := firstCrossing(pts, 0.1)
	if !ok || c.Elapsed != 50*time.Millisecond || c.Updates != 85 {
		t.Fatalf("crossing = %+v, %v; want 50ms at 85 updates", c, ok)
	}
	// A loss that dips below the target and comes back still crosses at
	// the first dip.
	pts[1].Loss = 0.01
	if c, _ := firstCrossing(pts, 0.1); c.Updates != 40 {
		t.Fatalf("crossing at %d updates, want the first point below target (40)", c.Updates)
	}
}

func TestFirstCrossingNeverReached(t *testing.T) {
	pts := []metrics.TracePoint{{Loss: 2.3}, {Elapsed: time.Second, Updates: 9, Loss: 0.2}}
	if c, ok := firstCrossing(pts, 0.1); ok {
		t.Fatalf("trace above target reported a crossing %+v", c)
	}
	if _, ok := firstCrossing(nil, 0.1); ok {
		t.Fatal("empty trace reported a crossing")
	}
	// NaN never compares at or below the target.
	if _, ok := firstCrossing([]metrics.TracePoint{{Loss: math.NaN()}}, 0.1); ok {
		t.Fatal("NaN loss reported a crossing")
	}
}

func TestUntimedFrac(t *testing.T) {
	// Two workers over 1s: 2s of worker time, 1.6s of it in Tc+Tu.
	got := untimedFrac(1200*time.Millisecond, 400*time.Millisecond, 2, time.Second)
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("untimedFrac = %v, want 0.2", got)
	}
	if got := untimedFrac(time.Second, 0, 1, time.Second); got != 0 {
		t.Fatalf("fully timed worker: untimedFrac = %v, want 0", got)
	}
	if got := untimedFrac(time.Second, 0, 0, time.Second); !math.IsNaN(got) {
		t.Fatalf("m = 0: untimedFrac = %v, want NaN", got)
	}
	if got := untimedFrac(time.Second, 0, 1, 0); !math.IsNaN(got) {
		t.Fatalf("zero wall: untimedFrac = %v, want NaN", got)
	}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return s
}

func TestPercentileWithCount(t *testing.T) {
	// 1000 samples: the nearest-rank p99 is the 990th value, with exactly
	// 10 samples beyond it — the fewest that still report it.
	v, beyond, ok := percentile(seq(1000), 0.99, 10)
	if v != 990 || beyond != 10 || !ok {
		t.Fatalf("p99 of 1..1000 = %v, %d beyond, ok=%v; want 990, 10, true", v, beyond, ok)
	}
	// 999 samples leave 9 beyond it: not reported.
	if v, beyond, ok := percentile(seq(999), 0.99, 10); ok || beyond != 9 {
		t.Fatalf("p99 of 1..999 = %v, %d beyond, ok=%v; want 9 beyond, not ok", v, beyond, ok)
	}
	if v, beyond, ok := percentile(seq(4), 0.5, 0); v != 2 || beyond != 2 || !ok {
		t.Fatalf("p50 of 1..4 = %v, %d beyond, ok=%v; want 2, 2, true", v, beyond, ok)
	}
	if _, _, ok := percentile(nil, 0.5, 0); ok {
		t.Fatal("percentile of no samples reported ok")
	}
	s := seq(10)
	percentile(s, 0.5, 0)
	if s[0] != 10 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Fatalf("median of nothing = %v, want NaN", m)
	}
}

func TestSetMedian(t *testing.T) {
	// Per-set medians: set 0 → 2 (its outlier run does not move it),
	// set 1 → 10, set 2 → 4. The median over sets is 4, whatever the run
	// counts per set.
	vals := []float64{1, 10, 2, 100, 10, 4}
	set := []int{0, 1, 0, 0, 1, 2}
	if got := setMedian(vals, set); got != 4 {
		t.Fatalf("setMedian = %v, want 4", got)
	}
	if got := setMedian(nil, nil); !math.IsNaN(got) {
		t.Fatalf("setMedian of nothing = %v, want NaN", got)
	}
}

func TestBoxP99(t *testing.T) {
	// 200 samples: 1..197 plus three far outliers. The nearest-rank p99 is
	// the 198th value, the smallest outlier, so it is recovered exactly.
	vals := seq(197)
	vals = append(vals, 1000, 2000, 3000)
	if got, exact := boxP99(metrics.NewBoxStats(vals)); got != 1000 || !exact {
		t.Fatalf("boxP99 = %v (exact %v), want exactly 1000", got, exact)
	}
	// No outliers: the bound is the upper fence, capped at the maximum,
	// and is reported as a bound.
	if got, exact := boxP99(metrics.NewBoxStats(seq(200))); got != 200 || exact {
		t.Fatalf("boxP99 without outliers = %v (exact %v), want the bound 200", got, exact)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "run", ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{Name: "Wait", ID: 1, Parent: 0, Start: 10 * ms, End: 60 * ms},
		{Name: "Predict", ID: 2, Parent: 0, Start: 50 * ms, End: 70 * ms},  // overlaps Wait
		{Name: "Predict", ID: 3, Parent: 0, Start: 90 * ms, End: 120 * ms}, // clipped at 100
	}
	sum := summarize(spans)
	if sum[0].Name != "run" || sum[0].Self != 30*ms {
		t.Fatalf("run self = %v, want 30ms (children cover 10–70 and 90–100)", sum[0].Self)
	}
	if sum[2].Name != "Predict" || sum[2].Count != 2 || sum[2].Total != 50*ms {
		t.Fatalf("Predict summary = %+v, want 2 spans, 50ms", sum[2])
	}
}
