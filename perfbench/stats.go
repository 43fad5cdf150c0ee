package main

import (
	"math"
	"sort"
	"time"

	"leashedsgd/internal/metrics"
	"leashedsgd/internal/sgd"
)

// crossing is the first monitor trace point at or below an absolute target
// loss: the paper's time-to-ε (Elapsed) and statistical efficiency (Updates).
type crossing struct {
	Elapsed time.Duration
	Updates int64
}

// firstCrossing scans the loss trace for the first point at or below target.
// A trace that never reaches the target reports ok == false, and the run
// counts as failed.
func firstCrossing(points []metrics.TracePoint, target float64) (c crossing, ok bool) {
	for _, p := range points {
		if p.Loss <= target {
			return crossing{Elapsed: p.Elapsed, Updates: p.Updates}, true
		}
	}
	return crossing{}, false
}

// untimedFrac is the share of the workers' wall time that neither the
// gradient computation (ΣTc) nor the publish protocol (ΣTu) covers: the
// parameter read, batch sampling, and CPU lost to the monitor and the
// scheduler. m workers over wall give m·wall of worker time.
func untimedFrac(sumTc, sumTu time.Duration, m int, wall time.Duration) float64 {
	if m <= 0 || wall <= 0 {
		return math.NaN()
	}
	return 1 - float64(sumTc+sumTu)/(float64(m)*float64(wall))
}

// percentile returns the nearest-rank q-quantile of samples and how many
// samples lie strictly beyond its rank. ok is false when fewer than minBeyond
// samples lie beyond it — too few to pin a tail down — in which case the
// percentile is not reported.
func percentile(samples []float64, q float64, minBeyond int) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond = n - 1 - rank
	return s[rank], beyond, beyond >= minBeyond
}

// median of vals (the mean of the two middle values for an even count).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setMedian is the median over input sets of each set's median, where set[i]
// is the input set vals[i] was measured on.
func setMedian(vals []float64, set []int) float64 {
	by := map[int][]float64{}
	for i, v := range vals {
		by[set[i]] = append(by[set[i]], v)
	}
	meds := make([]float64, 0, len(by))
	for _, vs := range by {
		meds = append(meds, median(vs))
	}
	return median(meds)
}

// phaseStats is what a run's per-iteration instrumentation says: the Tc
// (gradient) and Tu (publish) distributions and the mean read staleness.
type phaseStats struct {
	Samples                    int
	SumTc, SumTu               time.Duration
	TcP50, TcP99, TuP50, TuP99 time.Duration
	TcP99Exact, TuP99Exact     bool // false: the p99 is the upper-fence bound
	StalenessMean              float64
}

// phases reads Result.Tc, Result.Tu and Result.Staleness. It is the only
// place the benchmark touches those three fields, so a change to their types
// is absorbed here. Tc and Tu hold samples only when Config.SampleTiming was
// on.
func phases(res *sgd.Result) phaseStats {
	ps := phaseStats{Samples: res.Tc.Count()}
	if res.Staleness != nil {
		ps.StalenessMean = res.Staleness.Mean()
	}
	if ps.Samples == 0 {
		return ps
	}
	ps.SumTc = res.Tc.Mean() * time.Duration(res.Tc.Count())
	ps.SumTu = res.Tu.Mean() * time.Duration(res.Tu.Count())
	tc, tu := res.Tc.Stats(), res.Tu.Stats()
	ps.TcP50, ps.TuP50 = msDuration(tc.Med), msDuration(tu.Med)
	tc99, tcExact := boxP99(tc)
	tu99, tuExact := boxP99(tu)
	ps.TcP99, ps.TuP99 = msDuration(tc99), msDuration(tu99)
	ps.TcP99Exact, ps.TuP99Exact = tcExact, tuExact
	return ps
}

// boxP99 recovers the nearest-rank 99th percentile from box statistics, the
// only quantiles DurationSampler exposes. Its outliers are every sample beyond
// the 1.5·IQR fences, in ascending order; when the high outliers hold the top
// 1% of the samples, the percentile is exactly one of them and exact is true.
// Otherwise it lies at or below the upper fence, which is returned as a bound
// with exact false: that value moves with the IQR, not with the tail.
func boxP99(b metrics.BoxStats) (v float64, exact bool) {
	fence := b.Q3 + 1.5*(b.Q3-b.Q1)
	var high []float64
	for _, v := range b.Outliers {
		if v > fence {
			high = append(high, v)
		}
	}
	rank := int(math.Ceil(0.99*float64(b.N))) - 1
	if i := rank - (b.N - len(high)); i >= 0 {
		return high[i], true
	}
	return math.Min(fence, b.Max), false
}

// p99Kind names how boxP99 obtained a value.
func p99Kind(exact bool) string {
	if exact {
		return "exact"
	}
	return "fence"
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
