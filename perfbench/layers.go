package main

import (
	"fmt"
	"time"

	"leashedsgd"
	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/sgd"
	"leashedsgd/internal/tensor"
)

// layerMetric describes one per-layer metric: which end-to-end metric it
// should move, and on which workload.
type layerMetric struct {
	name, unit, moves, on string
}

var layerMetrics = []layerMetric{
	{"tensor.gemm_gflops", "GFLOP/s", "nn.batch_grad_us -> updates_per_s, time_to_eps_s", "mlp-dense (no change on logreg-sparse)"},
	{"nn.batch_grad_us", "us", "sgd.tc_p50_us -> updates_per_s", "mlp-dense"},
	{"nn.loss_eval_ms", "ms", "updates_per_s; predict_p99_us", "mlp-dense, serve-live (no change on logreg-sparse)"},
	{"nn.forward_b1_us", "us", "predict_p50_us, predict_qps", "serve-live"},
	{"nn.forward_b32_us", "us", "predict_p50_us, predict_qps", "serve-live"},
	{"data.sample_ns", "ns", "sgd.untimed_frac -> updates_per_s", "mlp-dense"},
	{"sgd.tc_p50_us", "us", "updates_per_s", "mlp-dense, serve-live"},
	{"sgd.tc_p99_us", "us", "updates_per_s", "mlp-dense, serve-live"},
	{"sgd.tu_p50_us", "us", "updates_per_s", "logreg-sparse (main cost), mlp-dense"},
	{"sgd.tu_p99_us", "us", "updates_per_s", "logreg-sparse (main cost), mlp-dense"},
	{"sgd.untimed_frac", "frac", "updates_per_s", "all"},
	{"sgd.staleness_mean", "updates", "updates_to_eps", "mlp-dense, logreg-sparse"},
	{"sgd.alloc_bytes_per_update", "B/update", "updates_per_s", "all"},
	{"sgd.speedup_vs_seq", "x", "updates_per_s", "mlp-dense, logreg-sparse"},
	{"paramvec.failed_cas_per_publish", "count", "sgd.tu_* -> updates_per_s", "logreg-sparse, mlp-dense"},
	{"paramvec.dropped_per_update", "frac", "updates_to_eps", "mlp-dense, logreg-sparse"},
	{"paramvec.mixed_read_frac", "frac", "updates_to_eps", "logreg-sparse (0 by construction at S = 1)"},
	{"paramvec.publish_occupancy", "frac", "sgd.tu_p50_us", "logreg-sparse"},
	{"paramvec.peak_live_vectors", "count", "memory (guard: checked against Lemma 2)", "all"},
	{"paramvec.buffer_reuse_frac", "frac", "sgd.alloc_bytes_per_update", "all"},
	{"serve.mean_batch", "count", "predict_qps", "serve-live"},
	{"serve.server_p50_us", "us", "predict_p50_us", "serve-live"},
	{"serve.consistent_frac", "frac", "none; guards a speed-up that trades away read consistency", "serve-live"},
	{"serve.rejected", "count", "failed_frac", "serve-live"},
	{"bench.trace_overhead_frac", "frac", "n/a", "all"},
}

// Shares of the traced invocation's time: untraced runs, traced runs and
// the SEQ baseline; the isolated layer timings take the rest.
const (
	untracedShare = 0.35
	tracedShare   = 0.35
	seqShare      = 0.15
	isolatedShare = 0.15
)

// traced is the per-layer run. It measures updates/s untraced, then again
// with Config.SampleTiming on and spans recorded, then a SEQ run on the
// same inputs and budget, and finally times isolated tensor, nn and data
// calls. A workload that does not serve reports no serve.* metrics.
func (b *bench) traced(d time.Duration, tr *tracer, t *tally) map[string]metric {
	sp := b.sp
	share := func(f float64) time.Duration { return time.Duration(f * float64(d)) }
	t.add(b.run(b.sets[0], sgd.Leashed, sp.workers, sp.budget/warmupDivisor, false, nil))

	var untraced []float64
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < share(untracedShare); i++ {
		r := b.run(b.sets[i%len(b.sets)], sgd.Leashed, sp.workers, sp.budget, false, nil)
		t.add(r)
		if r.res != nil {
			untraced = append(untraced, r.updatesPerSec())
			fmt.Printf("untraced run %d: updates_per_s=%.1f paramvec.failed_cas_per_publish=%.3f\n",
				i+1, untraced[len(untraced)-1], r.res.FailedPerPublish())
		}
	}

	cols := map[string][]float64{}
	addCol := func(name string, v float64) { cols[name] = append(cols[name], v) }
	var traced []float64
	var rejected float64
	var tcExact, tuExact int
	start = time.Now()
	for i := 0; i < 2 || time.Since(start) < share(tracedShare); i++ {
		r := b.run(b.sets[i%len(b.sets)], sgd.Leashed, sp.workers, sp.budget, true, tr)
		t.add(r)
		if r.res == nil {
			continue
		}
		res := r.res
		ph := phases(res)
		ups := r.updatesPerSec()
		traced = append(traced, ups)
		fmt.Printf("traced run %d: updates_per_s=%.1f sgd.tu_p50_us=%.2f paramvec.failed_cas_per_publish=%.3f tc_p99=%s tu_p99=%s\n",
			i+1, ups, us(ph.TuP50), res.FailedPerPublish(), p99Kind(ph.TcP99Exact), p99Kind(ph.TuP99Exact))
		if ph.TcP99Exact {
			tcExact++
		}
		if ph.TuP99Exact {
			tuExact++
		}
		addCol("sgd.tc_p50_us", us(ph.TcP50))
		addCol("sgd.tc_p99_us", us(ph.TcP99))
		addCol("sgd.tu_p50_us", us(ph.TuP50))
		addCol("sgd.tu_p99_us", us(ph.TuP99))
		addCol("sgd.untimed_frac", untimedFrac(ph.SumTc, ph.SumTu, sp.workers, r.wall))
		addCol("sgd.staleness_mean", ph.StalenessMean)
		addCol("sgd.alloc_bytes_per_update", float64(r.allocBytes)/float64(res.TotalUpdates))
		addCol("paramvec.failed_cas_per_publish", res.FailedPerPublish())
		addCol("paramvec.dropped_per_update", ratio(res.DroppedUpdates, res.TotalUpdates))
		addCol("paramvec.mixed_read_frac", ratio(res.MixedReads, res.ConsistentReads+res.MixedReads))
		chainLen := float64(len(res.FinalParams)) / float64(sp.shards)
		addCol("paramvec.publish_occupancy", float64(res.TouchedComponents)/(float64(res.Publishes)*chainLen))
		addCol("paramvec.peak_live_vectors", float64(res.PeakLiveVectors))
		addCol("paramvec.buffer_reuse_frac", ratio(res.BufferReuses, res.BufferAllocs+res.BufferReuses))
		if sp.serve != noServe {
			addCol("serve.mean_batch", r.srvStats.MeanBatch)
			addCol("serve.server_p50_us", us(r.srvStats.P50))
			addCol("serve.consistent_frac", ratio(int64(r.load.consistent), int64(r.load.answered)))
			rejected += float64(r.srvStats.Shed + r.srvStats.Expired)
		}
	}

	var seq []float64
	start = time.Now()
	for i := 0; i < 1 || time.Since(start) < share(seqShare); i++ {
		r := b.run(b.sets[i%len(b.sets)], sgd.Seq, 1, sp.budget, false, nil)
		t.add(r)
		if r.res != nil {
			seq = append(seq, r.updatesPerSec())
		}
	}

	out := map[string]metric{}
	for name, vals := range cols {
		out[name] = metric{Value: median(vals)}
	}
	if sp.serve != noServe {
		out["serve.rejected"] = metric{Value: rejected}
	}
	out["sgd.speedup_vs_seq"] = metric{Value: median(untraced) / median(seq)}
	out["bench.trace_overhead_frac"] = metric{Value: 1 - median(traced)/median(untraced)}
	for name, v := range b.isolated(share(isolatedShare)) {
		out[name] = metric{Value: v}
	}

	fmt.Printf("untraced updates_per_s=%.1f (median of %d) traced=%.1f (median of %d) seq=%.1f (median of %d)\n",
		median(untraced), len(untraced), median(traced), len(traced), median(seq), len(seq))
	note := map[string]string{
		"sgd.tc_p99_us": fmt.Sprintf(" [exact in %d of %d runs, else the upper 1.5·IQR fence]", tcExact, len(traced)),
		"sgd.tu_p99_us": fmt.Sprintf(" [exact in %d of %d runs, else the upper 1.5·IQR fence]", tuExact, len(traced)),
	}
	for _, lm := range layerMetrics {
		m, ok := out[lm.name]
		if !ok {
			fmt.Printf("layer %-32s n/a (this workload does not serve)\n", lm.name)
			continue
		}
		m.Unit = lm.unit
		out[lm.name] = m
		fmt.Printf("layer %-32s %12.6g %-8s moves %s on %s%s\n", lm.name, m.Value, lm.unit, lm.moves, lm.on, note[lm.name])
	}
	return out
}

// isolated times the tensor, nn and data calls on the paper MLP and the first
// input set, each for about d/6. The dense workloads use their own dataset;
// logreg-sparse, which has no dense inputs, uses default synthetic images.
func (b *bench) isolated(d time.Duration) map[string]float64 {
	each := d / 6
	in := b.sets[0]
	ds := in.dense
	if ds == nil {
		ds = data.GenerateSynthetic(data.DefaultSyntheticConfig(256, in.seed))
	}
	net := nn.NewPaperMLP()
	theta := leashedsgd.PaperMLP().InitParams(in.seed)
	ws := net.NewWorkspace()
	pv := paramvec.FlatView(theta)
	idx := make([]int, 256)
	for i := range idx {
		idx[i] = i % ds.Len()
	}
	out := map[string]float64{}

	// Layer-1 forward shape of the paper MLP: (32×784)·(128×784)ᵀ.
	a := tensor.NewMat(32, 784)
	for r := 0; r < 32; r++ {
		copy(a.Row(r), ds.X[idx[r]])
	}
	w1 := tensor.MatFrom(128, 784, theta[:128*784])
	dst := tensor.NewMat(32, 128)
	gemm := perCall(each, func() { tensor.MatMulABT(dst, a, w1) })
	out["tensor.gemm_gflops"] = 2 * 32 * 784 * 128 / gemm.Seconds() / 1e9

	grad := make([]float64, len(theta))
	batch := data.Batch{Indices: idx[:32]}
	out["nn.batch_grad_us"] = us(perCall(each, func() { net.BatchLossGrad(pv, grad, ds, batch, ws) }))
	out["nn.loss_eval_ms"] = ms(perCall(each, func() { net.Loss(theta, ds, idx, ws) }))
	xs := make([][]float64, 32)
	for i := range xs {
		xs[i] = ds.X[idx[i]]
	}
	out["nn.forward_b1_us"] = us(perCall(each, func() { net.ForwardBatch(pv, xs[:1], ws) }))
	out["nn.forward_b32_us"] = us(perCall(each, func() { net.ForwardBatch(pv, xs, ws) }))

	n := ds.Len()
	if in.sparse != nil {
		n = len(in.sparse.Examples)
	}
	smp := data.NewSampler(n, b.sp.batch, in.seed, 0)
	out["data.sample_ns"] = float64(perCall(each, func() { smp.Next() }))
	return out
}

// perCall times fn in blocks for about d and returns the median per-call
// time over the blocks.
func perCall(d time.Duration, fn func()) time.Duration {
	fn()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= d/40 {
			break
		}
		n *= 2
	}
	var blocks []float64
	start := time.Now()
	for len(blocks) < 5 || time.Since(start) < d {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		blocks = append(blocks, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(blocks))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, and 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
