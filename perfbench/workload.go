package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"leashedsgd"
	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/serve"
	"leashedsgd/internal/sgd"
	"leashedsgd/internal/sparse"
	"leashedsgd/internal/tensor"
)

// spec fixes one workload's training configuration. Every workload trains
// Leashed-SGD with Tp = ∞ to an exact update budget.
type spec struct {
	name    string
	sets    int // input sets (dataset and θ0) per invocation
	samples int // examples per dataset
	workers int // m
	batch   int
	shards  int // S
	eta     float64
	budget  int64   // exact update budget per training run
	epsFrac float64 // ε as a fraction of the θ0 loss
	serve   serving
}

// serving is when a workload's clients send predicts.
type serving int

const (
	noServe    serving = iota // the serve tier has no model for this workload
	serveAfter                // for serveWindow against the finished run
	serveLive                 // while the run trains
)

var specs = []spec{
	// Compute-bound: the batched GEMM gradient dominates each iteration and
	// the single-chain dense publish is a small share. The noisier data
	// moves the 1% crossing from about 0.2 s (8 monitor ticks) to over 1 s.
	{name: "mlp-dense", sets: 4, samples: 4096, workers: 2, batch: 32, shards: 1, eta: 0.05, budget: 5000, epsFrac: 0.01, serve: serveAfter},
	// Publish-bound, the reverse of mlp-dense: ~1.5 µs of compute against
	// a sharded scatter-publish of tens of µs, so paramvec does the work.
	{name: "logreg-sparse", sets: 4, samples: 16384, workers: 2, batch: 1, shards: 64, eta: 0.05, budget: 100000, epsFrac: 0.10},
	// The only workload that reads the parameter store while a writer
	// updates it. The default data crosses 1% of L0 in ~0.4 s (16 ticks);
	// 0.2% takes about 1 s.
	{name: "serve-live", sets: 16, samples: 1024, workers: 1, batch: 32, shards: 1, eta: 0.05, budget: 2500, epsFrac: 0.002, serve: serveLive},
}

const (
	sparseDim = 131072
	sparseNNZ = 64

	// Every serving workload uses serve-live's load: closed-loop clients,
	// each sending its next predict when the previous one returns.
	clients       = 2
	serveWindow   = 500 * time.Millisecond // serveAfter: serving time per run
	probeCount    = 8                      // fixed probe inputs for predicts and the post-training check
	maxTrainTime  = 30 * time.Second
	probeTol      = 1e-9
	warmupDivisor = 4 // the warm-up run trains budget/warmupDivisor updates
)

// inputs is one input set: what a run trains and predicts on.
type inputs struct {
	seed   uint64 // training seed: θ0, sampler streams, evaluation subset
	dense  *data.Dataset
	sparse *sparse.Dataset
	l0     float64     // θ0 loss, computed by the benchmark
	target float64     // absolute target loss: epsFrac · l0
	probes [][]float64 // dense workloads only
}

// makeInputs generates the workload's input sets from the workload seed.
// Runs cycle through the sets and each run metric is the median over the sets
// of the per-set medians, so one dataset's difficulty does not decide the
// result: the ε crossing varies far more between datasets than between runs
// on one dataset.
func makeInputs(sp spec, seed uint64) ([]*inputs, error) {
	var sets []*inputs
	n := uint64(sp.sets)
	for k := uint64(0); k < n; k++ {
		in, err := makeInputSet(sp, seed*n+k)
		if err != nil {
			return nil, err
		}
		sets = append(sets, in)
	}
	return sets, nil
}

// makeInputSet generates one input set and computes its own target loss. It
// does not use Result.InitialLoss: the monitor takes that snapshot after the
// workers have started, so it reads a loss some updates past θ0.
func makeInputSet(sp spec, dataSeed uint64) (*inputs, error) {
	in := &inputs{seed: dataSeed*0x9e3779b97f4a7c15 + 1}
	switch sp.name {
	case "logreg-sparse":
		in.sparse = leashedsgd.SyntheticSparse(sp.samples, sparseDim, sparseNNZ, dataSeed)
		in.l0 = leashedsgd.SparseLoss(make([]float64, sparseDim), in.sparse) // θ0 = 0
		if math.Abs(in.l0-math.Ln2) > 1e-12 {
			return nil, fmt.Errorf("sparse θ0 loss %v, want ln 2", in.l0)
		}
	default:
		cfg := data.DefaultSyntheticConfig(sp.samples, dataSeed)
		if sp.name == "mlp-dense" {
			cfg.Noise, cfg.Shift = 0.5, 5
		}
		in.dense = data.GenerateSynthetic(cfg)
		model := leashedsgd.PaperMLP()
		l0, _, err := model.Evaluate(model.InitParams(in.seed), in.dense)
		if err != nil {
			return nil, err
		}
		in.l0 = l0
		in.probes = in.dense.X[:probeCount]
	}
	in.target = sp.epsFrac * in.l0
	return in, nil
}

// lemma2Bound is the most ParameterVectors a Leashed run may hold live:
// 3 per worker (its read, its candidate and its gradient buffer) plus the
// published vector, as the repository's own Lemma 2 tests count it. A serve
// dispatcher reading the live store holds one more: the vector its lease
// pins after the workers have published past it.
func lemma2Bound(workers int, liveReader bool) int64 {
	n := int64(3*workers + 1)
	if liveReader {
		n++
	}
	return n
}

// runOut is one training run and the predicts served with it.
type runOut struct {
	setup, wall time.Duration
	res         *sgd.Result
	cross       crossing
	load        loadOut
	srvStats    serve.Stats
	allocBytes  uint64
	failures    []string // failed training checks
	probed      int      // post-training probe predicts made
	probeFails  []string // the probe predicts that failed
}

func (r *runOut) updatesPerSec() float64 { return float64(r.res.TotalUpdates) / r.wall.Seconds() }

// bench runs one workload.
type bench struct {
	sp   spec
	sets []*inputs
}

// run trains once with the given algorithm, worker count and budget, serves
// predicts (while training on serve-live, from the finished run on
// mlp-dense) and checks the outputs. Only a Leashed run to the workload's
// budget is checked against the target loss; shortened runs (warm-up) and the
// SEQ baseline are not expected to reach it, and do not serve. timing turns
// on Config.SampleTiming and the allocation count; tr, when non-nil, records
// spans around each call into a layer.
func (b *bench) run(in *inputs, algo sgd.Algorithm, workers int, budget int64, timing bool, tr *tracer) runOut {
	sp := b.sp
	full := algo == sgd.Leashed && budget == sp.budget
	cfg := sgd.Config{
		Algo: algo, Workers: workers, Eta: sp.eta, BatchSize: sp.batch,
		Persistence: sgd.PersistenceInf, Shards: sp.shards,
		Seed: in.seed, MaxUpdates: budget, MaxTime: maxTrainTime,
		SampleTiming: timing,
	}
	var out runOut
	fail := func(format string, a ...any) { out.failures = append(out.failures, fmt.Sprintf(format, a...)) }
	// Start every run from the same heap state: collected, and with the
	// freed memory returned to the OS.
	debug.FreeOSMemory()
	var ms0 runtime.MemStats
	if timing {
		runtime.ReadMemStats(&ms0)
	}
	root := tr.open("run", -1)

	// setup_s runs from the model build; updates_per_s from the Start call.
	t0 := time.Now()
	tStart := t0
	var net *nn.Network
	var live *sgd.Running
	var err error
	if in.sparse != nil {
		s := tr.open("sgd.StartSparse", root)
		live, err = sgd.StartSparse(cfg, in.sparse)
		tr.close(s)
	} else {
		s := tr.open("model.build", root)
		net = nn.NewPaperMLP()
		tr.close(s)
		s = tr.open("sgd.Start", root)
		tStart = time.Now()
		live, err = sgd.Start(cfg, net, in.dense)
		tr.close(s)
	}
	if err != nil {
		fail("start: %v", err)
		tr.close(root)
		return out
	}
	var srv *serve.Server
	if full && sp.serve == serveLive {
		s := tr.open("serve.New", root)
		srv, err = serve.New(net, live, serve.Config{})
		tr.close(s)
		if err != nil {
			live.Stop()
			live.Wait()
			fail("serve.New: %v", err)
			tr.close(root)
			return out
		}
	}
	out.setup = time.Since(t0)
	var loadDone chan loadOut
	if srv != nil {
		loadDone = make(chan loadOut, 1)
		go func() { loadDone <- closedLoop(srv, in.probes, live.Done(), tr, root) }()
	}
	s := tr.open("Wait", root)
	res := live.Wait()
	tr.close(s)
	out.wall = time.Since(tStart)
	out.res = res
	if timing {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}

	// Training checks.
	if res.TotalUpdates != budget {
		fail("applied %d updates, budget %d", res.TotalUpdates, budget)
	}
	if lim := lemma2Bound(workers, srv != nil); res.PeakLiveVectors > lim {
		fail("peak live vectors %d > Lemma 2 bound %d (m = %d)", res.PeakLiveVectors, lim, workers)
	}
	if tensor.HasNaNOrInf(res.FinalParams) {
		fail("final parameters not finite")
	}
	if !full {
		tr.close(root)
		return out
	}
	pts := res.Trace.Points
	if n := len(pts); n == 0 || !(pts[n-1].Loss <= in.target) {
		last := math.NaN()
		if n > 0 {
			last = pts[n-1].Loss
		}
		fail("last trace loss %.4g above target %.4g", last, in.target)
	}
	var ok bool
	if out.cross, ok = firstCrossing(pts, in.target); !ok {
		fail("loss never reached target %.4g", in.target)
	}

	switch sp.serve {
	case noServe:
		tr.close(root)
		return out
	case serveLive:
		out.load = <-loadDone
	case serveAfter:
		// Collect the training run's garbage first, so the serving window
		// does not pay for it.
		runtime.GC()
		s := tr.open("serve.New", root)
		srv, err = serve.New(net, live, serve.Config{})
		tr.close(s)
		if err != nil {
			fail("serve.New: %v", err)
			tr.close(root)
			return out
		}
		stop := make(chan struct{})
		timer := time.AfterFunc(serveWindow, func() { close(stop) })
		out.load = closedLoop(srv, in.probes, stop, tr, root)
		timer.Stop()
	}
	out.probed = len(in.probes)
	out.probeFails = probeCheck(net, in.probes, srv, res.FinalParams)
	out.srvStats = srv.Stats()
	srv.Close()
	tr.close(root)
	return out
}

// probeCheck predicts every probe once the run has stopped and compares the
// served distribution with a forward pass over the run's final parameters.
func probeCheck(net *nn.Network, probes [][]float64, srv *serve.Server, final []float64) []string {
	logits := net.ForwardBatch(paramvec.FlatView(final), probes, net.NewWorkspace())
	want := make([]float64, net.OutDim())
	var fails []string
	for i, x := range probes {
		p, err := srv.Predict(x)
		if err != nil {
			fails = append(fails, fmt.Sprintf("probe %d: %v", i, err))
			continue
		}
		nn.SoftmaxInto(logits.Row(i), want)
		for k := range want {
			if math.Abs(p.Probs[k]-want[k]) > probeTol {
				fails = append(fails, fmt.Sprintf("probe %d: P[%d] %.17g, forward pass %.17g", i, k, p.Probs[k], want[k]))
				break
			}
		}
	}
	return fails
}
