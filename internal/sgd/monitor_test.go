package sgd

import (
	"testing"

	"leashedsgd/internal/nn"
	"leashedsgd/internal/rng"
)

// Result.InitialLoss is the loss at θ0 on the evaluation subset, bit for
// bit: the run snapshots θ0 before it starts any worker, so no update can
// leak into the loss the ε target is a fraction of.
func TestInitialLossIsLossAtTheta0(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	for _, algo := range []Algorithm{Leashed, Hogwild} {
		t.Run(algo.String(), func(t *testing.T) {
			cfg := testConfig(algo, 2)
			cfg.EpsilonFrac = 0
			cfg.MaxUpdates = 2000
			cfg.EvalSubset = 64
			res := runOrFatal(t, cfg, net, ds)

			theta0 := make([]float64, net.ParamCount())
			net.Init(theta0, rng.New(cfg.Seed), nn.DefaultSigma)
			prob := &denseProblem{net: net, ds: ds}
			want := prob.newLossEval(newRuntime(cfg.withDefaults(prob.dataLen()), prob))(theta0)
			if res.InitialLoss != want {
				t.Fatalf("InitialLoss = %v, loss at θ0 = %v", res.InitialLoss, want)
			}
			if res.Trace.Points[0].Loss != want {
				t.Fatalf("trace starts at loss %v, want θ0's %v", res.Trace.Points[0].Loss, want)
			}
		})
	}
}

// The monitor's dense loss evaluator allocates nothing per tick once its
// first call has sized the workspace.
func TestDenseLossEvalNoSteadyStateAllocs(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	prob := &denseProblem{net: net, ds: ds}
	cfg := testConfig(Leashed, 2)
	eval := prob.newLossEval(newRuntime(cfg.withDefaults(prob.dataLen()), prob))
	params := make([]float64, net.ParamCount())
	net.Init(params, rng.New(3), nn.DefaultSigma)
	eval(params)
	if allocs := testing.AllocsPerRun(20, func() { eval(params) }); allocs != 0 {
		t.Fatalf("monitor loss evaluation allocates %v objects/tick, want 0", allocs)
	}
}
