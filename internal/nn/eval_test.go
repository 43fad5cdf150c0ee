package nn

import (
	"math"
	"testing"

	"leashedsgd/internal/data"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// unbatched hides a layer's batched kernels, so a network built from it
// takes ForwardBatch's per-example fallback.
type unbatched struct{ Layer }

// evalArchs are the architectures the evaluation tests cover: the paper MLP
// and CNN (both on the blocked-GEMM chain) and a network without batched
// kernels (the per-example fallback).
func evalArchs() map[string]*Network {
	return map[string]*Network{
		"PaperMLP": NewPaperMLP(),
		"PaperCNN": NewPaperCNN(),
		"Fallback": MustNetwork(NewDense(28*28, 16), NewReLU(16), unbatched{NewDense(16, 10)}),
	}
}

// selection returns the dataset rows an index set selects (nil = all).
func selection(ds *data.Dataset, indices []int) []int {
	if indices != nil {
		return indices
	}
	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	return all
}

// lossPerExample is the per-example reference for Loss: the mean softmaxCE
// over one ForwardView per selected row.
func lossPerExample(n *Network, params []float64, ds *data.Dataset, indices []int, ws *Workspace) float64 {
	rows := selection(ds, indices)
	var total float64
	for _, i := range rows {
		total += softmaxCE(n.Forward(params, ds.X[i], ws), ws.probs, ds.Y[i])
	}
	return total / float64(len(rows))
}

// accuracyPerExample is the per-example reference for Accuracy.
func accuracyPerExample(n *Network, params []float64, ds *data.Dataset, indices []int, ws *Workspace) float64 {
	rows := selection(ds, indices)
	correct := 0
	for _, i := range rows {
		if tensor.ArgMax(n.Forward(params, ds.X[i], ws)) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(rows))
}

// Batched Loss and Accuracy match the per-example reference on every
// architecture, for nil indices over 77 rows (two full chunks and a partial
// one), a subset with a repeated row, and a one-row subset.
func TestLossAccuracyMatchPerExample(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(77, 13))
	subsets := map[string][]int{
		"nil":    nil,
		"subset": {76, 3, 3, 40, 0, 11, 59, 32, 31, 64},
		"one":    {5},
	}
	for name, n := range evalArchs() {
		params := make([]float64, n.ParamCount())
		n.Init(params, rng.New(21), DefaultSigma)
		for sname, indices := range subsets {
			t.Run(name+"/"+sname, func(t *testing.T) {
				ws, wsRef := n.NewWorkspace(), n.NewWorkspace()
				want := lossPerExample(n, params, ds, indices, wsRef)
				if got := n.Loss(params, ds, indices, ws); relErr(got, want) > 1e-12 {
					t.Fatalf("Loss = %v, per-example reference %v", got, want)
				}
				wantAcc := accuracyPerExample(n, params, ds, indices, wsRef)
				if got := n.Accuracy(params, ds, indices, ws); got != wantAcc {
					t.Fatalf("Accuracy = %v, per-example reference %v", got, wantAcc)
				}
			})
		}
	}
}

// An empty selection has no mean: Loss is NaN and Accuracy 0.
func TestLossEmptySelection(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(8, 2))
	n := NewSmallMLP(ds.Dim(), ds.Classes)
	params := make([]float64, n.ParamCount())
	ws := n.NewWorkspace()
	if got := n.Loss(params, ds, []int{}, ws); !math.IsNaN(got) {
		t.Fatalf("Loss(empty) = %v, want NaN", got)
	}
	if got := n.Accuracy(params, ds, []int{}, ws); got != 0 {
		t.Fatalf("Accuracy(empty) = %v, want 0", got)
	}
}

// After the first call has sized the workspace, Loss and Accuracy allocate
// nothing, on the GEMM chain and on the per-example fallback alike.
func TestLossAccuracyNoSteadyStateAllocs(t *testing.T) {
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(77, 4))
	for name, n := range evalArchs() {
		t.Run(name, func(t *testing.T) {
			params := make([]float64, n.ParamCount())
			n.Init(params, rng.New(5), DefaultSigma)
			ws := n.NewWorkspace()
			n.Loss(params, ds, nil, ws)
			for fname, eval := range map[string]func(){
				"Loss":     func() { n.Loss(params, ds, nil, ws) },
				"Accuracy": func() { n.Accuracy(params, ds, nil, ws) },
			} {
				if allocs := testing.AllocsPerRun(5, eval); allocs != 0 {
					t.Errorf("steady-state %s allocates %v objects/call, want 0", fname, allocs)
				}
			}
		})
	}
}

// lossEvalFixture is the monitor's default evaluation: the paper MLP over
// 256 rows (the sgd.Config.EvalSubset default).
func lossEvalFixture() (*Network, []float64, *data.Dataset, []int) {
	n := NewPaperMLP()
	params := make([]float64, n.ParamCount())
	n.Init(params, rng.New(1), DefaultSigma)
	ds := data.GenerateSynthetic(data.DefaultSyntheticConfig(256, 1))
	return n, params, ds, selection(ds, nil)
}

var benchLoss float64

// BenchmarkLossEval times one monitor tick's loss evaluation through the
// batched forward chain.
func BenchmarkLossEval(b *testing.B) {
	n, params, ds, idx := lossEvalFixture()
	ws := n.NewWorkspace()
	n.Loss(params, ds, idx, ws) // size the batch buffers
	b.ReportAllocs()
	for b.Loop() {
		benchLoss = n.Loss(params, ds, idx, ws)
	}
}

// BenchmarkLossEvalPerExample is the same evaluation as one ForwardView per
// row, the baseline BenchmarkLossEval's speed-up is measured against.
func BenchmarkLossEvalPerExample(b *testing.B) {
	n, params, ds, idx := lossEvalFixture()
	ws := n.NewWorkspace()
	b.ReportAllocs()
	for b.Loop() {
		benchLoss = lossPerExample(n, params, ds, idx, ws)
	}
}
