package nn

import (
	"fmt"
	"math"

	"leashedsgd/internal/data"
	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/rng"
	"leashedsgd/internal/tensor"
)

// Network is an immutable feed-forward architecture description: a chain of
// layers whose parameters are laid out consecutively in one flat vector of
// length ParamCount(). A single Network value is shared read-only by all SGD
// workers; every worker evaluates it through its own Workspace.
type Network struct {
	layers  []Layer
	offsets []int // offsets[i] is the start of layer i's params in θ
	d       int   // total parameter count
	inDim   int
	outDim  int
	// blayers caches every layer's batched kernel interface; non-nil only
	// when ALL layers implement batchLayer, in which case BatchLossGrad
	// routes through the GEMM chain in batch.go.
	blayers []batchLayer
}

// NewNetwork validates that consecutive layers' dimensions chain and returns
// the network.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: empty network")
	}
	n := &Network{layers: layers, offsets: make([]int, len(layers))}
	for i, l := range layers {
		if i > 0 && l.InDim() != layers[i-1].OutDim() {
			return nil, fmt.Errorf("nn: layer %d (%s) expects input %d but layer %d (%s) outputs %d",
				i, l.Name(), l.InDim(), i-1, layers[i-1].Name(), layers[i-1].OutDim())
		}
		n.offsets[i] = n.d
		n.d += l.ParamCount()
	}
	n.inDim = layers[0].InDim()
	n.outDim = layers[len(layers)-1].OutDim()
	n.blayers = make([]batchLayer, len(layers))
	for i, l := range layers {
		bl, ok := l.(batchLayer)
		if !ok {
			n.blayers = nil
			break
		}
		n.blayers[i] = bl
	}
	return n, nil
}

// MustNetwork is NewNetwork that panics on error; for the fixed architecture
// builders below whose geometry is known correct.
func MustNetwork(layers ...Layer) *Network {
	n, err := NewNetwork(layers...)
	if err != nil {
		panic(err)
	}
	return n
}

// ParamCount returns d, the dimension of the flat parameter vector θ.
func (n *Network) ParamCount() int { return n.d }

// InDim returns the flattened input dimension.
func (n *Network) InDim() int { return n.inDim }

// OutDim returns the output (class logit) dimension.
func (n *Network) OutDim() int { return n.outDim }

// Layers returns the layer chain (read-only use).
func (n *Network) Layers() []Layer { return n.layers }

// Arch returns a human-readable architecture summary.
func (n *Network) Arch() string {
	s := ""
	for i, l := range n.layers {
		if i > 0 {
			s += " → "
		}
		s += l.Name()
	}
	return fmt.Sprintf("%s [d=%d]", s, n.d)
}

// layerParams returns layer i's slice of the flat vector v (params or grad).
func (n *Network) layerParams(v []float64, i int) []float64 {
	return v[n.offsets[i] : n.offsets[i]+n.layers[i].ParamCount()]
}

// Init fills params with N(0, σ²) values, the paper's rand_init
// (theta ← N(0, 0.01), i.e. variance 0.01 → σ = 0.1).
func (n *Network) Init(params []float64, r *rng.Rand, sigma float64) {
	if len(params) != n.d {
		panic("nn: Init params length mismatch")
	}
	for i := range params {
		params[i] = sigma * r.NormFloat64()
	}
}

// DefaultSigma is the σ for Init matching the paper's N(0, 0.01) variance.
const DefaultSigma = 0.1

// Workspace holds one worker's mutable evaluation state: activations per
// layer boundary, error deltas, per-layer scratch, and the softmax buffer.
// Workspaces are not safe for concurrent use; allocate one per worker.
type Workspace struct {
	acts    [][]float64 // acts[0] = input copy target, acts[i+1] = layer i output
	deltas  [][]float64 // deltas[i] = dLoss/d(acts[i])
	scratch []any
	probs   []float64
	// stitch[i] is layer i's gather target, allocated on first use — only
	// a parameterized layer without a segment-aware kernel (viewLayer)
	// whose block actually straddles a segment boundary ever needs one.
	// After the first fallback the buffer is reused, keeping the
	// segmented-view hot path allocation-free; flat-view runs never pay
	// for it.
	stitch [][]float64
	// batch holds the batch-shaped buffers of the GEMM gradient path,
	// sized lazily to the largest batch seen (see batch.go).
	batch batchBuffers
	// evalX and evalY stage one evalChunk of row pointers and labels for
	// Loss and Accuracy (forEachLogits).
	evalX [][]float64
	evalY []int
	// logits is ForwardBatch's output on networks without batched kernels,
	// grown to the largest batch seen.
	logits []float64
}

// NewWorkspace allocates a workspace for this network.
func (n *Network) NewWorkspace() *Workspace {
	ws := &Workspace{
		acts:    make([][]float64, len(n.layers)+1),
		deltas:  make([][]float64, len(n.layers)+1),
		scratch: make([]any, len(n.layers)),
		probs:   make([]float64, n.outDim),
		stitch:  make([][]float64, len(n.layers)),
		evalX:   make([][]float64, evalChunk),
		evalY:   make([]int, evalChunk),
	}
	ws.acts[0] = make([]float64, n.inDim)
	ws.deltas[0] = make([]float64, n.inDim)
	for i, l := range n.layers {
		ws.acts[i+1] = make([]float64, l.OutDim())
		ws.deltas[i+1] = make([]float64, l.OutDim())
		ws.scratch[i] = l.NewScratch()
	}
	return ws
}

// stitchFor returns layer i's reusable gather buffer, allocating it on the
// first segmented-fallback use.
func (n *Network) stitchFor(ws *Workspace, i int) []float64 {
	if ws.stitch[i] == nil {
		ws.stitch[i] = make([]float64, n.layers[i].ParamCount())
	}
	return ws.stitch[i]
}

// viewLayer is the optional segment-aware kernel interface: layers that
// implement it evaluate directly against a segmented parameter view when
// their parameter block straddles a segment boundary, splitting their inner
// loops at the boundaries instead of copying (zero-copy). Layers without it
// fall back to gathering their (typically small) block into the workspace's
// pre-sized stitch buffer. lo is the layer's start offset in the flat vector.
type viewLayer interface {
	ForwardView(pv paramvec.View, lo int, in, out []float64, scratch any)
	BackwardView(pv paramvec.View, lo int, grad, in, out, dOut, dIn []float64, scratch any)
}

// layerForward runs layer i's forward pass against the parameter view:
// contiguous fast path (always taken for flat views, and for any layer that
// fits inside one segment), segment-aware kernel, or stitch fallback.
func (n *Network) layerForward(pv paramvec.View, i int, ws *Workspace) {
	l := n.layers[i]
	lo := n.offsets[i]
	hi := lo + l.ParamCount()
	if p, ok := pv.Slice(lo, hi); ok {
		l.Forward(p, ws.acts[i], ws.acts[i+1], ws.scratch[i])
	} else if vl, ok := l.(viewLayer); ok {
		vl.ForwardView(pv, lo, ws.acts[i], ws.acts[i+1], ws.scratch[i])
	} else {
		l.Forward(pv.Gather(lo, hi, n.stitchFor(ws, i)), ws.acts[i], ws.acts[i+1], ws.scratch[i])
	}
}

// layerBackward is the backward-pass counterpart of layerForward. grad is
// always a flat private vector — only the parameter READ is segmented.
func (n *Network) layerBackward(pv paramvec.View, i int, grad []float64, dOut, dIn []float64, ws *Workspace) {
	l := n.layers[i]
	lo := n.offsets[i]
	hi := lo + l.ParamCount()
	if p, ok := pv.Slice(lo, hi); ok {
		l.Backward(p, n.layerParams(grad, i), ws.acts[i], ws.acts[i+1], dOut, dIn, ws.scratch[i])
	} else if vl, ok := l.(viewLayer); ok {
		vl.BackwardView(pv, lo, n.layerParams(grad, i), ws.acts[i], ws.acts[i+1], dOut, dIn, ws.scratch[i])
	} else {
		l.Backward(pv.Gather(lo, hi, n.stitchFor(ws, i)), n.layerParams(grad, i),
			ws.acts[i], ws.acts[i+1], dOut, dIn, ws.scratch[i])
	}
}

// ForwardView runs the network against a (possibly segmented) parameter view
// and returns the logits slice, which aliases workspace storage and is valid
// until the next call.
func (n *Network) ForwardView(pv paramvec.View, x []float64, ws *Workspace) []float64 {
	if pv.Len() != n.d {
		panic("nn: ForwardView params length mismatch")
	}
	if len(x) != n.inDim {
		panic("nn: Forward input length mismatch")
	}
	copy(ws.acts[0], x)
	for i := range n.layers {
		n.layerForward(pv, i, ws)
	}
	return ws.acts[len(n.layers)]
}

// Forward runs the network on x (length InDim) and returns the logits slice,
// which aliases workspace storage and is valid until the next call.
func (n *Network) Forward(params, x []float64, ws *Workspace) []float64 {
	if len(params) != n.d {
		panic("nn: Forward params length mismatch")
	}
	return n.ForwardView(paramvec.FlatView(params), x, ws)
}

// softmaxCE computes softmax probabilities of logits into probs and returns
// the cross-entropy loss against label y.
func softmaxCE(logits, probs []float64, y int) float64 {
	SoftmaxInto(logits, probs)
	p := probs[y]
	if p < 1e-300 {
		p = 1e-300
	}
	return -math.Log(p)
}

// backprop runs the backward pass for one sample whose forward activations
// and softmax probabilities are live in ws, accumulating into grad.
func (n *Network) backprop(pv paramvec.View, grad []float64, y int, invB float64, ws *Workspace) {
	nl := len(n.layers)
	// dLoss/dlogits = (softmax - onehot) / B
	dOut := ws.deltas[nl]
	for i := range dOut {
		dOut[i] = ws.probs[i] * invB
	}
	dOut[y] -= invB
	for i := nl - 1; i >= 0; i-- {
		var dIn []float64
		if i > 0 {
			dIn = ws.deltas[i]
		}
		n.layerBackward(pv, i, grad, ws.deltas[i+1], dIn, ws)
	}
}

// LossGrad computes the mean softmax-cross-entropy loss of the batch and
// ACCUMULATES the mean gradient into grad (callers zero grad when they want
// a fresh gradient; accumulation supports gradient averaging schemes).
// xs[i] must have length InDim; ys[i] in [0, OutDim).
func (n *Network) LossGrad(params, grad []float64, xs [][]float64, ys []int, ws *Workspace) float64 {
	if len(grad) != n.d {
		panic("nn: LossGrad grad length mismatch")
	}
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("nn: LossGrad empty or mismatched batch")
	}
	pv := paramvec.FlatView(params)
	invB := 1 / float64(len(xs))
	var totalLoss float64
	for b, x := range xs {
		logits := n.ForwardView(pv, x, ws)
		totalLoss += softmaxCE(logits, ws.probs, ys[b])
		n.backprop(pv, grad, ys[b], invB, ws)
	}
	return totalLoss * invB
}

// BatchLossGrad is the gradient entry point of the SGD hot path: mean loss
// and gradient over dataset rows selected by batch indices, reading the
// parameters through a View. The view may be flat (paramvec.FlatView over a
// private copy — the lock-based and HOGWILD! read protocols) or segmented
// (a leased zero-copy read of the published shard buffers —
// paramvec.Lease.Acquire), in which case segment-aware kernels and
// pre-sized stitch buffers keep the pass allocation-free
// (BenchmarkGradientReadAllocs).
//
// When every layer provides batched kernels (all built-in layers do), the
// pass runs as one blocked GEMM chain per direction over the batch×dim
// activation matrices — the arithmetic-bound Tc path (batch.go). Networks
// containing a layer without batched kernels fall back to the per-example
// reference pass.
func (n *Network) BatchLossGrad(pv paramvec.View, grad []float64, ds *data.Dataset, batch data.Batch, ws *Workspace) float64 {
	if n.blayers != nil && len(batch.Indices) > 0 {
		return n.batchLossGradGEMM(pv, grad, ds, batch, ws)
	}
	return n.BatchLossGradPerExample(pv, grad, ds, batch, ws)
}

// BatchLossGradPerExample is the per-example reference implementation of
// BatchLossGrad: one forward/backward pass per minibatch row. It computes
// the same mean loss and gradient as the batched GEMM chain (only the
// floating-point summation order differs — the golden-equivalence tests pin
// the two paths together) and remains the fallback for layer types without
// batched kernels, as well as the baseline the batched-compute speedup is
// measured against.
func (n *Network) BatchLossGradPerExample(pv paramvec.View, grad []float64, ds *data.Dataset, batch data.Batch, ws *Workspace) float64 {
	invB := 1 / float64(len(batch.Indices))
	var totalLoss float64
	for _, idx := range batch.Indices {
		logits := n.ForwardView(pv, ds.X[idx], ws)
		totalLoss += softmaxCE(logits, ws.probs, ds.Y[idx])
		n.backprop(pv, grad, ds.Y[idx], invB, ws)
	}
	return totalLoss * invB
}

// evalChunk is the row count of one evaluation forward pass: Loss and
// Accuracy push the selected rows through ForwardBatch this many at a time.
// On the paper MLP over 256 rows, chunks of 16 to 256 rows all measured
// within 15% of each other (BenchmarkLossEval, 2-vCPU AMD EPYC); 32 is the
// paper-scale training minibatch, so a workspace shared with training keeps
// its batch buffers at their training size.
const evalChunk = 32

// forEachLogits runs the forward pass over the dataset rows selected by
// indices (every row when indices is nil), evalChunk rows per ForwardBatch
// call, and hands fn each chunk's logits (one row per example, aliasing ws)
// with the chunk's labels. The row pointers and labels are staged in the
// workspace, so steady-state evaluation allocates nothing.
func (n *Network) forEachLogits(params []float64, ds *data.Dataset, indices []int, ws *Workspace, fn func(logits tensor.Mat, ys []int)) {
	pv := paramvec.FlatView(params)
	rows := len(indices)
	if indices == nil {
		rows = ds.Len()
	}
	for lo := 0; lo < rows; lo += evalChunk {
		B := min(evalChunk, rows-lo)
		for r := 0; r < B; r++ {
			i := lo + r
			if indices != nil {
				i = indices[i]
			}
			ws.evalX[r], ws.evalY[r] = ds.X[i], ds.Y[i]
		}
		fn(n.ForwardBatch(pv, ws.evalX[:B], ws), ws.evalY[:B])
	}
}

// Loss evaluates the mean cross-entropy over the samples selected by
// indices (all samples when indices is nil), or NaN when none are selected.
// Evaluation-only: no gradient. The rows run through the batched forward
// chain in evalChunk-row blocks.
func (n *Network) Loss(params []float64, ds *data.Dataset, indices []int, ws *Workspace) float64 {
	var total float64
	count := 0
	n.forEachLogits(params, ds, indices, ws, func(logits tensor.Mat, ys []int) {
		for r, y := range ys {
			total += softmaxCE(logits.Row(r), ws.probs, y)
		}
		count += len(ys)
	})
	if count == 0 {
		return math.NaN()
	}
	return total / float64(count)
}

// Accuracy returns the fraction of samples (selected by indices, or all)
// whose argmax prediction matches the label.
func (n *Network) Accuracy(params []float64, ds *data.Dataset, indices []int, ws *Workspace) float64 {
	correct, count := 0, 0
	n.forEachLogits(params, ds, indices, ws, func(logits tensor.Mat, ys []int) {
		for r, y := range ys {
			if tensor.ArgMax(logits.Row(r)) == y {
				correct++
			}
		}
		count += len(ys)
	})
	if count == 0 {
		return 0
	}
	return float64(correct) / float64(count)
}

// NewMLP builds input → hidden Dense+ReLU stacks → classes Dense, the
// paper's MLP shape (Table II uses hidden = {128,128,128}, classes = 10).
func NewMLP(inputDim int, hidden []int, classes int) *Network {
	var layers []Layer
	prev := inputDim
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h), NewReLU(h))
		prev = h
	}
	layers = append(layers, NewDense(prev, classes))
	return MustNetwork(layers...)
}

// NewPaperMLP is the exact Table II architecture: 784 → 128×3 → 10,
// d = 134,794.
func NewPaperMLP() *Network {
	return NewMLP(28*28, []int{128, 128, 128}, 10)
}

// NewPaperCNN is the exact Table III architecture:
// Conv(4 filters, 3×3) → Pool(2×2) → Conv(8, 3×3) → Pool(2×2) →
// Dense(128) → Dense(10), with ReLU after conv and dense stages,
// d = 27,354.
func NewPaperCNN() *Network {
	conv1 := NewConv2D(1, 28, 28, 4, 3)     // → 4×26×26
	relu1 := NewReLU(conv1.OutDim())        //
	pool1 := NewMaxPool2D(4, 26, 26, 2)     // → 4×13×13
	conv2 := NewConv2D(4, 13, 13, 8, 3)     // → 8×11×11
	relu2 := NewReLU(conv2.OutDim())        //
	pool2 := NewMaxPool2D(8, 11, 11, 2)     // → 8×5×5 = 200
	dense1 := NewDense(pool2.OutDim(), 128) //
	relu3 := NewReLU(128)                   //
	dense2 := NewDense(128, 10)             //
	return MustNetwork(conv1, relu1, pool1, conv2, relu2, pool2, dense1, relu3, dense2)
}

// NewSmallMLP is a scaled-down MLP (input → 32 → 10) used by tests and the
// laptop-scale default experiments, where the paper-scale d=134,794 model
// would make every run minutes long.
func NewSmallMLP(inputDim, classes int) *Network {
	return NewMLP(inputDim, []int{32}, classes)
}

// NewSmallCNN is a scaled-down CNN with the same layer types as the paper's
// (conv→pool→conv→pool→dense→dense) for fast experiment runs.
func NewSmallCNN() *Network {
	conv1 := NewConv2D(1, 28, 28, 2, 3) // → 2×26×26
	relu1 := NewReLU(conv1.OutDim())
	pool1 := NewMaxPool2D(2, 26, 26, 2) // → 2×13×13
	conv2 := NewConv2D(2, 13, 13, 4, 3) // → 4×11×11
	relu2 := NewReLU(conv2.OutDim())
	pool2 := NewMaxPool2D(4, 11, 11, 2) // → 4×5×5 = 100
	dense1 := NewDense(pool2.OutDim(), 32)
	relu3 := NewReLU(32)
	dense2 := NewDense(32, 10)
	return MustNetwork(conv1, relu1, pool1, conv2, relu2, pool2, dense1, relu3, dense2)
}
