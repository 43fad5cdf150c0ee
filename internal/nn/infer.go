// Inference-only entry points: the serving tier (internal/serve) computes
// predictions against a leased zero-copy View of the live published
// parameters, batching concurrent requests into the same blocked-GEMM
// forward chain the training minibatch uses (batch.go) — one GEMM per layer
// per request batch instead of one matvec per request.
package nn

import (
	"fmt"
	"math"

	"leashedsgd/internal/paramvec"
	"leashedsgd/internal/tensor"
)

// ForwardBatch runs the forward pass for a batch of input rows against pv
// and returns the logits as a len(xs)×OutDim matrix aliasing workspace
// storage — valid until the next use of ws, so callers consume (or copy)
// rows before reusing the workspace. pv may be any View: flat final
// parameters, or a leased segmented view of the live sharded store.
// Networks whose layers all have batched kernels run the blocked-GEMM chain;
// other networks fall back to per-example ForwardView. Either way the
// output lives in workspace buffers that grow monotonically, so steady-state
// calls allocate nothing.
func (n *Network) ForwardBatch(pv paramvec.View, xs [][]float64, ws *Workspace) tensor.Mat {
	B := len(xs)
	if B == 0 {
		panic("nn: ForwardBatch with an empty batch")
	}
	if pv.Len() != n.d {
		panic(fmt.Sprintf("nn: ForwardBatch params have %d values, want %d", pv.Len(), n.d))
	}
	for r, x := range xs {
		if len(x) != n.inDim {
			panic(fmt.Sprintf("nn: ForwardBatch input %d has %d values, want %d", r, len(x), n.inDim))
		}
	}
	if n.blayers == nil {
		if len(ws.logits) < B*n.outDim {
			ws.logits = make([]float64, B*n.outDim)
		}
		out := tensor.MatFrom(B, n.outDim, ws.logits[:B*n.outDim])
		for r, x := range xs {
			copy(out.Row(r), n.ForwardView(pv, x, ws))
		}
		return out
	}
	n.ensureBatch(ws, B)
	in := n.bact(ws, 0, B)
	for r, x := range xs {
		copy(in.Row(r), x)
	}
	for i := range n.layers {
		n.layerForwardBatch(pv, i, B, ws)
	}
	return n.bact(ws, len(n.layers), B)
}

// SoftmaxInto writes softmax(logits) into dst (max-shifted for numerical
// stability). dst must have len(logits) entries; dst and logits may alias.
func SoftmaxInto(logits, dst []float64) {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}
