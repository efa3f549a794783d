// Package engine executes real float32 forward passes over dag.Graph
// models — the replacement for the paper's PyTorch engines on both the
// client and the server. Weights are deterministically initialized
// from a seed so client and server instantiate identical models
// without shipping parameters, mirroring the paper's setup where both
// sides pre-load the same pre-cut model.
//
// The hot compute path lowers convolutions onto an im2col + blocked
// parallel SGEMM kernel (see gemm.go, im2col.go) and recycles
// activation buffers through a per-model tensor.Arena; the naive
// direct-loop kernels are kept as a reference implementation behind
// WithKernel(KernelDirect). Both paths accumulate every output element
// in the same fixed order, so they produce identical outputs at any
// worker count.
package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"dnnjps/internal/dag"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// KernelPath selects the implementation of the heavy layers.
type KernelPath int

const (
	// KernelGEMM lowers conv2d via im2col onto the blocked parallel
	// SGEMM, runs depthwise conv with an interior/border split, and
	// dense layers as a register-blocked matrix-vector product. The
	// SGEMM driver is chosen per shape from the measured per-GOARCH
	// crossover policy (see preferMicro in autokernel.go): the
	// streaming panel loop on amd64, the packed register-tile
	// microkernel elsewhere once the shape tiles. This is the default
	// path.
	KernelGEMM KernelPath = iota
	// KernelDirect is the naive nested-loop reference implementation,
	// kept for parity tests and kernel-path comparisons.
	KernelDirect
	// KernelPanel forces the GEMM lowering onto the cache-blocked
	// streaming panel loop regardless of GOARCH.
	KernelPanel
	// KernelMicro forces the GEMM lowering onto the packed
	// register-tile microkernel regardless of GOARCH.
	KernelMicro
	// KernelAsm forces the GEMM lowering onto the hand-written
	// SIMD microkernel (AVX2+FMA on amd64, NEON on arm64) when the
	// CPU supports it; on other builds (or under the noasm tag) it
	// degrades to the KernelGEMM auto policy. Unlike the pure-Go
	// drivers the FMA tile rounds once per multiply-add, so float32
	// outputs agree with the other paths only within the documented
	// tolerance (see gemm_asm.go); the int8 kernels remain exact.
	KernelAsm
)

func (k KernelPath) String() string {
	switch k {
	case KernelGEMM:
		return "gemm"
	case KernelDirect:
		return "direct"
	case KernelPanel:
		return "panel"
	case KernelMicro:
		return "micro"
	case KernelAsm:
		return "asm"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// ParseKernelPath maps the CLI spelling to a KernelPath. "auto" (and
// its historical alias "gemm") selects the shape-aware policy; the
// other spellings force one driver.
func ParseKernelPath(s string) (KernelPath, error) {
	switch s {
	case "auto", "gemm":
		return KernelGEMM, nil
	case "direct":
		return KernelDirect, nil
	case "panel":
		return KernelPanel, nil
	case "micro":
		return KernelMicro, nil
	case "asm":
		return KernelAsm, nil
	default:
		return 0, fmt.Errorf("engine: unknown kernel path %q (want auto, gemm, panel, micro, asm, or direct)", s)
	}
}

// params holds one layer's learned tensors.
type params struct {
	w, b []float32
}

// Model is a graph plus its instantiated weights, ready to execute.
type Model struct {
	g       *dag.Graph
	seed    int64
	params  map[int]params
	workers int        // convolution parallelism; see Parallel
	kernel  KernelPath // heavy-layer implementation; see WithKernel
	arena   *tensor.Arena
	quant   *quantState                      // int8 inference mode; nil = float32 (see quant.go)
	states  freeList[*execState]             // recycled bookkeeping (see executeN)
	acts    freeList[map[int]*tensor.Tensor] // recycled activation maps for Forward/ForwardBatch
}

// Load instantiates weights for every parametric layer of the graph.
// Initialization is deterministic in (seed, layer name): two Loads of
// the same model with the same seed produce bit-identical weights.
func Load(g *dag.Graph, seed int64) *Model {
	m := &Model{
		g:       g,
		seed:    seed,
		params:  make(map[int]params),
		workers: 1,
		kernel:  KernelGEMM,
		arena:   tensor.NewArena(),
	}
	for _, id := range g.Topo() {
		node := g.Node(id)
		ins := g.InputShapes(id)
		switch l := node.Layer.(type) {
		case *nn.Conv2D:
			inC := ins[0].C() / maxInt(l.Groups, 1)
			fanIn := l.KH * l.KW * inC
			p := params{w: initSlice(seed, l.LayerName+"/w", l.OutC*fanIn, fanIn)}
			if l.Bias {
				p.b = initSlice(seed, l.LayerName+"/b", l.OutC, fanIn)
			}
			m.params[id] = p
		case *nn.DepthwiseConv2D:
			c := ins[0].C()
			fanIn := l.KH * l.KW
			p := params{w: initSlice(seed, l.LayerName+"/w", c*fanIn, fanIn)}
			if l.Bias {
				p.b = initSlice(seed, l.LayerName+"/b", c, fanIn)
			}
			m.params[id] = p
		case *nn.Dense:
			in := ins[0].Elems()
			p := params{w: initSlice(seed, l.LayerName+"/w", l.Out*in, in)}
			if l.Bias {
				p.b = initSlice(seed, l.LayerName+"/b", l.Out, in)
			}
			m.params[id] = p
		case *nn.BatchNorm:
			c := ins[0].C()
			// Scale near 1, shift near 0 (folded inference form).
			p := params{w: make([]float32, c), b: make([]float32, c)}
			rng := rngFor(seed, l.LayerName)
			for i := 0; i < c; i++ {
				p.w[i] = 1 + 0.1*float32(rng.NormFloat64())
				p.b[i] = 0.05 * float32(rng.NormFloat64())
			}
			m.params[id] = p
		}
	}
	return m
}

// Graph returns the model's graph.
func (m *Model) Graph() *dag.Graph { return m.g }

// WithKernel selects the heavy-layer implementation. Returns the model
// for chaining. Both paths produce identical outputs; KernelDirect
// exists so profiling runs can compare against the reference.
func (m *Model) WithKernel(k KernelPath) *Model {
	m.kernel = k
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func rngFor(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// initSlice draws n values from N(0, 1/fanIn) — He-style scaling keeps
// activations bounded through deep stacks.
func initSlice(seed int64, name string, n, fanIn int) []float32 {
	rng := rngFor(seed, name)
	std := 1 / math.Sqrt(float64(maxInt(fanIn, 1)))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * std)
	}
	return out
}

// Forward runs the whole model on one input tensor and returns the
// sink's output.
func (m *Model) Forward(input *tensor.Tensor) (*tensor.Tensor, error) {
	acts := m.getActs()
	defer m.putActs(acts)
	if err := m.Execute(acts, input, m.g.Topo()); err != nil {
		return nil, err
	}
	return acts[m.g.Sink()], nil
}

// getActs hands out a recycled activation map for whole-model runs.
// The liveness tracker retires entries eagerly, so by the end of a
// full-topo pass only the sink (which the caller keeps) is left and the
// map's buckets can be reused as-is.
func (m *Model) getActs() map[int]*tensor.Tensor {
	if a := m.acts.get(); a != nil {
		return a
	}
	return make(map[int]*tensor.Tensor, 8)
}

func (m *Model) putActs(acts map[int]*tensor.Tensor) {
	clear(acts)
	m.acts.put(acts)
}

// ForwardBatch runs the whole model on a batch of equally shaped
// inputs and returns the per-input sink outputs. The inputs are packed
// into the engine's batched layout (see batch.go), executed as one
// pass — each conv/dense layer issues a single widened SGEMM instead
// of len(inputs) narrow ones — and the sink is unpacked again.
func (m *Model) ForwardBatch(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	packed, err := PackBatch(inputs)
	if err != nil {
		return nil, err
	}
	acts := m.getActs()
	defer m.putActs(acts)
	if err := m.ExecuteBatch(acts, len(inputs), packed, m.g.Topo()); err != nil {
		return nil, err
	}
	return UnpackBatch(acts[m.g.Sink()], len(inputs))
}

// execState tracks activation liveness for one Execute call so the
// arena can reclaim each buffer as soon as its last consumer inside
// the node list has run. owner[i] is the node whose eval allocated the
// buffer backing node i's activation (views and in-place ops share a
// predecessor's buffer; -1 marks caller-provided tensors, which are
// never recycled or mutated). refs counts live activations per owning
// node's buffer.
type execState struct {
	remaining  []int  // in-list consumers not yet executed
	releasable []bool // >0 consumers, all inside the node list
	owner      []int
	refs       []int
	pooled     []bool           // owner's buffer came from the arena
	tens       []*tensor.Tensor // owner's tensor, kept for recycling
	inList     []bool           // scratch: node is in this call's list
	ins        []*tensor.Tensor // scratch: predecessor activations
}

// newExecState hands out liveness bookkeeping for one executeN call,
// recycled through the model's state pool — the graph size is fixed, so
// a returned state's slices always fit and a steady-state Forward pays
// no bookkeeping allocations.
func (m *Model) newExecState(nodes []int) *execState {
	n := m.g.Len()
	st := m.states.get()
	if st == nil {
		st = &execState{
			remaining:  make([]int, n),
			releasable: make([]bool, n),
			owner:      make([]int, n),
			refs:       make([]int, n),
			pooled:     make([]bool, n),
			tens:       make([]*tensor.Tensor, n),
			inList:     make([]bool, n),
		}
	} else {
		for i := range st.remaining {
			st.remaining[i] = 0
			st.releasable[i] = false
			st.refs[i] = 0
			st.pooled[i] = false
			st.inList[i] = false
		}
	}
	for i := range st.owner {
		st.owner[i] = -1
	}
	inList := st.inList
	for _, id := range nodes {
		inList[id] = true
	}
	for _, id := range nodes {
		succs := m.g.Succs(id)
		cnt := 0
		for _, s := range succs {
			if inList[s] {
				cnt++
			}
		}
		st.remaining[id] = cnt
		// A node with consumers outside the list (a cut boundary the
		// caller will ship) or none at all (the sink) stays live.
		st.releasable[id] = cnt > 0 && cnt == len(succs)
	}
	return st
}

func sharesBuffer(a, b *tensor.Tensor) bool {
	return len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// adopt registers node id's freshly produced activation: either it
// shares a predecessor's buffer (views like Flatten, identity ops,
// in-place activations) or it owns a fresh arena buffer.
func (st *execState) adopt(id int, out *tensor.Tensor, ins []*tensor.Tensor, preds []int) {
	for i, in := range ins {
		if sharesBuffer(out, in) {
			if root := st.owner[preds[i]]; root >= 0 {
				st.owner[id] = root
				st.refs[root]++
			}
			return
		}
	}
	st.owner[id] = id
	st.refs[id] = 1
	st.pooled[id] = true
	st.tens[id] = out
}

// retire drops a dead activation from acts and recycles its buffer
// once no live activation shares it.
func (st *execState) retire(id int, acts map[int]*tensor.Tensor, arena *tensor.Arena) {
	delete(acts, id)
	root := st.owner[id]
	st.owner[id] = -1
	if root < 0 {
		return
	}
	st.refs[root]--
	if st.refs[root] == 0 && st.pooled[root] {
		st.pooled[root] = false
		arena.Put(st.tens[root])
		st.tens[root] = nil
	}
}

// canOverwrite reports whether pred p's buffer may be mutated in place
// by its consumer: p dies right after this node runs, nothing else
// shares its buffer, and the buffer came from the arena (never a
// caller-provided tensor).
func (st *execState) canOverwrite(p int) bool {
	if st.remaining[p] != 1 || !st.releasable[p] {
		return false
	}
	root := st.owner[p]
	return root >= 0 && st.pooled[root] && st.refs[root] == 1
}

// Execute evaluates the given nodes (which must be in topological
// order) into acts. The input tensor seeds the source node when the
// node list contains it; otherwise acts must already hold every
// predecessor activation — this is how the server resumes from a cut:
// the client ships the boundary activations, the server executes the
// remaining node range.
//
// Activations whose consumers all lie inside the node list are removed
// from acts once their last consumer has run and their buffers are
// recycled through the model's arena; entries the caller can still
// need — the sink, cut boundaries feeding nodes outside the list, and
// any tensor the caller provided — are always retained.
func (m *Model) Execute(acts map[int]*tensor.Tensor, input *tensor.Tensor, nodes []int) error {
	return m.executeN(acts, 1, input, nodes)
}

// ExecuteBatch is Execute over a packed batch of n equally shaped
// activations (see PackBatch for the layout). Every activation in acts
// — seeded boundary tensors and produced ones alike — is a packed
// batch-n tensor; per-node shapes are the batched form of the node's
// OutShape (dim 0 scaled by n). With n == 1 it is exactly Execute,
// bit for bit: the batched kernels degenerate to the batch-1 code
// paths and accumulate every output element in the same order.
func (m *Model) ExecuteBatch(acts map[int]*tensor.Tensor, n int, input *tensor.Tensor, nodes []int) error {
	if n < 1 {
		return fmt.Errorf("engine: batch size %d", n)
	}
	if n > 1 && m.quant != nil {
		// The batched kernels are float32-only; mixing them with the
		// int8 solo path would make results depend on coalescing.
		return fmt.Errorf("engine: batched execution is not supported on a quantized model")
	}
	return m.executeN(acts, n, input, nodes)
}

// releaseState returns a state to the pool, dropping its tensor
// references so pooled bookkeeping never pins activations alive.
func (m *Model) releaseState(st *execState) {
	for i := range st.tens {
		st.tens[i] = nil
	}
	st.ins = st.ins[:0]
	m.states.put(st)
}

func (m *Model) executeN(acts map[int]*tensor.Tensor, n int, input *tensor.Tensor, nodes []int) error {
	st := m.newExecState(nodes)
	defer m.releaseState(st)
	for _, id := range nodes {
		node := m.g.Node(id)
		if _, ok := node.Layer.(*nn.Input); ok {
			if input == nil {
				return fmt.Errorf("engine: %q needs an input tensor", node.Layer.Name())
			}
			if want := batchShape(node.OutShape, n); !input.Shape.Equal(want) {
				return fmt.Errorf("engine: input shape %v, model wants %v", input.Shape, want)
			}
			acts[id] = input
			continue
		}
		preds := m.g.Preds(id)
		st.ins = st.ins[:0]
		for _, p := range preds {
			a, ok := acts[p]
			if !ok {
				return fmt.Errorf("engine: %q missing activation of predecessor %q",
					node.Layer.Name(), m.g.Node(p).Layer.Name())
			}
			st.ins = append(st.ins, a)
		}
		out, err := m.evalN(id, node, st.ins, preds, st, n)
		if err != nil {
			return err
		}
		st.adopt(id, out, st.ins, preds)
		acts[id] = out
		for _, p := range preds {
			if st.remaining[p] > 0 {
				st.remaining[p]--
				if st.remaining[p] == 0 && st.releasable[p] {
					st.retire(p, acts, m.arena)
				}
			}
		}
	}
	return nil
}

// evalN dispatches one layer at batch size n. n == 1 takes the
// original single-image kernels (including the KernelDirect reference
// path); n > 1 takes the batched GEMM kernels in batch.go, which share
// the per-element accumulation order with their batch-1 counterparts.
func (m *Model) evalN(id int, node *dag.Node, ins []*tensor.Tensor, preds []int, st *execState, n int) (*tensor.Tensor, error) {
	if n == 1 {
		return m.eval(id, node, ins, preds, st)
	}
	inShapes := m.g.InputShapes(id)
	switch l := node.Layer.(type) {
	case *nn.Conv2D:
		return conv2dGEMMBatch(m.arena, m.kernel, ins[0], inShapes[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride,
			l.EffPadH(), l.EffPadW(), maxInt(l.Groups, 1), m.workers, n), nil
	case *nn.DepthwiseConv2D:
		return dwconv2dBatch(m.arena, ins[0], inShapes[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride, l.Pad, m.workers, n), nil
	case *nn.MaxPool2D:
		return maxpoolBatch(m.arena, ins[0], inShapes[0], node.OutShape, l.K, l.Stride, l.Pad, m.workers, n), nil
	case *nn.AvgPool2D:
		return avgpoolBatch(m.arena, ins[0], inShapes[0], node.OutShape, l.K, l.Stride, l.Pad, m.workers, n), nil
	case *nn.GlobalAvgPool2D:
		// The packed layout makes GAP batch-oblivious: each of the C·n
		// planes averages independently and lands at index c·n+b — the
		// packed vector layout.
		return globalAvgPool(m.arena, ins[0]), nil
	case *nn.Dense:
		return denseGEMMBatch(m.arena, m.kernel, ins[0], m.params[id], l.Out, m.workers, n), nil
	case *nn.Activation:
		return activate(m.arena, ins[0], l.Func, st.canOverwrite(preds[0])), nil
	case *nn.BatchNorm:
		return batchNorm(m.arena, ins[0], m.params[id], n), nil
	case *nn.LRN:
		return lrnBatch(m.arena, ins[0], l.Size, n), nil
	case *nn.Dropout:
		return ins[0], nil // identity at inference
	case *nn.Flatten:
		return flattenBatch(m.arena, ins[0], n), nil
	case *nn.Concat:
		return concat(m.arena, ins, batchShape(node.OutShape, n)), nil
	case *nn.Add:
		return add(m.arena, ins, st.canOverwrite(preds[0])), nil
	case *nn.Softmax:
		return softmaxBatch(m.arena, ins[0], n), nil
	default:
		return nil, fmt.Errorf("engine: unsupported layer type %T (%s)", node.Layer, node.Layer.Name())
	}
}

// eval dispatches one layer.
func (m *Model) eval(id int, node *dag.Node, ins []*tensor.Tensor, preds []int, st *execState) (*tensor.Tensor, error) {
	switch l := node.Layer.(type) {
	case *nn.Conv2D:
		if m.quant != nil {
			return m.qconv2d(id, l, ins[0], preds[0], node.OutShape), nil
		}
		if m.kernel == KernelDirect {
			return conv2dDirect(m.arena, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride,
				l.EffPadH(), l.EffPadW(), maxInt(l.Groups, 1), m.workers), nil
		}
		return conv2dGEMM(m.arena, m.kernel, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride,
			l.EffPadH(), l.EffPadW(), maxInt(l.Groups, 1), m.workers), nil
	case *nn.DepthwiseConv2D:
		if m.quant != nil {
			return m.qdwconv2d(id, l, ins[0], preds[0], node.OutShape), nil
		}
		if m.kernel == KernelDirect {
			return dwconv2dDirect(m.arena, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride, l.Pad, m.workers), nil
		}
		return dwconv2dSplit(m.arena, ins[0], node.OutShape, m.params[id], l.KH, l.KW, l.Stride, l.Pad, m.workers), nil
	case *nn.MaxPool2D:
		return maxpool(m.arena, ins[0], node.OutShape, l.K, l.Stride, l.Pad, m.workers), nil
	case *nn.AvgPool2D:
		return avgpool(m.arena, ins[0], node.OutShape, l.K, l.Stride, l.Pad, m.workers), nil
	case *nn.GlobalAvgPool2D:
		return globalAvgPool(m.arena, ins[0]), nil
	case *nn.Dense:
		if m.quant != nil {
			return m.qdense(id, l, ins[0], preds[0]), nil
		}
		if m.kernel == KernelDirect {
			return denseDirect(m.arena, ins[0], m.params[id], l.Out), nil
		}
		return denseGEMM(m.arena, ins[0], m.params[id], l.Out, m.workers), nil
	case *nn.Activation:
		return activate(m.arena, ins[0], l.Func, st.canOverwrite(preds[0])), nil
	case *nn.BatchNorm:
		if m.quant != nil && m.quant.folded[id] {
			return ins[0], nil // absorbed into the producing conv's epilogue
		}
		return batchNorm(m.arena, ins[0], m.params[id], 1), nil
	case *nn.LRN:
		return lrn(m.arena, ins[0], l.Size), nil
	case *nn.Dropout:
		return ins[0], nil // identity at inference
	case *nn.Flatten:
		return ins[0].Flatten(), nil
	case *nn.Concat:
		return concat(m.arena, ins, node.OutShape), nil
	case *nn.Add:
		return add(m.arena, ins, st.canOverwrite(preds[0])), nil
	case *nn.Softmax:
		return softmax(m.arena, ins[0]), nil
	default:
		return nil, fmt.Errorf("engine: unsupported layer type %T (%s)", node.Layer, node.Layer.Name())
	}
}

// Argmax returns the index of the largest element — the predicted
// class of a classifier head.
func Argmax(t *tensor.Tensor) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range t.Data {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
