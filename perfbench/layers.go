package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dnnjps/internal/engine"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

// engineReps is how many times the per-node pass repeats each cut;
// every reported quantity is the median over the repetitions.
const engineReps = 5

// kindBuckets are the engine.<kind>_ms metrics; layer kinds outside
// them fall into "other".
var kindBuckets = []string{"conv", "dwconv", "dense", "bn", "act", "pool", "other"}

func kindBucket(kind string) string {
	switch kind {
	case "conv", "dwconv", "dense", "bn", "act":
		return kind
	case "maxpool", "avgpool", "gavgpool":
		return "pool"
	}
	return "other"
}

// cutPass is one job at one cut timed two ways: the prefix and the
// suffix each as one Model.Execute (the path the runtime serves), and
// node by node (the path per-layer profiling uses).
type cutPass struct {
	kindMs  map[string]float64 // node-by-node time per kind bucket
	flops   float64            // FLOPs of every executed node
	nodeSum [2]float64         // node-by-node ms over prefix, suffix
	whole   [2]float64         // one-Execute ms over prefix, suffix
	class   int                // node-by-node output class
}

func splitNodes(units []profile.Unit, cut int) (prefix, suffix []int) {
	for i, u := range units {
		if i <= cut {
			prefix = append(prefix, u.Nodes...)
		} else {
			suffix = append(suffix, u.Nodes...)
		}
	}
	return prefix, suffix
}

func passCut(m *engine.Model, units []profile.Unit, cut int, input *tensor.Tensor, tr *tracer) (*cutPass, error) {
	g := m.Graph()
	prefix, suffix := splitNodes(units, cut)
	p := &cutPass{kindMs: map[string]float64{}}

	acts := map[int]*tensor.Tensor{}
	for half, nodes := range [][]int{prefix, suffix} {
		sp := tr.begin("engine.Model.Execute", -1, -1)
		start := time.Now()
		if err := m.Execute(acts, input, nodes); err != nil {
			return nil, fmt.Errorf("execute cut %d: %w", cut, err)
		}
		p.whole[half] = ms(time.Since(start))
		tr.end(sp)
	}

	acts = map[int]*tensor.Tensor{}
	for half, nodes := range [][]int{prefix, suffix} {
		for _, id := range nodes {
			sp := tr.begin("engine.Model.Execute(node)", -1, -1)
			start := time.Now()
			if err := m.Execute(acts, input, []int{id}); err != nil {
				return nil, fmt.Errorf("execute node %d: %w", id, err)
			}
			d := ms(time.Since(start))
			tr.end(sp)
			p.nodeSum[half] += d
			p.kindMs[kindBucket(g.Node(id).Layer.Kind().String())] += d
			p.flops += g.NodeFLOPs(id)
		}
	}
	p.class = engine.Argmax(acts[g.Sink()])
	return p, nil
}

// medianPass repeats passCut after one warm-up pass and keeps the
// median of each quantity.
func medianPass(m *engine.Model, units []profile.Unit, cut int, input *tensor.Tensor, tr *tracer) (*cutPass, error) {
	if _, err := passCut(m, units, cut, input, nil); err != nil {
		return nil, err
	}
	var runs []*cutPass
	for r := 0; r < engineReps; r++ {
		p, err := passCut(m, units, cut, input, tr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, p)
	}
	pick := func(f func(*cutPass) float64) float64 {
		xs := make([]float64, len(runs))
		for i, p := range runs {
			xs[i] = f(p)
		}
		return median(xs)
	}
	out := &cutPass{kindMs: map[string]float64{}, flops: runs[0].flops, class: runs[0].class}
	for _, k := range kindBuckets {
		out.kindMs[k] = pick(func(p *cutPass) float64 { return p.kindMs[k] })
	}
	for h := 0; h < 2; h++ {
		out.nodeSum[h] = pick(func(p *cutPass) float64 { return p.nodeSum[h] })
		out.whole[h] = pick(func(p *cutPass) float64 { return p.whole[h] })
	}
	for _, p := range runs {
		if p.class != out.class {
			return nil, fmt.Errorf("cut %d: node-by-node class differs across repetitions", cut)
		}
	}
	return out, nil
}

// engineLayers fills the engine.<kind>_ms and engine.gflops metrics
// per job over the workload's cut mix (cut -> jobs at that cut), checks
// that node-by-node execution gives the reference class, and prints
// the gap between the node-by-node sums and one Execute per half.
func engineLayers(m *engine.Model, units []profile.Unit, mix map[int]int, input *tensor.Tensor, refClass int,
	tr *tracer, out map[string]float64, w io.Writer) error {
	cuts := make([]int, 0, len(mix))
	jobs := 0
	for c, k := range mix {
		cuts = append(cuts, c)
		jobs += k
	}
	if jobs == 0 {
		return fmt.Errorf("empty cut mix")
	}
	sort.Ints(cuts)
	var flops, engMs float64
	fmt.Fprintf(w, "engine reconciliation (median of %d per-node passes; gap = node-by-node sum / one Execute - 1):\n", engineReps)
	for _, c := range cuts {
		p, err := medianPass(m, units, c, input, tr)
		if err != nil {
			return err
		}
		if p.class != refClass {
			return fmt.Errorf("cut %d: node-by-node class %d, reference %d", c, p.class, refClass)
		}
		wgt := float64(mix[c]) / float64(jobs)
		for _, k := range kindBuckets {
			out["engine."+k+"_ms"] += wgt * p.kindMs[k]
			engMs += wgt * p.kindMs[k]
		}
		flops += wgt * p.flops
		for h, name := range []string{"prefix", "suffix"} {
			gap := 0.0
			if p.whole[h] > 0 {
				gap = p.nodeSum[h]/p.whole[h] - 1
			}
			fmt.Fprintf(w, "  cut %-3d %s: node-by-node %9.3f ms, one Execute %9.3f ms, gap %+.1f%%\n",
				c, name, p.nodeSum[h], p.whole[h], 100*gap)
		}
	}
	if engMs > 0 {
		out["engine.gflops"] = flops / (engMs * 1e6)
	}
	return nil
}
