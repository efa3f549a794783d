package dag_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/models"
	"dnnjps/internal/nn"
	"dnnjps/internal/tensor"
)

// refArticulations is the removal check Articulations replaced, kept
// as the reference: a node other than source/sink lies on every
// source→sink path iff removing it disconnects the sink.
func refArticulations(g *dag.Graph) []int {
	src, sink := g.Source(), g.Sink()
	var arts []int
	for _, v := range g.Topo() {
		if v == src || v == sink {
			arts = append(arts, v)
			continue
		}
		if !refReachableAvoiding(g, src, sink, v) {
			arts = append(arts, v)
		}
	}
	return arts
}

// refReachableAvoiding reports whether 'to' is reachable from 'from'
// without visiting 'avoid'.
func refReachableAvoiding(g *dag.Graph, from, to, avoid int) bool {
	if from == avoid || to == avoid {
		return false
	}
	seen := make([]bool, g.Len())
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		for _, s := range g.Succs(v) {
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// randomDAG builds a random single-source/single-sink graph that is
// not necessarily series-parallel: each node draws 1-3 distinct
// predecessors, mostly recent ones but sometimes far back (skip
// edges); nodes with several predecessors are multi-input Add joins.
// Every dangling node is joined into one final Add before the sink.
func randomDAG(t *testing.T, rng *rand.Rand) *dag.Graph {
	t.Helper()
	g := dag.New("randdag")
	ids := []int{g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(2, 2, 2)})}
	size := 2 + rng.Intn(30)
	for v := 1; v < size; v++ {
		k := 1 + rng.Intn(3)
		picked := map[int]bool{}
		var preds []int
		for len(preds) < k && len(preds) < len(ids) {
			var p int
			if rng.Intn(4) == 0 {
				p = ids[rng.Intn(len(ids))] // skip edge from anywhere
			} else {
				p = ids[max(0, len(ids)-1-rng.Intn(3))]
			}
			if !picked[p] {
				picked[p] = true
				preds = append(preds, p)
			}
		}
		name := fmt.Sprintf("n%d", v)
		if len(preds) == 1 {
			ids = append(ids, g.Add(nn.NewActivation(name, nn.ReLU), preds...))
		} else {
			ids = append(ids, g.Add(&nn.Add{LayerName: name}, preds...))
		}
	}
	var dangling []int
	for _, id := range ids {
		if len(g.Succs(id)) == 0 {
			dangling = append(dangling, id)
		}
	}
	last := dangling[0]
	if len(dangling) > 1 {
		last = g.Add(&nn.Add{LayerName: "join"}, dangling...)
	}
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, last)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestArticulationsMatchRemovalCheck(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		if got, want := g.Articulations(), refArticulations(g); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: articulations %v, removal check %v", name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(13))
	var nonTrivial int
	for trial := 0; trial < 3000; trial++ {
		g := randomDAG(t, rng)
		got, want := g.Articulations(), refArticulations(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d nodes): articulations %v, removal check %v", trial, g.Len(), got, want)
		}
		if len(want) > 2 && len(want) < g.Len() {
			nonTrivial++
		}
	}
	// The generator must exercise graphs with both articulation and
	// bypassed interior nodes, not only lines or one big region.
	if nonTrivial < 300 {
		t.Errorf("only %d of 3000 random graphs mix articulation and bypassed nodes", nonTrivial)
	}
}

func TestNodeFLOPsCached(t *testing.T) {
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		for _, id := range g.Topo() {
			want := g.Node(id).Layer.FLOPs(g.InputShapes(id))
			if got := g.NodeFLOPs(id); got != want {
				t.Errorf("%s node %q: cached FLOPs %g, layer reports %g",
					name, g.Node(id).Layer.Name(), got, want)
			}
		}
	}
}
