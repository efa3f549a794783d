package core

import (
	"fmt"
	"reflect"
	"testing"

	"dnnjps/internal/dag"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/nn"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func devices() (profile.Device, profile.Device) {
	return profile.RaspberryPi4(), profile.CloudGPU()
}

// smallGeneral builds a 2-branch diamond whose branches have different
// weights, exercising per-path cuts.
func smallGeneral(t *testing.T) *dag.Graph {
	t.Helper()
	g := dag.New("diamond")
	in := g.Add(&nn.Input{LayerName: "input", Shape: tensor.NewCHW(3, 64, 64)})
	a1 := g.Add(&nn.Conv2D{LayerName: "a1", OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, in)
	a2 := g.Add(nn.NewMaxPool2D("a2", 2, 2, 0), a1)
	b1 := g.Add(&nn.Conv2D{LayerName: "b1", OutC: 16, KH: 5, KW: 5, Stride: 2, Pad: 2}, in)
	j := g.Add(&nn.Add{LayerName: "join"}, a2, b1)
	g.Add(&nn.GlobalAvgPool2D{LayerName: "gap"}, j)
	if err := g.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return g
}

func TestConvertToPathsSmall(t *testing.T) {
	g := smallGeneral(t)
	paths, err := convertToPaths(g, 0)
	if err != nil {
		t.Fatalf("convertToPaths: %v", err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	assertPathsCoverGraph(t, g, paths)
}

func TestConvertToPathsHierarchical(t *testing.T) {
	g := models.MustBuild("googlenet") // 4^9 full paths: must go hierarchical
	paths, err := convertToPaths(g, 64)
	if err != nil {
		t.Fatalf("convertToPaths: %v", err)
	}
	if len(paths) != 4 {
		t.Fatalf("hierarchical conversion of GoogLeNet: %d paths, want 4 (max branch width)", len(paths))
	}
	assertPathsCoverGraph(t, g, paths)
	// Paths must be internally topo-ordered.
	pos := make(map[int]int)
	for i, id := range g.Topo() {
		pos[id] = i
	}
	for pi, p := range paths {
		for i := 1; i < len(p); i++ {
			if pos[p[i]] <= pos[p[i-1]] {
				t.Fatalf("path %d not topo-ordered at %d", pi, i)
			}
		}
	}
}

func assertPathsCoverGraph(t *testing.T, g *dag.Graph, paths [][]int) {
	t.Helper()
	covered := make(map[int]bool)
	for _, p := range paths {
		if len(p) == 0 {
			t.Fatal("empty path")
		}
		if p[0] != g.Source() || p[len(p)-1] != g.Sink() {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		for _, id := range p {
			covered[id] = true
		}
	}
	for _, id := range g.Topo() {
		if !covered[id] {
			t.Errorf("node %q not covered by any path", g.Node(id).Layer.Name())
		}
	}
}

func TestPlanGeneralDiamond(t *testing.T) {
	g := smallGeneral(t)
	pi, gpu := devices()
	n := 4
	p, err := PlanGeneral(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	if len(p.Sequence) != n*len(p.Paths) {
		t.Errorf("sequence has %d path jobs, want %d", len(p.Sequence), n*len(p.Paths))
	}
	if len(p.CutNodes) != n {
		t.Errorf("cut sets for %d jobs, want %d", len(p.CutNodes), n)
	}
	for j, cuts := range p.CutNodes {
		if len(cuts) != len(p.Paths) {
			t.Errorf("job %d has %d cut nodes, want one per path", j, len(cuts))
		}
	}
	// Dedup: actual stage lengths never exceed nominal.
	for _, pj := range p.Sequence {
		if pj.ActualF > pj.F+1e-9 || pj.ActualG > pj.G+1e-9 {
			t.Errorf("dedup increased a stage: %+v", pj)
		}
	}
	if p.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if p.AvgMs() != p.Makespan/float64(n) {
		t.Error("AvgMs mismatch")
	}
}

func TestPlanGeneralDedupSharedPrefix(t *testing.T) {
	// For one job, the shared prefix (the input node costs 0, but the
	// shared articulation chain in GoogLeNet's stem is expensive) must
	// be charged only once across that job's paths.
	g := models.MustBuild("googlenet")
	pi, gpu := devices()
	p, err := PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, 1, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	var actualF, actualG, nominalF, nominalG float64
	for _, pj := range p.Sequence {
		actualF += pj.ActualF
		actualG += pj.ActualG
		nominalF += pj.F
		nominalG += pj.G
	}
	// A single job can never compute more than the whole model once.
	if whole := pi.TotalTimeMs(g); actualF > whole+1e-6 {
		t.Errorf("job executed %g ms of compute, model total is %g", actualF, whole)
	}
	// Duplicated nominal totals must exceed the deduplicated actuals:
	// the four converted paths share at least the stem prefix (compute
	// side) or the same cut tensor (upload side), depending on where
	// the cuts land.
	if nominalF+nominalG <= actualF+actualG {
		t.Errorf("expected duplicated nominal work (%g) to exceed deduplicated actual (%g)",
			nominalF+nominalG, actualF+actualG)
	}
}

func TestPlanGeneralBestBeatsNaiveBaselines(t *testing.T) {
	g := models.MustBuild("googlenet")
	pi, gpu := devices()
	n := 20
	for _, ch := range netsim.Presets() {
		gp, err := PlanGeneralBest(g, pi, gpu, ch, tensor.Float32, n, 0)
		if err != nil {
			t.Fatalf("PlanGeneralBest@%s: %v", ch.Name, err)
		}
		curve := profile.BuildCurve(g, pi, gpu, ch, tensor.Float32)
		lo, _ := LO(curve, n)
		co, _ := CO(curve, n)
		if gp.Makespan > lo.Makespan+1e-6 {
			t.Errorf("%s: general-best JPS %g > LO %g", ch.Name, gp.Makespan, lo.Makespan)
		}
		if gp.Makespan > co.Makespan+1e-6 {
			t.Errorf("%s: general-best JPS %g > CO %g", ch.Name, gp.Makespan, co.Makespan)
		}
	}
	// And strictly better than LO somewhere (Wi-Fi at least): the
	// paper's GoogLeNet rows show large reductions.
	gpWifi, _ := PlanGeneralBest(g, pi, gpu, netsim.WiFi, tensor.Float32, n, 0)
	curve := profile.BuildCurve(g, pi, gpu, netsim.WiFi, tensor.Float32)
	lo, _ := LO(curve, n)
	if gpWifi.Makespan >= lo.Makespan {
		t.Errorf("general-best JPS %g shows no Wi-Fi gain over LO %g", gpWifi.Makespan, lo.Makespan)
	}
}

func TestPlanGeneralPureAlg3CaveatAt4G(t *testing.T) {
	// The paper's own caveat: per-path partitioning "omits the
	// potential collaboration opportunity" between paths. On GoogLeNet
	// at 4G, pure Alg. 3 pays one upload per path and loses to LO —
	// PlanGeneralBest exists precisely to absorb this case. Keep the
	// observation pinned so a regression in either direction is
	// noticed.
	g := models.MustBuild("googlenet")
	pi, gpu := devices()
	n := 20
	pure, err := PlanGeneral(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	best, err := PlanGeneralBest(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneralBest: %v", err)
	}
	if best.Makespan > pure.Makespan+1e-6 {
		t.Errorf("best (%g) must never exceed pure Alg. 3 (%g)", best.Makespan, pure.Makespan)
	}
}

func TestPlanGeneralRejectsBadN(t *testing.T) {
	g := smallGeneral(t)
	pi, gpu := devices()
	if _, err := PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, 0, 0); err == nil {
		t.Error("n=0 must error")
	}
}

func TestPlanGeneralOnLineGraphMatchesLineJPS(t *testing.T) {
	// A line DNN has exactly one path; Alg. 3 must degenerate to the
	// line planner's two-point solution space.
	g := models.MustBuild("alexnet")
	pi, gpu := devices()
	n := 8
	gp, err := PlanGeneral(g, pi, gpu, netsim.FourG, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	if len(gp.Paths) != 1 {
		t.Fatalf("AlexNet converted to %d paths, want 1", len(gp.Paths))
	}
	curve := profile.BuildCurve(g, pi, gpu, netsim.FourG, tensor.Float32)
	jps, _ := JPS(curve, n)
	if diff := gp.Makespan - jps.Makespan; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("general plan %g != line JPS %g on a line DNN", gp.Makespan, jps.Makespan)
	}
}

func TestPlanGeneralInceptionV4(t *testing.T) {
	g := models.MustBuild("inceptionv4")
	pi, gpu := devices()
	n := 10
	gp, err := PlanGeneralBest(g, pi, gpu, netsim.WiFi, tensor.Float32, n, 0)
	if err != nil {
		t.Fatalf("PlanGeneralBest: %v", err)
	}
	curve := profile.BuildCurve(g, pi, gpu, netsim.WiFi, tensor.Float32)
	lo, _ := LO(curve, n)
	if gp.Makespan >= lo.Makespan {
		t.Errorf("inception-v4 general plan %g shows no Wi-Fi gain over LO %g", gp.Makespan, lo.Makespan)
	}
	// The hierarchical conversion must cover nested Inception-C
	// branch splits (6-way regions).
	pure, err := PlanGeneral(g, pi, gpu, netsim.WiFi, tensor.Float32, 2, 0)
	if err != nil {
		t.Fatalf("PlanGeneral: %v", err)
	}
	if len(pure.Paths) < 4 {
		t.Errorf("converted to %d paths, want >= 4 (widest region is 6-way)", len(pure.Paths))
	}
	assertPathsCoverGraph(t, g, pure.Paths)
}

// refPlanGeneral is PlanGeneral before per-call node pricing and the
// flat dedup buffer, kept verbatim as the parity reference.
//
// PlanGeneral is Algorithm 3: convert the DAG to independent paths,
// find each path's cut with Algorithm 2 (mixing the two adjacent
// candidates across jobs at the Theorem 5.3 ratio), then schedule all
// n×|Paths| path jobs with Johnson's rule, counting duplicated nodes
// once when executed.
func refPlanGeneral(g *dag.Graph, mobile, cloud profile.Device, ch netsim.Channel, dt tensor.DType, n, pathLimit int) (*GeneralPlan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: PlanGeneral needs n >= 1, got %d", n)
	}
	paths, err := convertToPaths(g, pathLimit)
	if err != nil {
		return nil, err
	}

	// Per-path Algorithm 2 on the path's own Pareto-restricted curve.
	type pathPlan struct {
		curve  *profile.Curve // restricted
		idx    []int          // restricted -> path position
		search CutSearch
	}
	plans := make([]pathPlan, len(paths))
	for pi, path := range paths {
		full := profile.PathCurve(g, path, mobile, cloud, ch, dt)
		r, idx := full.Restrict(full.ParetoCuts())
		search, err := BinarySearchCut(r)
		if err != nil {
			return nil, fmt.Errorf("core: path %d: %w", pi, err)
		}
		plans[pi] = pathPlan{curve: r, idx: idx, search: search}
	}

	// evaluate builds and replays the joint schedule for a given
	// "jobs cut at l*-1" count per path.
	evaluate := func(splits []int) *GeneralPlan {
		var jobs []PathJob
		cutNodes := make([][]int, n)
		for j := 0; j < n; j++ {
			cutNodes[j] = make([]int, len(paths))
		}
		for pi := range paths {
			pp := plans[pi]
			for j := 0; j < n; j++ {
				pos := pp.search.LStar
				if !pp.search.Exact && pp.search.LStar > 0 && j < splits[pi] {
					pos = pp.search.LStar - 1
				}
				cutPathPos := pp.idx[pos]
				cutNodes[j][pi] = paths[pi][cutPathPos]
				jobs = append(jobs, PathJob{
					Job:  j,
					Path: pi,
					Cut:  cutPathPos,
					F:    pp.curve.F[pos],
					G:    pp.curve.G[pos],
				})
			}
		}

		// Johnson's rule over the nominal (f, g) of every path job,
		// duplicated nodes included — exactly the paper's Alg. 1 call.
		fsJobs := make([]flowshop.Job, len(jobs))
		for i, pj := range jobs {
			fsJobs[i] = flowshop.Job{ID: i, A: pj.F, B: pj.G}
		}
		order := flowshop.Johnson(fsJobs)

		// Replay the sequence with per-job deduplication: a node
		// already executed (or a tensor already uploaded) by an
		// earlier path of the same job is counted once — the paper's
		// modified Alg. 1.
		executed := make([]map[int]bool, n)
		uploaded := make([]map[int]bool, n)
		for j := 0; j < n; j++ {
			executed[j] = make(map[int]bool)
			uploaded[j] = make(map[int]bool)
		}
		seq := make([]PathJob, 0, len(order))
		actual := make([]flowshop.Job, 0, len(order))
		for _, fj := range order {
			pj := jobs[fj.ID]
			path := paths[pj.Path]
			var a float64
			for _, id := range path[:pj.Cut+1] {
				if !executed[pj.Job][id] {
					executed[pj.Job][id] = true
					a += mobile.LayerTimeMs(g, id)
				}
			}
			var b float64
			cutNode := path[pj.Cut]
			if pj.Cut < len(path)-1 && !uploaded[pj.Job][cutNode] {
				uploaded[pj.Job][cutNode] = true
				b = ch.TxMs(g.OutBytes(cutNode, dt))
			}
			pj.ActualF, pj.ActualG = a, b
			seq = append(seq, pj)
			actual = append(actual, flowshop.Job{ID: fj.ID, A: a, B: b})
		}

		return &GeneralPlan{
			Method:   "JPS-general",
			Paths:    paths,
			Sequence: seq,
			Makespan: flowshop.Makespan(actual),
			CutNodes: cutNodes,
		}
	}

	// Coordinate descent over the two balanced-split candidates of
	// each path (one pass): for a single path this is exactly the line
	// planner's two-candidate evaluation.
	splits := make([]int, len(paths))
	alts := make([]int, len(paths))
	for pi, pp := range plans {
		if !pp.search.Exact && pp.search.LStar > 0 {
			splits[pi], alts[pi] = BalancedSplit(pp.curve, pp.search.LStar, n)
		}
	}
	best := evaluate(splits)
	for pi := range paths {
		if alts[pi] == splits[pi] {
			continue
		}
		trial := append([]int(nil), splits...)
		trial[pi] = alts[pi]
		if cand := evaluate(trial); cand.Makespan < best.Makespan {
			best = cand
			splits = trial
		}
	}
	return best, nil
}

func TestPlanGeneralMatchesReference(t *testing.T) {
	pi, gpu := devices()
	type leg struct {
		g     *dag.Graph
		limit int
		mbps  []float64
		ns    []int
	}
	allMbps := []float64{0.5, 1, 2, 5, 10, 20, 50}
	allNs := []int{1, 2, 3, 7, 16, 33, 64, 128}
	// The diamond has 2 paths, so pathLimit 0 converts it with the
	// full all-paths expansion.
	legs := []leg{{smallGeneral(t), 0, allMbps, allNs}}
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		if g.IsLine() {
			continue
		}
		// Every zoo DAG has more paths than the default limit (64), so
		// pathLimit 0 takes the hierarchical conversion.
		legs = append(legs, leg{g, 0, allMbps, allNs})
		// A limit equal to the path count forces the all-paths
		// expansion. At 256 paths every evaluation replays 256·n path
		// jobs (the reference takes seconds per call at n=128), so
		// this leg keeps to small batches.
		if c := g.CountPaths(); c <= 256 {
			legs = append(legs, leg{g, c, []float64{0.5, 5, 50}, []int{1, 2, 3, 7}})
		}
	}
	for _, l := range legs {
		for _, mbps := range l.mbps {
			ch := netsim.At(mbps)
			for _, n := range l.ns {
				got, err := PlanGeneral(l.g, pi, gpu, ch, tensor.Float32, n, l.limit)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refPlanGeneral(l.g, pi, gpu, ch, tensor.Float32, n, l.limit)
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s @%g Mb/s n=%d limit=%d (%d paths)", l.g.Name(), mbps, n, l.limit, len(want.Paths))
				if got.Makespan != want.Makespan {
					t.Fatalf("%s: makespan %v, reference %v", at, got.Makespan, want.Makespan)
				}
				if got.Method != want.Method ||
					!reflect.DeepEqual(got.Sequence, want.Sequence) ||
					!reflect.DeepEqual(got.CutNodes, want.CutNodes) ||
					!reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatalf("%s: plan differs from the reference", at)
				}
			}
		}
	}
}

func TestPlanGeneralAllocs(t *testing.T) {
	g := models.MustBuild("inceptionv4")
	pi, gpu := devices()
	ch := netsim.At(5)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := PlanGeneral(g, pi, gpu, ch, tensor.Float32, 128, 0); err != nil {
			t.Fatal(err)
		}
	})
	// The conversion and the per-path curves allocate per region and
	// per path (542 allocations in all); the replay allocates per
	// evaluation, never per path job. Per-job dedup maps made ~44 000.
	if allocs > 600 {
		t.Errorf("PlanGeneral(inceptionv4, n=128) made %.0f allocations, want <= 600", allocs)
	}
}

// BenchmarkPlanGeneralBest times a full general-structure planning
// request at the largest batch the plan benchmark draws.
func BenchmarkPlanGeneralBest(b *testing.B) {
	pi, gpu := devices()
	for _, name := range models.Names() {
		g := models.MustBuild(name)
		if g.IsLine() {
			continue
		}
		b.Run(name+"/n=128", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PlanGeneralBest(g, pi, gpu, netsim.At(5), tensor.Float32, 128, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
