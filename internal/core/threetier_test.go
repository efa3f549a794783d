package core

import (
	"reflect"
	"testing"

	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/tensor"
)

func threeTierEnv() ThreeTierEnv {
	pi, gpu := devices()
	return ThreeTierEnv{
		Mobile: pi,
		Edge:   gpu.Scaled(0.25), // edge box: weaker than the cloud
		Cloud:  gpu,
		// Wireless 4G uplink to the edge; fast wired backhaul onward.
		Uplink:   netsim.FourG,
		Backhaul: netsim.Channel{Name: "backhaul", UplinkMbps: 100, SetupMs: 3},
		DType:    tensor.Float32,
	}
}

func TestJPSThreeTierBasics(t *testing.T) {
	g := models.MustBuild("alexnet")
	env := threeTierEnv()
	n := 20
	p, err := JPSThreeTier(g, env, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.CutsLow) != n || len(p.CutsHigh) != n || len(p.Sequence) != n {
		t.Fatalf("plan sizes wrong: %d/%d/%d", len(p.CutsLow), len(p.CutsHigh), len(p.Sequence))
	}
	for i := range p.CutsLow {
		if p.CutsLow[i] > p.CutsHigh[i] {
			t.Errorf("job %d: lo %d > hi %d", i, p.CutsLow[i], p.CutsHigh[i])
		}
	}
	if p.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	if p.AvgMs() != p.Makespan/float64(n) {
		t.Error("AvgMs mismatch")
	}
	if got := flowshop.Makespan3(p.Sequence); got != p.Makespan {
		t.Errorf("stored makespan %g != recomputed %g", p.Makespan, got)
	}
}

func TestThreeTierBeatsTwoTierWithSlowUplink(t *testing.T) {
	// The three-tier win: the second hop is cheap, so pushing the
	// split earlier (smaller mobile compute) while the edge absorbs
	// the middle layers beats hauling the cut tensor all the way at
	// two-tier cost. With a slow uplink and a fast backhaul the
	// three-tier plan must never lose.
	env := threeTierEnv()
	for _, model := range []string{"alexnet", "resnet18", "mobilenetv2"} {
		g := models.MustBuild(model)
		three, err := JPSThreeTier(g, env, 20)
		if err != nil {
			t.Fatal(err)
		}
		two, err := TwoTierAsThreeTier(g, env, 20)
		if err != nil {
			t.Fatal(err)
		}
		if three.Makespan > two.Makespan*1.001 {
			t.Errorf("%s: three-tier %.1f worse than two-tier %.1f",
				model, three.Makespan, two.Makespan)
		}
	}
}

func TestThreeTierEdgeComputeIsBounded(t *testing.T) {
	// The plan does not schedule edge compute; verify it is indeed
	// negligible relative to the scheduled stages for the chosen cuts.
	g := models.MustBuild("alexnet")
	env := threeTierEnv()
	p, err := JPSThreeTier(g, env, 8)
	if err != nil {
		t.Fatal(err)
	}
	edgeCurve := profile.BuildCurve(g, env.Edge, env.Cloud, env.Backhaul, env.DType)
	for i := range p.CutsLow {
		edgeMs := edgeCurve.F[p.CutsHigh[i]] - edgeCurve.F[p.CutsLow[i]]
		if edgeMs > p.AvgMs() {
			t.Errorf("job %d: edge compute %.2fms not negligible vs avg %.2fms",
				i, edgeMs, p.AvgMs())
		}
	}
}

func TestThreeTierRejectsBadN(t *testing.T) {
	g := models.MustBuild("alexnet")
	if _, err := JPSThreeTier(g, threeTierEnv(), 0); err == nil {
		t.Error("n=0 must error")
	}
	if _, err := TwoTierAsThreeTier(g, threeTierEnv(), 0); err == nil {
		t.Error("n=0 must error")
	}
}

func TestThreeTierLocalOnlyDegenerate(t *testing.T) {
	// With a hopeless uplink, both planners collapse to local-only
	// (lo = hi = last position, no transfers).
	env := threeTierEnv()
	env.Uplink = netsim.Channel{Name: "awful", UplinkMbps: 0.001, SetupMs: 5000}
	g := models.MustBuild("resnet18")
	p, err := JPSThreeTier(g, env, 5)
	if err != nil {
		t.Fatal(err)
	}
	curve := profile.BuildCurve(g, env.Mobile, env.Cloud, env.Uplink, env.DType)
	wantLocal := 5 * curve.TotalMobileMs()
	if p.Makespan > wantLocal*1.01 {
		t.Errorf("three-tier %.0f should degrade to local-only %.0f", p.Makespan, wantLocal)
	}
}

// The mix splits skip repeated runner-up counts (small n) but keep
// every distinct one in order.
func TestMixSplitsDistinct(t *testing.T) {
	for n, want := range map[int][]int{
		1: {1}, 2: {1, 2}, 3: {1, 2, 3}, 4: {1, 2, 3, 4}, 8: {2, 4, 6, 8}, 10: {2, 5, 7, 10},
	} {
		if got := mixSplits(n); !reflect.DeepEqual(got, want) {
			t.Errorf("mixSplits(%d) = %v, want %v", n, got, want)
		}
	}
}
