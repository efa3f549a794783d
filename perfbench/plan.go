package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/sim"
	"dnnjps/internal/tensor"
)

// relTol is how closely every planner makespan must match its
// discrete-event replay and, for line plans, Prop 4.1.
const relTol = 1e-9

// plan is CPU-only planning traffic over the model zoo: no engine, no
// network.
type plan struct {
	cfg    planConfig
	graphs []*dag.Graph
	mobile profile.Device
	cloud  profile.Device
	rng    *rand.Rand
	queue  []request
	// blockOffset is the seeded rotation of the first block; blocks
	// counts the blocks drawn so far.
	blockOffset, blocks int
	ops                 int

	// Traced-phase call times, µs per call.
	curveUs, jpsUs, generalUs, chainUs, simUs []float64
}

func newPlan(cfg *config, seed int64, tr *tracer) (workload, error) {
	c := cfg.Workloads.Plan
	p := &plan{cfg: c, mobile: profile.RaspberryPi4(), cloud: profile.CloudGPU(), rng: rand.New(rand.NewSource(seed))}
	p.blockOffset = p.rng.Intn(1 << 20)
	for _, name := range c.Models {
		sp := tr.begin("models.Build", -1, -1)
		g, err := models.Build(name)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		p.graphs = append(p.graphs, g)
	}
	return p, nil
}

func (p *plan) close() {}

// request is one seeded planning request.
type request struct {
	g     *dag.Graph
	mbps  float64
	n     int
	chain bool
}

// draw returns the next request. Requests come in shuffled blocks
// that hold every model the same number of times, one chain request
// per model, and n and bandwidth stratified over their ranges. The
// strata rotate from block to block, so over a run every model meets
// every n stratum and the seed only picks the starting rotation, the
// values inside each stratum and the order. Request costs span three
// orders of magnitude (a JPSChain at n=128 costs as much as a hundred
// plain requests), so with independent draws each seed's median,
// tail and throughput would depend on the mix it happened to get.
func (p *plan) draw() request {
	if len(p.queue) == 0 {
		p.queue = p.block(p.blockOffset + p.blocks)
		p.blocks++
	}
	r := p.queue[0]
	p.queue = p.queue[1:]
	return r
}

func (p *plan) block(rot int) []request {
	c := p.cfg
	perModel := int(math.Round(1 / c.ChainShare))
	models := len(p.graphs)
	plain := models * (perModel - 1)
	size := models * perModel
	// pick draws a value from stratum k mod K over [lo, hi).
	pick := func(k, K int, lo, hi float64) float64 {
		return lo + (float64(k%K)+p.rng.Float64())/float64(K)*(hi-lo)
	}
	reqs := make([]request, 0, size)
	for i, g := range p.graphs {
		for j := 0; j < perModel; j++ {
			r := request{g: g, mbps: pick(len(reqs)+7*rot, size, c.MbpsMin, c.MbpsMax)}
			if j == 0 {
				r.chain = true
				r.n = int(pick(i+rot, models, float64(c.NMin), float64(c.NMax+1)))
			} else {
				r.n = int(pick(i*(perModel-1)+j-1+rot, plain, float64(c.NMin), float64(c.NMax+1)))
			}
			reqs = append(reqs, r)
		}
	}
	p.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// threeTier is the depth-2 chain of chain requests: the device, an
// edge box behind the uplink, and the cloud behind a WAN backhaul.
func (p *plan) threeTier(uplink netsim.Channel) core.Chain {
	c := p.cfg
	return core.Chain{
		Devices: []profile.Device{p.mobile, p.cloud.Scaled(c.ChainEdgeScale), p.cloud},
		Links: []netsim.Channel{uplink, {Name: "wan-backhaul",
			UplinkMbps: uplink.UplinkMbps * c.ChainBackhaulShare, SetupMs: c.ChainBackhaulSetupMs}},
		DType: tensor.Float32,
	}
}

func (p *plan) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{mem0: readMem()}
	start := time.Now()
	for time.Since(start) < d {
		op := p.ops
		p.ops++
		req := p.draw()
		t0 := time.Now()
		err := p.serveRequest(req, op, tr)
		lat := ms(time.Since(t0))
		ph.attempted++
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "plan op %d (%s, %.2f Mb/s, n=%d): %v\n", op, req.g.Name(), req.mbps, req.n, err)
			continue
		}
		ph.lat = append(ph.lat, lat)
		ph.jobs++
		if lat <= p.cfg.LatencyLimitMs {
			ph.inLimit++
		}
	}
	ph.elapsed = time.Since(start)
	ph.mem1 = readMem()
	return ph, nil
}

// timed runs f inside a span and, when traced, appends its duration
// in µs to *acc.
func timed(tr *tracer, name string, parent, op int, acc *[]float64, f func() error) error {
	sp := tr.begin(name, parent, op)
	start := time.Now()
	err := f()
	if tr != nil {
		*acc = append(*acc, float64(time.Since(start).Nanoseconds())/1e3)
	}
	tr.end(sp)
	return err
}

// serveRequest plans one request and cross-checks every plan against
// the discrete-event simulator (and line plans against Prop 4.1).
func (p *plan) serveRequest(req request, op int, tr *tracer) error {
	root := tr.begin("plan.op", -1, op)
	defer tr.end(root)
	ch := netsim.At(req.mbps)

	var curve *profile.Curve
	_ = timed(tr, "profile.BuildCurve", root, op, &p.curveUs, func() error {
		curve = profile.BuildCurve(req.g, p.mobile, p.cloud, ch, tensor.Float32)
		return nil
	})
	var jps *core.Plan
	if err := timed(tr, "core.JPS", root, op, &p.jpsUs, func() (err error) {
		jps, err = core.JPS(curve, req.n)
		return err
	}); err != nil {
		return err
	}
	var res *sim.Result
	if err := timed(tr, "sim.Run", root, op, &p.simUs, func() (err error) {
		res, err = sim.Run(sim.FromPlan(jps))
		return err
	}); err != nil {
		return err
	}
	// The simulator adds the cloud stage; the device and uplink
	// resources alone must finish exactly when the flow shop says.
	var twoStage float64
	for _, r := range []string{sim.ResMobile, sim.ResUplink} {
		for _, iv := range res.Gantt[r] {
			twoStage = math.Max(twoStage, iv.End)
		}
	}
	if err := agree("JPS vs sim", jps.Makespan, twoStage); err != nil {
		return err
	}
	if err := agree("JPS vs Prop 4.1", jps.Makespan, flowshop.FormulaMakespan(jps.Sequence)); err != nil {
		return err
	}

	if !req.g.IsLine() {
		var gp *core.GeneralPlan
		if err := timed(tr, "core.PlanGeneralBest", root, op, &p.generalUs, func() (err error) {
			gp, err = core.PlanGeneralBest(req.g, p.mobile, p.cloud, ch, tensor.Float32, req.n, p.cfg.PathLimit)
			return err
		}); err != nil {
			return err
		}
		if err := timed(tr, "sim.Run", root, op, &p.simUs, func() (err error) {
			res, err = sim.Run(sim.FromGeneralPlan(gp))
			return err
		}); err != nil {
			return err
		}
		if err := agree("general plan vs sim", gp.Makespan, res.Makespan); err != nil {
			return err
		}
	}

	if req.chain {
		var cp *core.ChainPlan
		if err := timed(tr, "core.JPSChain", root, op, &p.chainUs, func() (err error) {
			cp, err = core.JPSChain(req.g, p.threeTier(ch), req.n)
			return err
		}); err != nil {
			return err
		}
		if err := timed(tr, "sim.Run", root, op, &p.simUs, func() (err error) {
			res, err = sim.Run(sim.FromChainPlan(cp))
			return err
		}); err != nil {
			return err
		}
		if err := agree("chain plan vs sim", cp.Makespan, res.Makespan); err != nil {
			return err
		}
	}
	return nil
}

// agree reports a relative mismatch beyond relTol.
func agree(what string, want, got float64) error {
	if math.Abs(want-got) > relTol*math.Max(math.Abs(want), 1) {
		return fmt.Errorf("%s: makespan %.12g, check %.12g", what, want, got)
	}
	return nil
}

func (p *plan) layers(ph *phase, tr *tracer, m map[string]float64, w io.Writer) error {
	m["profile.curve_us"] = mean(p.curveUs)
	m["core.jps_us"] = mean(p.jpsUs)
	m["core.general_us"] = mean(p.generalUs)
	m["core.chain_us"] = mean(p.chainUs)
	m["sim.run_us"] = mean(p.simUs)
	fmt.Fprintf(w, "plan: %d requests; calls: %d BuildCurve, %d JPS, %d PlanGeneralBest, %d JPSChain, %d sim.Run\n",
		len(ph.lat), len(p.curveUs), len(p.jpsUs), len(p.generalUs), len(p.chainUs), len(p.simUs))
	return nil
}
