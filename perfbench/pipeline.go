package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	"dnnjps/internal/core"
	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/flowshop"
	"dnnjps/internal/models"
	"dnnjps/internal/netsim"
	"dnnjps/internal/profile"
	"dnnjps/internal/runtime"
	"dnnjps/internal/tensor"
)

// modelSeed fixes the engine weights; the benchmark seed varies only
// the inputs, the arrival schedule and the request mix.
const modelSeed = 42

// pipeline runs the paper's setting: one JPS-planned batch after
// another through the fault-tolerant runner over a shaped connection.
type pipeline struct {
	cfg    pipelineConfig
	ch     netsim.Channel
	g      *dag.Graph
	m      *engine.Model
	units  []profile.Unit
	curve  *profile.Curve
	plan   *core.Plan
	jpsUs  float64
	inputs []*tensor.Tensor
	ref    []int
	rng    *rand.Rand
	srv    *server
	runner *runtime.Runner
	ops    int

	// Traced-phase accumulators.
	jobs       []*runtime.JobResult
	modelComm  float64 // Σ scale × modelled Tx+Rx over jobs
	overheads  []float64
	mbpsRatios []float64
	replans    int
	retries    int
	changes    int
	mix        map[int]int
}

func newPipeline(cfg *config, seed int64, tr *tracer) (workload, error) {
	c := cfg.Workloads.Pipeline
	ch, err := channelByName(c.Channel)
	if err != nil {
		return nil, err
	}
	p := &pipeline{cfg: c, ch: ch, rng: rand.New(rand.NewSource(seed))}
	if p.g, p.m, p.units, err = loadModel(c.Model, tr); err != nil {
		return nil, err
	}
	sp := tr.begin("profile.BuildCurve", -1, -1)
	p.curve = profile.BuildCurve(p.g, profile.RaspberryPi4(), profile.CloudGPU(), ch, tensor.Float32)
	tr.end(sp)
	sp = tr.begin("core.JPS", -1, -1)
	start := time.Now()
	p.plan, err = core.JPS(p.curve, c.N)
	p.jpsUs = float64(time.Since(start).Nanoseconds()) / 1e3
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if p.inputs, p.ref, err = referenceInputs(p.g, p.m, p.units, c.InputPool, p.rng, tr); err != nil {
		return nil, err
	}
	if p.srv, err = startServer(runtime.NewServer(p.m)); err != nil {
		return nil, err
	}
	dial := func() (net.Conn, error) { return net.Dial("tcp", p.srv.addr) }
	p.runner = runtime.NewRunner(dial, p.m, ch, c.TimeScale,
		runtime.RunOptions{AdaptiveReplan: true, Window: c.N}).WithCurve(p.curve)
	return p, nil
}

func (p *pipeline) close() { p.srv.close() }

func (p *pipeline) measure(d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{mem0: readMem()}
	start := time.Now()
	for time.Since(start) < d {
		op := p.ops
		p.ops++
		picks := make([]int, p.cfg.N)
		inputs := make([]*tensor.Tensor, p.cfg.N)
		for i := range picks {
			picks[i] = p.rng.Intn(len(p.inputs))
			inputs[i] = p.inputs[picks[i]]
		}
		root := tr.begin("pipeline.op", -1, op)
		sp := tr.begin("runtime.Runner.RunPlan", root, op)
		t0 := time.Now()
		rep, err := p.runner.RunPlan(p.plan, inputs)
		lat := ms(time.Since(t0))
		tr.end(sp)
		ph.attempted++
		if err != nil || !p.correct(rep, picks) {
			tr.end(root)
			ph.failed++
			if err != nil {
				fmt.Fprintf(os.Stderr, "pipeline op %d failed: %v\n", op, err)
			}
			continue
		}
		for _, r := range rep.Results {
			sent := r.Done.Add(-time.Duration((r.CommMs + r.QueueMs + r.CloudMs) * float64(time.Millisecond)))
			tr.record("runtime.job(send-reply)", sp, op, sent, r.Done)
		}
		tr.end(root)
		ph.lat = append(ph.lat, lat)
		ph.jobs += p.cfg.N
		if lat <= p.cfg.LatencyLimitMs {
			ph.inLimit++
		}
		if tr != nil {
			p.accumulate(rep)
		}
	}
	ph.elapsed = time.Since(start)
	ph.mem1 = readMem()
	return ph, nil
}

// correct checks every job of a batch against the reference classes.
func (p *pipeline) correct(rep *runtime.FTReport, picks []int) bool {
	if len(rep.Results) != len(picks) {
		return false
	}
	for _, r := range rep.Results {
		if r.Shed || r.Class != p.ref[picks[r.JobID]] {
			return false
		}
	}
	return true
}

// uplinkMs is the modelled wall time of one job's upload and reply at
// the workload's time scale; 0 for a job that runs fully local.
func uplinkMs(g *dag.Graph, units []profile.Unit, ch netsim.Channel, scale float64, cut int) float64 {
	if cut >= len(units)-1 {
		return 0
	}
	bytes := runtime.RequestWireBytes(g.Node(units[cut].Exit).OutShape)
	return scale * (ch.TxMs(bytes) + ch.RxMs(profile.ReplyBytes))
}

func (p *pipeline) accumulate(rep *runtime.FTReport) {
	if p.mix == nil {
		p.mix = map[int]int{}
	}
	byID := make(map[int]*runtime.JobResult, len(rep.Results))
	for _, r := range rep.Results {
		byID[r.JobID] = r
		p.jobs = append(p.jobs, r)
		p.mix[r.Cut]++
		p.modelComm += uplinkMs(p.g, p.units, p.ch, p.cfg.TimeScale, r.Cut)
	}
	// Prop 4.1 over measured f and modelled g, in the planned order.
	seq := make([]flowshop.Job, 0, len(p.plan.Sequence))
	for _, fj := range p.plan.Sequence {
		r := byID[fj.ID]
		seq = append(seq, flowshop.Job{ID: fj.ID, A: r.MobileMs, B: uplinkMs(p.g, p.units, p.ch, p.cfg.TimeScale, r.Cut)})
	}
	if f := flowshop.FormulaMakespan(seq); f > 0 {
		p.overheads = append(p.overheads, rep.MakespanMs/f)
	}
	p.mbpsRatios = append(p.mbpsRatios, rep.EstimatedMbps/p.ch.UplinkMbps)
	p.replans += rep.Replans + rep.HintReplans
	p.retries += rep.RetriedJobs
	p.changes += rep.ChangePoints
}

func (p *pipeline) layers(ph *phase, tr *tracer, m map[string]float64, w io.Writer) error {
	if len(p.jobs) == 0 {
		return fmt.Errorf("pipeline: no completed batch in the traced phase")
	}
	var mobile, cloud, comm []float64
	for _, r := range p.jobs {
		mobile = append(mobile, r.MobileMs)
		cloud = append(cloud, r.CloudMs)
		comm = append(comm, r.CommMs)
	}
	m["engine.prefix_ms"] = mean(mobile)
	m["engine.suffix_ms"] = mean(cloud)
	m["runtime.comm_ms"] = mean(comm)
	if p.modelComm > 0 {
		m["netsim.pacing_ratio"] = mean(comm) * float64(len(comm)) / p.modelComm
	}
	m["runtime.overhead_ratio"] = median(p.overheads)
	m["core.jps_us"] = p.jpsUs
	m["runner.replans"] = float64(p.replans)
	m["runner.retries"] = float64(p.retries)
	m["estimator.change_points"] = float64(p.changes)
	m["estimator.mbps_ratio"] = mean(p.mbpsRatios)
	fmt.Fprintf(w, "pipeline: %d batches, cut mix %v, planned Prop 4.1 makespan %.1f ms (device model, unscaled)\n",
		len(ph.lat), p.mix, p.plan.Makespan)
	return engineLayers(p.m, p.units, p.mix, p.inputs[0], p.ref[0], tr, m, w)
}

// loadModel builds a zoo graph and instantiates its weights.
func loadModel(name string, tr *tracer) (*dag.Graph, *engine.Model, []profile.Unit, error) {
	sp := tr.begin("models.Build", -1, -1)
	g, err := models.Build(name)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("engine.Load", -1, -1)
	m := engine.Load(g, modelSeed)
	tr.end(sp)
	return g, m, profile.LineView(g), nil
}

// referenceInputs draws a pool of seeded inputs and classifies each
// with one whole-model Forward: the classes every offloaded job must
// reproduce.
func referenceInputs(g *dag.Graph, m *engine.Model, units []profile.Unit, pool int, rng *rand.Rand, tr *tracer) ([]*tensor.Tensor, []int, error) {
	shape := g.Node(units[0].Exit).OutShape
	inputs := make([]*tensor.Tensor, pool)
	ref := make([]int, pool)
	for i := range inputs {
		in := tensor.New(shape)
		for j := range in.Data {
			in.Data[j] = float32(rng.Float64()*2 - 1)
		}
		sp := tr.begin("engine.Model.Forward", -1, -1)
		out, err := m.Forward(in)
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("reference forward: %w", err)
		}
		inputs[i], ref[i] = in, engine.Argmax(out)
	}
	return inputs, ref, nil
}

// server is a runtime.Server accepting on a loopback listener.
type server struct {
	srv  *runtime.Server
	lis  net.Listener
	addr string
	done chan struct{}
}

func startServer(srv *runtime.Server) (*server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, lis: lis, addr: lis.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = srv.Serve(lis) // returns once the listener closes
	}()
	return s, nil
}

// close stops accepting, drains the server and waits for Serve to end.
func (s *server) close() {
	s.lis.Close()
	<-s.done
	s.srv.Close()
}
