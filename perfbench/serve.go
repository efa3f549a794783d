package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"dnnjps/internal/dag"
	"dnnjps/internal/engine"
	"dnnjps/internal/netsim"
	"dnnjps/internal/obs"
	"dnnjps/internal/profile"
	"dnnjps/internal/runtime"
	"dnnjps/internal/tensor"
)

// drainTimeout bounds how long a serve phase waits for its last reply
// after the final arrival; a stuck server fails the run instead of
// hanging it.
const drainTimeout = 60 * time.Second

// serve is open-loop traffic: seeded Poisson arrivals split over the
// tenant connections, each job timed from the moment it was due.
type serve struct {
	cfg     serveConfig
	ch      netsim.Channel
	g       *dag.Graph
	m       *engine.Model
	units   []profile.Unit
	inputs  []*tensor.Tensor
	ref     []int
	rng     *rand.Rand
	srv     *server
	clients []*runtime.Client
	obsv    *runtime.Obs // attached in traced runs only
	nextJob int
	ops     int
	batch0  [2]float64 // batch-size histogram count, sum at the traced phase's start
	traced  []serveJob
	ladder  []float64
	beyond  int
}

// serveJob is one completed job of a phase.
type serveJob struct {
	cut   int
	latMs float64 // due -> reply
	lagMs float64 // due -> sent by the generator
	res   *runtime.JobResult
}

func newServe(cfg *config, seed int64, tr *tracer) (workload, error) {
	c := cfg.Workloads.Serve
	ch, err := channelByName(c.Channel)
	if err != nil {
		return nil, err
	}
	s := &serve{cfg: c, ch: ch, rng: rand.New(rand.NewSource(seed)), ladder: cfg.TailLadder, beyond: cfg.MinBeyondTail}
	if s.g, s.m, s.units, err = loadModel(c.Model, tr); err != nil {
		return nil, err
	}
	for _, cut := range c.Cuts {
		if cut < 0 || cut >= len(s.units)-1 {
			return nil, fmt.Errorf("serve: cut %d is not an offloading cut of %s", cut, c.Model)
		}
	}
	if s.inputs, s.ref, err = referenceInputs(s.g, s.m, s.units, c.InputPool, s.rng, tr); err != nil {
		return nil, err
	}
	srv := runtime.NewServer(s.m).
		WithWorkers(c.ServerWorkers).
		WithBatching(time.Duration(c.BatchWindowMs*float64(time.Millisecond)), c.BatchMax).
		WithShedWatermark(c.ShedWatermark)
	if tr != nil {
		s.obsv = runtime.NewObs(nil, obs.NewMetrics())
		srv = srv.WithObs(s.obsv)
	}
	if s.srv, err = startServer(srv); err != nil {
		return nil, err
	}
	for t := 0; t < c.Tenants; t++ {
		conn, err := net.Dial("tcp", s.srv.addr)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.clients = append(s.clients, runtime.NewClient(conn, s.m, ch, c.TimeScale).WithTenant(fmt.Sprintf("tenant-%d", t)))
	}
	if err := s.warm(tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm sends every cut once over every tenant connection, one job at a
// time, so that the measured phase does not pay for first use: the
// server's workers and activation buffers, and each connection's first
// upload. Without it, the first jobs of a run reached 240-280 ms, twice
// the median. Each reply is checked like a measured one.
func (s *serve) warm(tr *tracer) error {
	for t, c := range s.clients {
		for _, cut := range s.cfg.Cuts {
			in := s.nextJob % len(s.inputs)
			sp := tr.begin("runtime.Client.RunJob", -1, -1)
			res, err := c.RunJob(s.nextJob, cut, s.inputs[in])
			tr.end(sp)
			s.nextJob++
			if err != nil {
				return fmt.Errorf("serve warm-up, tenant %d, cut %d: %w", t, cut, err)
			}
			if res.Shed || res.Class != s.ref[in] {
				return fmt.Errorf("serve warm-up, tenant %d, cut %d: class %d (shed %v), reference %d", t, cut, res.Class, res.Shed, s.ref[in])
			}
		}
	}
	return nil
}

func (s *serve) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.srv.close()
	}
}

// arrival is one scheduled job.
type arrival struct {
	at     time.Duration
	tenant int
	cut    int
	input  int
}

// schedule draws a Poisson process conditioned on its count, with its
// randomness stratified so that seeds differ in order rather than in
// mix. There are rate × d arrivals. Their rate × d + 1 exponential gaps
// are drawn one from each of as many equal-probability strata, shuffled
// and scaled to span d. Each cut and each tenant gets an equal share of
// the jobs, in shuffled order. With independent draws, one seed's share
// of cloud-only jobs ranged from 35% to 56% of a run, and the p90 tail,
// made mostly of cloud-only jobs, followed it.
func (s *serve) schedule(d time.Duration) []arrival {
	n := int(math.Round(s.cfg.RatePerS * d.Seconds()))
	gaps := make([]float64, n+1)
	var total float64
	for i, stratum := range s.rng.Perm(n + 1) {
		u := (float64(stratum) + s.rng.Float64()) / float64(n+1)
		gaps[i] = -math.Log1p(-u)
		total += gaps[i]
	}
	tenants := balanced(n, len(s.clients), s.rng)
	cuts := balanced(n, len(s.cfg.Cuts), s.rng)
	arr := make([]arrival, n)
	var at float64
	for i := range arr {
		at += gaps[i]
		arr[i] = arrival{
			at:     time.Duration(at / total * float64(d)),
			tenant: tenants[i],
			cut:    s.cfg.Cuts[cuts[i]],
			input:  s.rng.Intn(len(s.inputs)),
		}
	}
	return arr
}

// balanced returns n indices into k choices, each used n/k times (the
// first n%k once more), in shuffled order.
func balanced(n, k int, rng *rand.Rand) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

func (s *serve) measure(d time.Duration, tr *tracer) (*phase, error) {
	arr := s.schedule(d)
	if tr != nil && s.obsv != nil {
		s.batch0 = [2]float64{float64(s.obsv.BatchSize.Count()), s.obsv.BatchSize.Sum()}
	}
	ph := &phase{mem0: readMem()}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		done []serveJob
	)
	start := time.Now()
	for _, a := range arr {
		due := start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := ms(time.Since(due))
		op, jobID := s.ops, s.nextJob
		s.ops++
		s.nextJob++
		wg.Add(1)
		go func(a arrival) {
			defer wg.Done()
			root := tr.begin("serve.op", -1, op)
			sp := tr.begin("runtime.Client.RunJob", root, op)
			res, err := s.clients[a.tenant].RunJob(jobID, a.cut, s.inputs[a.input])
			end := time.Now()
			tr.end(sp)
			tr.end(root)
			lat := ms(end.Sub(due))
			mu.Lock()
			defer mu.Unlock()
			ph.attempted++
			if err != nil || res.Shed || res.Class != s.ref[a.input] {
				ph.failed++
				if err != nil {
					fmt.Fprintf(os.Stderr, "serve op %d failed: %v\n", op, err)
				}
				return
			}
			ph.lat = append(ph.lat, lat)
			ph.jobs++
			if lat <= s.cfg.LatencyLimitMs {
				ph.inLimit++
			}
			done = append(done, serveJob{cut: a.cut, latMs: lat, lagMs: lag, res: res})
		}(a)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("serve: replies still outstanding %v after the last arrival", drainTimeout)
	}
	ph.elapsed = time.Since(start)
	ph.mem1 = readMem()
	if tr != nil {
		s.traced = done
	}
	return ph, nil
}

func (s *serve) layers(ph *phase, tr *tracer, m map[string]float64, w io.Writer) error {
	if len(s.traced) == 0 {
		return fmt.Errorf("serve: no completed job in the traced phase")
	}
	var mobile, cloud, comm, queue, lag, resid []float64
	var modelComm float64
	mix := map[int]int{}
	for _, j := range s.traced {
		r := j.res
		mobile = append(mobile, r.MobileMs)
		cloud = append(cloud, r.CloudMs)
		comm = append(comm, r.CommMs)
		queue = append(queue, r.QueueMs)
		lag = append(lag, j.lagMs)
		// What the stages do not cover: the uplink send queue shared
		// with the tenant's other jobs, and goroutine scheduling.
		resid = append(resid, j.latMs-j.lagMs-(r.MobileMs+r.CommMs+r.QueueMs+r.CloudMs))
		modelComm += uplinkMs(s.g, s.units, s.ch, s.cfg.TimeScale, j.cut)
		mix[j.cut]++
	}
	m["engine.prefix_ms"] = mean(mobile)
	m["engine.suffix_ms"] = mean(cloud)
	m["runtime.comm_ms"] = mean(comm)
	if modelComm > 0 {
		m["netsim.pacing_ratio"] = mean(comm) * float64(len(comm)) / modelComm
	}
	m["runtime.queue_ms_p50"] = median(queue)
	qTail, qPct, _ := tail(queue, s.ladder, s.beyond)
	m["runtime.queue_ms_tail"] = qTail
	if s.obsv != nil {
		if n := float64(s.obsv.BatchSize.Count()) - s.batch0[0]; n > 0 {
			m["runtime.batch_mean"] = (s.obsv.BatchSize.Sum() - s.batch0[1]) / n
		}
		fmt.Fprintf(w, "serve: server shed %d jobs in total\n", s.obsv.ShedJobs.Value())
	}
	m["loadgen.lag_ms"] = mean(lag)
	fmt.Fprintf(w, "serve: %d jobs, cut mix %v, queue tail at p%g\n", len(s.traced), mix, qPct)
	fmt.Fprintf(w, "stage reconciliation: due->reply - lag - (mobile+comm+queue+cloud) median %.3f ms, max %.3f ms\n",
		median(resid), slices.Max(resid))
	return engineLayers(s.m, s.units, mix, s.inputs[0], s.ref[0], tr, m, w)
}
