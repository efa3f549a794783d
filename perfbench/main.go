// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed, checks every output against a
// reference, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced run) as the last line of standard
// output in one JSON object. See README.md for the workloads, the
// metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"slices"
	"time"
)

// workload is one traffic mix. A value is built by its set-up function
// and then measured; every call into the system goes through the
// repository's public functions.
type workload interface {
	// measure runs ops until d has passed and returns what they did.
	// A non-nil tr records a span around every call into a layer.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// layers fills the workload's per-layer metrics from the traced
	// phase and prints its reconciliation notes to w.
	layers(ph *phase, tr *tracer, m map[string]float64, w io.Writer) error
	close()
}

// phase is the record of one measured stretch of ops.
type phase struct {
	elapsed   time.Duration
	lat       []float64 // ms per op that completed correctly
	attempted int
	failed    int // errored, shed or wrong-class ops
	inLimit   int // correct ops within the workload's latency limit
	jobs      int // throughput units completed (jobs or requests)
	mem0      memSnap
	mem1      memSnap
}

// rssWindowCount is how many windows of the measured phase
// peak_rss_mb takes the median peak of.
const rssWindowCount = 10

type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order.
// failed_ratio is printed in the table but left out of the JSON
// metrics: it is 0 on every clean run, and the result line already
// carries it as failed/attempted.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"slo_attainment", "ratio"},
}

// perLayer lists the metrics of a traced run. A workload that does not
// load a layer reports 0 for it.
var perLayer = []metricSpec{
	{"engine.prefix_ms", "ms"},
	{"engine.suffix_ms", "ms"},
	{"engine.conv_ms", "ms"},
	{"engine.dwconv_ms", "ms"},
	{"engine.dense_ms", "ms"},
	{"engine.bn_ms", "ms"},
	{"engine.act_ms", "ms"},
	{"engine.pool_ms", "ms"},
	{"engine.other_ms", "ms"},
	{"engine.gflops", "GFLOP/s"},
	{"runtime.comm_ms", "ms"},
	{"netsim.pacing_ratio", "ratio"},
	{"runtime.overhead_ratio", "ratio"},
	{"runtime.queue_ms_p50", "ms"},
	{"runtime.queue_ms_tail", "ms"},
	{"runtime.batch_mean", "jobs"},
	{"runner.replans", "count"},
	{"runner.retries", "count"},
	{"estimator.change_points", "count"},
	{"estimator.mbps_ratio", "ratio"},
	{"profile.curve_us", "us"},
	{"core.jps_us", "us"},
	{"core.general_us", "us"},
	{"core.chain_us", "us"},
	{"sim.run_us", "us"},
	{"process.allocs_per_op", "count"},
	{"process.gc_pause_ms", "ms"},
	{"loadgen.lag_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: pipeline, serve or plan")
	fs.Int64Var(&o.seed, "seed", 1, "seed for inputs, arrival schedule and request mix")
	fs.IntVar(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span dump of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	o.trace = trace == 1
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", o.workload, o.seed)
	}
	cfg, err := loadConfig()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := runBenchmark(cfg, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed or were wrong\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// setupFunc builds a workload; setup-time calls are traced under op -1.
type setupFunc func(cfg *config, seed int64, tr *tracer) (workload, error)

var workloads = map[string]setupFunc{
	"pipeline": newPipeline,
	"serve":    newServe,
	"plan":     newPlan,
}

func runBenchmark(cfg *config, o options, out io.Writer) (*result, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have pipeline, serve, plan)", o.workload)
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%v GOMAXPROCS=%d NumCPU=%d\n",
		o.workload, o.seed, o.seconds, o.trace, goruntime.GOMAXPROCS(0), goruntime.NumCPU())

	total := time.Duration(o.seconds) * time.Second
	if !o.trace {
		w, setups, err := setUpRepeatedly(cfg, setup, o.seed)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", o.workload, err)
		}
		defer w.close()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		steal0 := readSteal()
		rss := watchRSS(total / rssWindowCount)
		ph, err := w.measure(total, nil)
		peaks, rssErr := rss.finish()
		if err != nil {
			return nil, err
		}
		if rssErr != nil {
			return nil, rssErr
		}
		fmt.Fprintf(out, "host: %.1f%% of CPU time stolen by other guests during the measured phase\n", 100*stealShare(steal0, readSteal()))
		return endToEndResult(cfg, ph, setups, peaks, out)
	}

	tr := newTracer()
	w, err := setup(cfg, o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", o.workload, err)
	}
	defer w.close()
	// Traced run: an untraced half gives the baseline the tracing
	// overhead is measured against, the traced half the layer metrics.
	untraced, err := w.measure(total/2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := w.measure(total-total/2, tr)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(perLayer))
	if err := w.layers(traced, tr, m, out); err != nil {
		return nil, err
	}
	if ops := traced.attempted; ops > 0 {
		m["process.allocs_per_op"] = float64(traced.mem1.mallocs-traced.mem0.mallocs) / float64(ops)
		m["process.gc_pause_ms"] = float64(traced.mem1.pauseNs-traced.mem0.pauseNs) / 1e6 / float64(ops)
	}
	if base := median(untraced.lat); base > 0 {
		m["trace.overhead_ratio"] = median(traced.lat) / base
	}
	fmt.Fprintln(out, "spans (set-up and traced half):")
	tr.printTable(out)
	if err := tr.writeFile(o.traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace written to %s\n", o.traceOut)

	res := &result{
		Correct:   untraced.failed == 0 && traced.failed == 0,
		Attempted: untraced.attempted + traced.attempted,
		Failed:    untraced.failed + traced.failed,
		Metrics:   make(map[string]metricValue, len(perLayer)),
	}
	fmt.Fprintf(out, "%-26s %14s %s\n", "per-layer metric", "value", "unit")
	for _, s := range perLayer {
		res.Metrics[s.name] = metricValue{Value: m[s.name], Unit: s.unit}
		fmt.Fprintf(out, "%-26s %14.4f %s\n", s.name, m[s.name], s.unit)
	}
	return res, nil
}

// setUpRepeatedly sets the workload up at least cfg.SetupRepeats times
// and for at least cfg.SetupMinSeconds, and returns the last instance
// with every set-up's duration: the median of many set-ups keeps one
// slow set-up from reading as a regression, and a cheap set-up repeats
// until its median rests on enough samples.
func setUpRepeatedly(cfg *config, setup setupFunc, seed int64) (workload, []float64, error) {
	var w workload
	var setups []float64
	var spent float64
	for len(setups) < cfg.SetupRepeats || spent < cfg.SetupMinSeconds {
		if w != nil {
			w.close()
			goruntime.GC()
		}
		start := time.Now()
		nw, err := setup(cfg, seed, nil)
		if err != nil {
			return nil, nil, err
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d)
		spent += d
		w = nw
	}
	return w, setups, nil
}

func endToEndResult(cfg *config, ph *phase, setups, rssPeaks []float64, out io.Writer) (*result, error) {
	tailV, tailP, beyond := tail(ph.lat, cfg.TailLadder, cfg.MinBeyondTail)
	m := map[string]float64{
		"setup_s":          median(setups),
		"peak_rss_mb":      median(rssPeaks),
		"latency_p50_ms":   median(ph.lat),
		"latency_tail_ms":  tailV,
		"throughput_ops_s": float64(ph.jobs) / ph.elapsed.Seconds(),
		"slo_attainment":   0,
	}
	failedRatio := 1.0
	if ph.attempted > 0 {
		m["slo_attainment"] = float64(ph.inLimit) / float64(ph.attempted)
		failedRatio = float64(ph.failed) / float64(ph.attempted)
	}
	res := &result{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   make(map[string]metricValue, len(endToEnd)),
	}
	fmt.Fprintf(out, "%-18s %14s %s\n", "end-to-end metric", "value", "unit")
	for _, s := range endToEnd {
		res.Metrics[s.name] = metricValue{Value: m[s.name], Unit: s.unit}
		note := ""
		switch s.name {
		case "setup_s":
			note = fmt.Sprintf("  (median of %d set-ups)", len(setups))
		case "peak_rss_mb":
			note = fmt.Sprintf("  (median of %d window peaks, highest %.1f)", len(rssPeaks), slices.Max(rssPeaks))
		case "latency_tail_ms":
			note = fmt.Sprintf("  (p%g, %d of %d samples beyond)", tailP, beyond, len(ph.lat))
		}
		fmt.Fprintf(out, "%-18s %14.4f %s%s\n", s.name, m[s.name], s.unit, note)
	}
	fmt.Fprintf(out, "%-18s %14.4f %s  (%d failed of %d attempted)\n", "failed_ratio", failedRatio, "ratio", ph.failed, ph.attempted)
	return res, nil
}
