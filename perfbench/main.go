// Command perfbench is the metadata plane's end-to-end benchmark. It
// runs one seeded workload against the plane through its public
// functions only, checks the workload's outputs, and prints one JSON
// result line:
//
//	go build -o .bench_build/perfbench . && \
//	  .bench_build/perfbench --workload publish-watch --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off in six child processes run one after the other,
// each metric the median over the children. With --trace 1 the same workload first runs
// untraced and then traced, each for half the time, and the result
// carries the per-layer metrics, the span self times, and the tracing
// overhead; the span log is written to --workdir. With --spread it reads
// result lines of repeated runs on stdin and prints each metric's median
// and quartile spread against its bound. See README.md for
// what each workload exercises and which metric each layer should
// move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricDef declares one reported metric. The same tables are checked
// against BENCHMARK.json by the package tests.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics a user of the plane sees, reported by every
// workload with tracing off. Each workload maps the latency and
// throughput metrics onto its own consumer path (see README.md).
//
// The workloads' 99th percentiles are not among them: on a shared
// 2-vCPU VM they follow hypervisor stalls and moved by more than half
// between runs of the same code, so they are reported per layer as
// tail.latency_p99_us, without a bound.
var endToEnd = []metricDef{
	{"latency_p50_us", "us", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics. A layer a workload leaves idle
// reports 0 there.
var perLayer = []metricDef{
	{"core.publish_ns", "ns", "lower", 0},
	{"core.refreshes_per_publish", "count", "lower", 0},
	{"core.delta_hit_rate", "ratio", "higher", 0},
	{"core.plan_hit_rate", "ratio", "higher", 0},
	{"core.allocs_per_publish", "count", "lower", 0},
	{"core.subscribe_us", "us", "lower", 0},
	{"core.unsubscribe_us", "us", "lower", 0},
	{"core.handlers_per_admit", "count", "lower", 0},
	{"core.include_traversals_per_admit", "count", "lower", 0},
	{"core.read_ns", "ns", "lower", 0},
	{"core.memo_hit_rate", "ratio", "higher", 0},
	{"core.computes_per_kread", "count", "lower", 0},
	{"core.reads_per_s", "1/s", "higher", 0},
	{"core.scope_batches_per_s", "1/s", "higher", 0},
	{"core.mean_batch_size", "count", "higher", 0},
	{"core.queue_high_water", "count", "lower", 0},
	{"hub.barrier_us", "us", "lower", 0},
	{"hub.wakeups_per_publish", "count", "lower", 0},
	{"hub.coalesced_ratio", "ratio", "higher", 0},
	{"hub.watch_us", "us", "lower", 0},
	{"mux.events_per_frame", "count", "higher", 0},
	{"mux.frames_per_s", "1/s", "lower", 0},
	{"mux.add_us", "us", "lower", 0},
	{"mux.remove_us", "us", "lower", 0},
	{"relay.receipt_p50_us", "us", "lower", 0},
	{"relay.receipt_p99_us", "us", "lower", 0},
	{"relay.added_p50_us", "us", "lower", 0},
	{"relay.events_per_publish", "count", "lower", 0},
	{"layer.plane_p50_us", "us", "lower", 0},
	{"layer.hub_p50_us", "us", "lower", 0},
	{"layer.mux_p50_us", "us", "lower", 0},
	{"layer.relay_p50_us", "us", "lower", 0},
	{"persist.wal_records_per_admit", "count", "lower", 0},
	{"persist.wal_bytes_per_admit", "B", "lower", 0},
	{"persist.checkpoint_ms", "ms", "lower", 0},
	{"persist.recover_ms", "ms", "lower", 0},
	{"persist.restored_items", "count", "higher", 0},
	{"engine.solo_elements_per_s", "1/s", "higher", 0},
	{"self.core.publish_us", "us", "lower", 0},
	{"self.core.read_us", "us", "lower", 0},
	{"self.hub_us", "us", "lower", 0},
	{"self.mux_us", "us", "lower", 0},
	{"self.persist_us", "us", "lower", 0},
	{"self.engine_us", "us", "lower", 0},
	{"tail.latency_p99_us", "us", "lower", 0},
	{"gen.lag_p99_us", "us", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// config is one workload invocation.
type config struct {
	seed    int64
	seconds float64
	// tr is nil for the untraced run; the traced run also measures the
	// probes and nested configurations behind the per-layer metrics.
	tr      *tracer
	workdir string
}

// oneProcessor runs the calling workload on a single Go processor until
// the returned function restores the previous setting. publish-watch
// and query-churn use it: every hop of a delivery or an admission then
// runs on one thread, so their figures measure the work along the path
// rather than how fast the hypervisor wakes an idle virtual CPU, which
// moved their medians by up to 1.5x between runs with two processors.
func oneProcessor() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// budget returns the share frac of the run's measuring time.
func (c config) budget(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	// failures names the first few failed checks, for stderr.
	failures []string
	metrics  map[string]float64
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// fail counts one failed operation or output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts a failed check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"publish-watch":  runPublishWatch,
	"query-churn":    runQueryChurn,
	"stream-monitor": runStreamMonitor,
}

// childProcs is how many child processes an untraced run is split over.
const childProcs = 6

// overheadOf is the end-to-end metric the tracing overhead is computed
// from: the traced run's median latency against the untraced run's.
const overheadOf = "latency_p50_us"

func main() {
	workload := flag.String("workload", "", "workload to run: publish-watch, query-churn or stream-monitor")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the durable plane and the span log")
	child := flag.Bool("child", false, "run one untraced part in this process and print its raw result")
	spreadMode := flag.Bool("spread", false, "read result lines on stdin and print each metric's median and spread")
	flag.Parse()

	if *spreadMode {
		if err := spreadReport(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var out any
	var err error
	if *child {
		out, err = runChild(*workload, *seed, *seconds, *workdir)
	} else {
		out, err = run(*workload, *seed, *seconds, *trace == 1, *workdir, childProcs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload and assembles the result line. The
// untraced run is split over procs child processes run one after the
// other (procs <= 1 runs it in this process), and each metric is the
// median over the children: on a shared VM a process can land in a
// slow mode that lasts its lifetime (seen as a doubled receipt median
// in one run in five), which a median over processes outvotes.
func run(workload string, seed int64, seconds float64, traced bool, workdir string, procs int) (*output, error) {
	fn := workloads[workload]
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	cfg := config{seed: seed, seconds: seconds, workdir: workdir}
	defs := endToEnd
	var res *result
	var err error
	switch {
	case !traced && procs > 1:
		if res, err = runChildren(workload, seed, seconds, workdir, procs); err != nil {
			return nil, err
		}
	case !traced:
		if res, err = fn(cfg); err != nil {
			return nil, err
		}
	default:
		defs = perLayer
		cfg.seconds = seconds / 2
		plain, err := fn(cfg)
		if err != nil {
			return nil, err
		}
		cfg.tr = newTracer()
		res, err = fn(cfg)
		if err != nil {
			return nil, err
		}
		res.attempted += plain.attempted
		res.failed += plain.failed
		res.failures = append(res.failures, plain.failures...)
		res.metrics["trace.overhead_pct"] = 100 * (ratio(res.metrics[overheadOf], plain.metrics[overheadOf]) - 1)
		// Figures the untraced half measures without tracing in the way.
		res.metrics["tail.latency_p99_us"] = plain.metrics["latency_p99_us"]
		for _, k := range []string{"relay.receipt_p50_us", "relay.receipt_p99_us", "core.reads_per_s"} {
			if v, ok := plain.metrics[k]; ok {
				res.metrics[k] = v
			}
		}
		if err := finishTrace(cfg, workload, res); err != nil {
			return nil, err
		}
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	out := &output{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if out.Attempted < 1 {
		return nil, errors.New("workload attempted no operation")
	}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// childResult is a child process's raw result.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runChild runs one untraced part of a workload in this process.
func runChild(workload string, seed int64, seconds float64, workdir string) (*childResult, error) {
	fn := workloads[workload]
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	res, err := fn(config{seed: seed, seconds: seconds, workdir: workdir})
	if err != nil {
		return nil, err
	}
	return &childResult{res.attempted, res.failed, res.failures, res.metrics}, nil
}

// runChildren runs procs child processes of this program one after the
// other, each for an equal share of seconds on its own seed derived
// from seed, waits for each, and merges their results: counts add up
// and every metric is the median over the children.
func runChildren(workload string, seed int64, seconds float64, workdir string, procs int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := newResult()
	per := make(map[string][]float64)
	for k := 0; k < procs; k++ {
		cmd := exec.Command(exe, "--child", "--workload", workload,
			"--seed", strconv.FormatInt(seed*1000+int64(k), 10),
			"--seconds", strconv.FormatFloat(seconds/float64(procs), 'g', -1, 64),
			"--workdir", workdir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("child %d: %w", k, err)
		}
		var cr childResult
		if err := json.Unmarshal(bytes.TrimSpace(b), &cr); err != nil {
			return nil, fmt.Errorf("child %d: result: %w", k, err)
		}
		res.attempted += cr.Attempted
		res.failed += cr.Failed
		res.failures = append(res.failures, cr.Failures...)
		for name, v := range cr.Metrics {
			per[name] = append(per[name], v)
		}
	}
	for name, vs := range per {
		res.metrics[name] = median(vs)
	}
	return res, nil
}

// selfMetric maps the span names of each layer to its self-time metric.
var selfMetric = map[string][]string{
	"self.core.publish_us": {"core.publish"},
	"self.core.read_us":    {"core.read"},
	"self.hub_us":          {"hub.watch"},
	"self.mux_us":          {"mux.add", "mux.remove", "mux.deliver"},
	"self.persist_us":      {"persist.record", "persist.checkpoint"},
	"self.engine_us":       {"engine.run"},
}

// finishTrace computes per-layer self times from the traced run's spans,
// reports each layer's mean self time per span, and writes the span log.
func finishTrace(cfg config, workload string, res *result) error {
	spans := cfg.tr.snapshot()
	self := selfTimes(spans)
	for metric, names := range selfMetric {
		var total float64
		var n int
		for _, name := range names {
			if lt := self[name]; lt != nil {
				total += lt.SelfUS
				n += lt.Spans
			}
		}
		res.metrics[metric] = ratio(total, float64(n))
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := self[n]
		fmt.Fprintf(os.Stderr, "perfbench: self time %-18s spans=%-8d total=%.0fus mean=%.3fus\n", n, lt.Spans, lt.SelfUS, lt.MeanUS)
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.jsonl", workload, cfg.seed))
	return writeTrace(path, spans, self, cfg.tr.dropped)
}

// liveHeapMB forces a collection and returns the live heap in MiB. The
// caller keeps its working set reachable across the call.
func liveHeapMB() float64 {
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcCycles returns the number of completed GC cycles.
func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// timedSetup runs setup reps times, keeps the last system it built and
// tears the others down, and returns the median set-up time in seconds.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var keep T
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return keep, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			keep = v
		}
	}
	return keep, median(times), nil
}
