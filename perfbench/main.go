// Command perfbench is the repository's benchmark. It drives one of four
// workloads from a single process, times it from outside through the
// exported APIs of the layers it exercises, checks that the simulated
// outputs are correct, and prints one JSON result object as the last line
// of standard output:
//
//	go run . --workload fabric-fast --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run records spans around every call into a layer and the result
// holds the per-layer metrics instead. README.md explains the workloads
// and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, on every workload.
// Their meaning per workload is fixed in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A layer a workload
// leaves idle reports 0.
var perLayer = []metricDef{
	{"topo.build_ms", "ms"},
	{"polka.encode_us_per_route", "us"},
	{"polka.batch_ns_per_decision", "ns"},
	{"gf2.reduce_ns_per_routeid", "ns"},
	{"dataplane.inject_ns_per_pkt", "ns"},
	{"dataplane.run_ns_per_hop", "ns"},
	{"dataplane.reset_us", "us"},
	{"dataplane.allocs_per_pkt", "count"},
	{"dataplane.serial_pkts_per_s", "1/s"},
	{"dataplane.parallel_speedup", "ratio"},
	{"dataplane.full_fast_cost_ratio", "ratio"},
	{"dataplane.hops_per_pkt", "count"},
	{"dataplane.mean_burst_pkts", "count"},
	{"dataplane.drops_ttl", "count"},
	{"dataplane.drops_bad_port", "count"},
	{"dataplane.drops_pot", "count"},
	{"dataplane.drops_queue", "count"},
	{"dataplane.drops_loss", "count"},
	{"link.ns_per_frame", "ns"},
	{"link.virtual_s_per_s", "ratio"},
	{"link.queue_drops", "count"},
	{"link.loss_drops", "count"},
	{"link.sojourn_p99_ms", "ms"},
	{"link.virtual_ms", "ms"},
	{"netem.runfor_ms_per_emu_s", "ms"},
	{"netem.active_flows", "count"},
	{"bus.request_us", "us"},
	{"bus.msgs_per_placement", "count"},
	{"bus.deliveries_per_reply", "count"},
	{"hecate.train_ms", "ms"},
	{"hecate.recommend_us", "us"},
	{"controlplane.admit_p50_ms", "ms"},
	{"controlplane.migrate_p50_ms", "ms"},
	{"labd.queue_wait_ms", "ms"},
	{"labd.exec_overhead_ms", "ms"},
	{"labd.submit_ms", "ms"},
	{"labd.health_ms", "ms"},
	{"dispatch.unit_overhead_ms", "ms"},
	{"dispatch.attempts_per_unit", "count"},
	{"dispatch.requeues", "count"},
	{"scenario.wall_s", "s"},
	{"traced.setup_s", "s"},
	{"traced.throughput_per_s", "1/s"},
	{"traced.op_p50_ms", "ms"},
	{"traced.op_p99_ms", "ms"},
	{"traced.op_samples", "count"},
	{"trace.spans", "count"},
	{"trace.ns_per_span", "ns"},
}

// runConfig is what every workload receives: only the seed and the run
// length reach the program's inputs.
type runConfig struct {
	seed    int64
	seconds float64
	// tr records spans; nil on untraced runs.
	tr *tracer
	// tamper corrupts one correctness digest, so tests can check that a
	// mismatch is reported as failed operations.
	tamper bool
}

// result is one run's outcome before it is rendered.
type result struct {
	attempted, failed int
	// mismatch is set when a correctness check failed; every operation of
	// the run then counts as failed.
	mismatch bool
	// ops are the latencies (ms) of the workload's user-facing operation;
	// op_p50_ms is their median.
	ops   []float64
	e2e   map[string]float64
	layer map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// failAll records a correctness mismatch.
func (r *result) failAll(format string, args ...any) {
	if !r.mismatch {
		fmt.Fprintf(errLog, "perfbench: correctness check failed: "+format+"\n", args...)
	}
	r.mismatch = true
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"fabric-fast": func(ctx context.Context, cfg runConfig) (*result, error) { return runFabric(ctx, cfg, false) },
	"fabric-full": func(ctx context.Context, cfg runConfig) (*result, error) { return runFabric(ctx, cfg, true) },
	"te-loop":     runTELoop,
	"fleet-suite": runFleetSuite,
}

// output is the JSON object printed as the last line of a run.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the printed object: the end-to-end metrics untraced, the
// per-layer metrics traced.
func render(r *result, traced bool) output {
	o := output{Correct: !r.mismatch, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	if r.mismatch {
		o.Failed = r.attempted
	}
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		o.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return o
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fabric-fast, fabric-full, te-loop or fleet-suite")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spans := fs.String("spans", "", "file the traced run writes its spans to (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	ctx := context.Background()
	r, err := drive(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	r.e2e["op_p50_ms"] = median(r.ops)
	if cfg.tr != nil {
		for _, name := range []string{"setup_s", "throughput_per_s", "op_p50_ms"} {
			r.layer["traced."+name] = r.e2e[name]
		}
		r.layer["traced.op_p99_ms"] = tailP99(r.ops)
		r.layer["traced.op_samples"] = float64(len(r.ops))
		r.layer["trace.spans"] = float64(len(cfg.tr.spans))
		r.layer["trace.ns_per_span"] = spanCostNs()
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *workload, *seed)
		}
		run := fmt.Sprintf("%s-seed%d-%s", *workload, *seed, cfg.tr.t0.UTC().Format("20060102T150405.000"))
		if err := cfg.tr.write(path, run); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops timed, p99 %.4g ms\n",
		*workload, *seed, len(r.ops), tailP99(r.ops))
	for _, k := range sortedKeys(r.e2e) {
		fmt.Fprintf(os.Stderr, "  %-34s %g\n", k, r.e2e[k])
	}
	line, err := json.Marshal(render(r, cfg.tr != nil))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// heapLiveMB forces a collection and returns the live heap in MB. The
// second collection also frees what sync.Pool caches kept through the
// first.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailP99 returns the p99 of xs when at least ten samples lie beyond it,
// and 0 otherwise.
func tailP99(xs []float64) float64 {
	if len(xs) < 1000 {
		return 0
	}
	return quantile(xs, 0.99)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Each workload sets itself up at least minSetups times and for at least
// minSetupTime, at most maxSetups times; setup_s is the median, so a
// single slow set-up does not move it, and a cheap set-up is timed often
// enough to be read above the host's noise.
const (
	minSetups    = 5
	maxSetups    = 50
	minSetupTime = time.Second
)

// repeatSetup calls setUp(i) for i = 0, 1, ... as the limits above say
// and returns the median duration of a call in seconds. Before every call
// but the first it calls release, untimed, to tear the previous set-up
// down; release may be nil.
func repeatSetup(setUp func(i int) error, release func()) (float64, error) {
	var times []float64
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < minSetupTime); i++ {
		if i > 0 && release != nil {
			release()
		}
		t0 := time.Now()
		if err := setUp(i); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errLog receives diagnostics; the result line alone goes to stdout.
var errLog io.Writer = os.Stderr
