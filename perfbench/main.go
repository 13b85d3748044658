// Command perfbench is the CalTrain repository benchmark. One invocation
// runs one named workload from a seed and prints every metric by name
// with its unit; the last line of standard output is a JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics of
// a traced run (-trace 1). The process exits non-zero when any
// correctness check fails. Workloads, metrics and the layers each one
// stresses are described in README.md. Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload triage --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its runner at full size.
var workloads = map[string]func(env *env) (*report, error){
	"investigate": func(e *env) (*report, error) { return runInvestigate(e, investigateFull) },
	"triage":      func(e *env) (*report, error) { return runTriage(e, triageFull) },
	"train":       func(e *env) (*report, error) { return runTrain(e, trainFull) },
}

// env is what every workload receives: its seed, how long to measure,
// whether this is the traced run, and a scratch directory it owns.
type env struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: investigate, triage or train")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured time of the run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	workdir := fs.String("workdir", ".bench_build", "directory for write-ahead logs; a per-run subdirectory is removed on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir}

	h := hostInfo(*workload, e)
	fmt.Fprintf(stdout, "host %s\n", mustJSON(h))
	steal := stealMeter()
	rep, err := runner(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if pct, ok := steal(); ok {
		rep.set("host_steal_pct", pct, "%")
	}
	declared := endToEnd
	if e.traced {
		declared = perLayer
	}
	res, err := rep.result(declared, e.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.print(stdout)
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricSpec names a metric and its unit as BENCHMARK.json declares it.
type metricSpec struct{ name, unit string }

// endToEnd are the gated metrics every workload reports from its
// untraced run. What "latency" and "throughput" count differs per
// workload and is spelled out in README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metricSpec{
	{"client.late_p99_ms", "ms"},
	{"client.read_p99_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"client.rtt_self_us", "us"},
	{"server.request_us.query", "us"},
	{"server.request_us.batch", "us"},
	{"server.request_us.ingest", "us"},
	{"server.self_us.query", "us"},
	{"server.self_us.batch", "us"},
	{"server.self_us.ingest", "us"},
	{"shard.route_us", "us"},
	{"shard.scatter_us", "us"},
	{"shard.rpc_us", "us"},
	{"shard.replicate_us", "us"},
	{"shard.attempts_per_request", "count"},
	{"shard.cache_hit_ratio", "ratio"},
	{"fingerprint.search_us", "us"},
	{"fingerprint.search_us_per_query", "us"},
	{"index.search_share", "ratio"},
	{"index.train_s", "s"},
	{"index.bytes_per_entry", "B"},
	{"kernel.distance_rows_ns_per_row", "ns"},
	{"kernel.adc_scan_ns_per_row", "ns"},
	{"ingest.wal_append_us", "us"},
	{"ingest.fsync_us", "us"},
	{"ingest.fsyncs_per_write", "count"},
	{"ingest.apply_us", "us"},
	{"ingest.wal_bytes_per_entry", "B"},
	{"serve.build_s", "s"},
	{"core.add_participant_s", "s"},
	{"core.epoch_s", "s"},
	{"core.fingerprint_s", "s"},
	{"seal.seal_mb_per_s", "MB/s"},
	{"sgx.crossing_us", "us"},
	{"sgx.ecalls_per_step", "count"},
	{"sgx.page_faults_per_step", "count"},
	{"partition.overhead_ratio", "ratio"},
	{"tensor.enclave_gflops", "GFLOP/s"},
	{"tensor.host_gflops", "GFLOP/s"},
	{"trace.overhead_pct", "%"},
	{"trace.unaccounted_us", "us"},
	{"trace.server_spans", "count"},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a workload's numbers and check outcomes.
type report struct {
	values    map[string]metric
	order     []string
	labels    []string // "name value" rows that are not numbers
	attempted int
	failed    int
	problems  []string
}

func newReport() *report { return &report{values: make(map[string]metric)} }

// set records a metric; a later set of the same name replaces it.
func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = metric{Value: value, Unit: unit}
}

func (r *report) label(name, value string) { r.labels = append(r.labels, name+" "+value) }

// fail records a failed correctness check; n requests count as failed.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// print writes every recorded metric, label and problem as text rows.
func (r *report) print(w io.Writer) {
	for _, n := range r.order {
		m := r.values[n]
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, l := range r.labels {
		fmt.Fprintf(w, "label %s\n", l)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "metric %-34s %14.6g ratio\n", "error_rate", errRate)
	for _, p := range r.problems {
		fmt.Fprintf(w, "check failed: %s\n", p)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the declared metrics. A missing end-to-end metric is a
// benchmark bug; with zeroMissing, a missing per-layer metric is a layer
// the workload does not exercise and reads 0.
func (r *report) result(declared []metricSpec, zeroMissing bool) (*result, error) {
	out := &result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(declared)),
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range declared {
		m, ok := r.values[d.name]
		switch {
		case !ok && !zeroMissing:
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		case !ok:
			m = metric{Value: 0, Unit: d.unit}
			r.set(d.name, 0, d.unit)
		case m.Unit != d.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		out.Metrics[d.name] = m
	}
	return out, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return string(b)
}

// walPath returns a fresh directory under the run's scratch directory.
func (e *env) walPath(parts ...string) string {
	return filepath.Join(append([]string{e.dir}, parts...)...)
}
