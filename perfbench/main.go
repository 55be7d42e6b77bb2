// Command perfbench is the repository's end-to-end benchmark: it boots a
// fresh mus-serve with its default flags for every run, drives it through
// the client SDK from one closed-loop load generator on seeded inputs,
// checks the answers, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer ones — as the last line of its output:
//
//	perfbench --workload solve-hot --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md): solve-hot, solve-cold, jobs-durable. Run it
// through run.sh, which builds the daemon and this program from source
// first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// runDeadline bounds one run, set-up and checks included.
const runDeadline = 170 * time.Second

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEndMetrics and layerMetrics list every metric the benchmark
// reports, with its unit; BENCHMARK.json names the same ones.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"server_cpu_ms_per_op", "ms/op"},
	{"peak_rss_mb", "MiB"},
}

var layerMetrics = []metricDef{
	{"mus-serve.server_ms", "ms"},
	{"mus-serve.self_us", "us"},
	{"client.transport_ms", "ms"},
	{"api.decode_us", "us"},
	{"api.resolve_us", "us"},
	{"api.encode_us", "us"},
	{"core.fingerprint_us", "us"},
	{"service.evaluate_hit_us", "us"},
	{"service.hit_ratio", "ratio"},
	{"service.solves_per_op", "solves/op"},
	{"service.shared_inflight", "count"},
	{"service.evictions", "count"},
	{"service.batch_groups_per_job", "groups/job"},
	{"service.batch_fallbacks", "count"},
	{"core.solve_ms", "ms"},
	{"core.solve_alloc_kb", "KiB"},
	{"core.hoist_ms", "ms"},
	{"core.point_ms", "ms"},
	{"runtime.gc_cycles_per_op", "cycles/op"},
	{"runtime.gc_pause_ms_per_op", "ms/op"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.submit_us", "us"},
	{"store.append_us", "us"},
	{"store.sync_ms", "ms"},
	{"store.bytes_per_point", "B/point"},
	{"store.records_per_point", "records/point"},
	{"store.fsyncs_per_s", "1/s"},
	{"store.replay_s", "s"},
	{"store.replayed_records", "count"},
	{"service.warmed_entries", "count"},
	{"admission.shed", "count"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(context.Context, config, string, *outcome) (*runState, error){
	"solve-hot":    runSolveHot,
	"solve-cold":   runSolveCold,
	"jobs-durable": runJobsDurable,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: solve-hot, solve-cold or jobs-durable")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 30, "length of the measured window")
	fs.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics (adds the in-process traced run)")
	fs.StringVar(&cfg.bin, "daemon", ".bench_build/mus-serve", "mus-serve binary")
	fs.StringVar(&cfg.work, "workdir", ".bench_build/runs", "directory for per-run data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	body, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload solve-hot|solve-cold|jobs-durable, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	cfg.trace = traceFlag == 1
	if _, err := os.Stat(cfg.bin); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: daemon binary: %v\n", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	dir, err := runDir(cfg.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	wakeCPUs(cpuWake)
	o := &outcome{}
	st, err := body(ctx, cfg, dir, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	checkValidity(o, cfg.workload, st.layers)
	label := hostLabel(cfg.seed, cfg.bin, st.d, st.p.after, st.dataDir)
	if err := st.d.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var report strings.Builder
	report.WriteString(label)
	for _, line := range o.report {
		report.WriteString(line + "\n")
	}
	metrics := o.e2e
	defs := endToEndMetrics
	if cfg.trace {
		if metrics, err = layers(ctx, cfg, dir, st, &report); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defs = layerMetrics
	}
	fmt.Fprintf(&report, "workload=%s seed=%d seconds=%d attempted=%d failed=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, o.attempted, o.failed)
	for _, name := range sortedKeys(o.e2e) {
		fmt.Fprintf(&report, "  %-22s %.6g\n", name, o.e2e[name])
	}
	fmt.Print(report.String())
	line, err := resultLine(o, metrics, defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	if o.failed > 0 {
		return 1
	}
	return 0
}

// layers runs the traced pass of the workload and merges its metrics with
// the daemon-delta ones.
func layers(ctx context.Context, cfg config, dir string, st *runState, w *strings.Builder) (map[string]float64, error) {
	m := st.layers
	var tr *tracedResult
	var err error
	switch cfg.workload {
	case "solve-hot":
		tr, err = tracedSolve(ctx, cfg.seed, true)
	case "solve-cold":
		tr, err = tracedSolve(ctx, cfg.seed, false)
	case "jobs-durable":
		tr, err = tracedJobs(ctx, cfg.seed, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	for k, v := range tr.metrics {
		m[k] = v
	}
	m["mus-serve.self_us"] = 0
	if m["mus-serve.server_ms"] > 0 {
		m["mus-serve.self_us"] = m["mus-serve.server_ms"]*1e3 - tr.layerUs
	}
	tr.table.print(w, fmt.Sprintf("traced %s: self time per op", cfg.workload))
	fmt.Fprintf(w, "  tracing overhead: %.2f%% of the untraced in-process time per op\n", m["trace.overhead_pct"])
	if st.dataDir != "" {
		if err := tracedRestart(w, st.dataDir); err != nil {
			return nil, fmt.Errorf("traced restart: %w", err)
		}
	}
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(w, "  layer %-30s %.6g\n", name, m[name])
	}
	return m, nil
}

// cpuWake is how long every CPU is kept busy before the first set-up. On
// the machine the bounds were fitted on, a vCPU that sat idle for a few
// seconds runs at about half speed for its first second of work, which
// would land in whichever set-up comes first.
const cpuWake = 1500 * time.Millisecond

// wakeCPUs spins one goroutine per CPU for d.
func wakeCPUs(d time.Duration) {
	var wg sync.WaitGroup
	end := time.Now().Add(d)
	out := make([]float64, runtime.NumCPU())
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for time.Now().Before(end) {
				for k := 0; k < 1000; k++ {
					x = x*1.0000001 + 1e-9
				}
			}
			out[i] = x
		}()
	}
	wg.Wait()
	for _, x := range out {
		spin += x
	}
}

// spin keeps the wake-up loop from being optimised away.
var spin float64

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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

// resultLine renders the final JSON line; every listed metric must have
// been measured.
func resultLine(o *outcome, values map[string]float64, defs []metricDef) (string, error) {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if r.Attempted < 1 {
		return "", errors.New("no op attempted")
	}
	b, err := json.Marshal(r)
	return string(b), err
}
