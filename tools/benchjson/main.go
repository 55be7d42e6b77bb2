// Command benchjson records the repo's performance trajectory: it runs a
// `go test -bench` suite, parses the standard benchmark output (including
// custom b.ReportMetric units like hitrate and points/s) into a stable
// JSON document, and compares two such documents for regressions.
//
// Record a suite:
//
//	go run ./tools/benchjson -bench BenchmarkLambdaSweep -pkg . -out BENCH_sweep.json
//	go run ./tools/benchjson -bench BenchmarkClusterSweep -pkg ./cmd/mus-serve -out BENCH_cluster.json
//
// Gate a change (exit 1 when any benchmark's ns/op regressed by more than
// -threshold relative to the committed baseline):
//
//	go run ./tools/benchjson -compare -old BENCH_sweep.json -new BENCH_sweep.new.json -threshold 0.30
//
// Compare mode can additionally gate allocation-freedom: every benchmark
// in -new whose name matches -zeroalloc must report exactly 0 allocs/op,
// and at least one benchmark must match (a typo'd pattern that matches
// nothing would otherwise pass vacuously):
//
//	go run ./tools/benchjson -compare -old ... -new ... -zeroalloc BenchmarkSweepBatched
//
// Benchmark names are matched with the trailing GOMAXPROCS suffix
// stripped ("/cached-8" equals "/cached-4"), so baselines recorded on one
// machine compare on another. Benchmarks present on only one side are
// reported — NEW for a benchmark without a baseline, MISSING for a
// baseline the new run lacks (renamed or removed) — but never fail the
// gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result: the full name as printed
// (GOMAXPROCS suffix included) and every value-unit pair on its line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Document is one recorded suite run.
type Document struct {
	Suite      string      `json:"suite"`
	Package    string      `json:"package"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Generated  time.Time   `json:"generated"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		bench     = flag.String("bench", "", "benchmark regex to run (go test -bench)")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		benchtime = flag.String("benchtime", "", "per-benchmark time or iteration budget (go test -benchtime)")
		out       = flag.String("out", "", "output JSON path (default stdout)")
		compare   = flag.Bool("compare", false, "compare -old against -new instead of running")
		oldPath   = flag.String("old", "", "baseline JSON (compare mode)")
		newPath   = flag.String("new", "", "candidate JSON (compare mode)")
		threshold = flag.Float64("threshold", 0.30, "max tolerated ns/op regression, relative (0.30 = +30%)")
		zeroalloc = flag.String("zeroalloc", "", "regex of benchmarks that must report 0 allocs/op in -new (compare mode)")
	)
	flag.Parse()
	if *compare {
		if err := runCompare(os.Stdout, *oldPath, *newPath, *threshold, *zeroalloc); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -bench is required (or -compare)")
		os.Exit(2)
	}
	if err := runRecord(*bench, *pkg, *benchtime, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runRecord executes the suite and writes its JSON document.
func runRecord(bench, pkg, benchtime, out string) error {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", pkg}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	benchmarks := ParseBenchOutput(string(raw))
	if len(benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in go test output (suite %q, package %q)", bench, pkg)
	}
	doc := Document{
		Suite:      bench,
		Package:    pkg,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Generated:  time.Now().UTC().Truncate(time.Second),
		Benchmarks: benchmarks,
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// benchLineRE matches the name and iteration count of one benchmark
// output line; the value-unit pairs after it are split by whitespace.
var benchLineRE = regexp.MustCompile(`^(Benchmark\S*)\s+(\d+)\s+(.+)$`)

// ParseBenchOutput extracts every benchmark result line from `go test
// -bench` output. Each line carries alternating value/unit tokens after
// the iteration count ("123456 ns/op 0 B/op 0.97 hitrate"); all pairs are
// recorded, so custom ReportMetric units travel with the standard ones.
func ParseBenchOutput(out string) []Benchmark {
	var res []Benchmark
	for _, line := range strings.Split(out, "\n") {
		m := benchLineRE.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		fields := strings.Fields(m[3])
		metrics := make(map[string]float64, len(fields)/2)
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		if len(metrics) == 0 {
			continue
		}
		res = append(res, Benchmark{Name: m[1], Iterations: iters, Metrics: metrics})
	}
	return res
}

// baseName strips the trailing GOMAXPROCS suffix ("-8") so baselines
// recorded on machines with different core counts still match.
var procSuffixRE = regexp.MustCompile(`-\d+$`)

func baseName(name string) string { return procSuffixRE.ReplaceAllString(name, "") }

// runCompare diffs two documents on ns/op, writing one line per benchmark
// to w, and fails when any benchmark present in both regressed beyond the
// threshold, or when a benchmark matching the zeroalloc pattern reports a
// non-zero allocs/op.
func runCompare(w io.Writer, oldPath, newPath string, threshold float64, zeroalloc string) error {
	if oldPath == "" || newPath == "" {
		return fmt.Errorf("-compare needs both -old and -new")
	}
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		return err
	}
	if zeroalloc != "" {
		if err := checkZeroAlloc(w, newDoc.Benchmarks, zeroalloc); err != nil {
			return err
		}
	}
	oldBy := make(map[string]Benchmark, len(oldDoc.Benchmarks))
	for _, b := range oldDoc.Benchmarks {
		oldBy[baseName(b.Name)] = b
	}
	var regressions []string
	names := make([]string, 0, len(newDoc.Benchmarks))
	byName := make(map[string]Benchmark, len(newDoc.Benchmarks))
	for _, b := range newDoc.Benchmarks {
		n := baseName(b.Name)
		names = append(names, n)
		byName[n] = b
	}
	sort.Strings(names)
	compared := 0
	for _, n := range names {
		nb := byName[n]
		ob, ok := oldBy[n]
		if !ok {
			fmt.Fprintf(w, "NEW      %-55s %12.0f ns/op (no baseline)\n", n, nb.Metrics["ns/op"])
			continue
		}
		compared++
		oldNs, newNs := ob.Metrics["ns/op"], nb.Metrics["ns/op"]
		if oldNs <= 0 || newNs <= 0 {
			continue
		}
		delta := (newNs - oldNs) / oldNs
		verdict := "ok"
		if delta > threshold {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f → %.0f ns/op (%+.1f%%, threshold %+.0f%%)", n, oldNs, newNs, 100*delta, 100*threshold))
		}
		fmt.Fprintf(w, "%-8s %-55s %12.0f → %12.0f ns/op  %+7.1f%%\n", verdict, n, oldNs, newNs, 100*delta)
	}
	missing := make([]string, 0, len(oldBy))
	for n := range oldBy {
		if _, ok := byName[n]; !ok {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	for _, n := range missing {
		fmt.Fprintf(w, "MISSING  %-55s %12.0f ns/op (absent from the new run)\n", n, oldBy[n].Metrics["ns/op"])
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed:\n  %s", len(regressions), strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(w, "no ns/op regression beyond %+.0f%% (%d compared, %d new, %d missing)\n",
		100*threshold, compared, len(names)-compared, len(missing))
	return nil
}

// checkZeroAlloc enforces the allocation-free gate: every candidate
// benchmark matching pattern must report exactly 0 allocs/op; each that
// does is listed on w. A pattern that matches no benchmark is itself an
// error — it means the gated benchmark was renamed or dropped, and the
// gate would otherwise pass without checking anything.
func checkZeroAlloc(w io.Writer, benchmarks []Benchmark, pattern string) error {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return fmt.Errorf("-zeroalloc pattern: %w", err)
	}
	matched := 0
	var dirty []string
	for _, b := range benchmarks {
		if !re.MatchString(baseName(b.Name)) {
			continue
		}
		matched++
		allocs, ok := b.Metrics["allocs/op"]
		if !ok {
			dirty = append(dirty, fmt.Sprintf("%s: no allocs/op recorded (run with -benchmem)", b.Name))
		} else if allocs != 0 {
			dirty = append(dirty, fmt.Sprintf("%s: %.0f allocs/op, want 0", b.Name, allocs))
		} else {
			fmt.Fprintf(w, "ZEROALLOC %-54s 0 allocs/op\n", baseName(b.Name))
		}
	}
	if matched == 0 {
		return fmt.Errorf("-zeroalloc %q matched no benchmark in the candidate document", pattern)
	}
	if len(dirty) > 0 {
		return fmt.Errorf("%d benchmark(s) failed the zero-allocation gate:\n  %s", len(dirty), strings.Join(dirty, "\n  "))
	}
	return nil
}

// readDoc loads one recorded suite document.
func readDoc(path string) (Document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return Document{}, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}
