package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Test CPU @ 2.00GHz
BenchmarkLambdaSweep/serial-8         	      10	 104910283 ns/op	 8438031 B/op	   75637 allocs/op
BenchmarkLambdaSweep/pooled-8         	      38	  29458127 ns/op	 8443132 B/op	   75684 allocs/op
BenchmarkLambdaSweep/cached-8         	   24218	     49054 ns/op	         0.9990 hitrate	   43248 B/op	     364 allocs/op
PASS
ok  	repro	5.043s
`

func TestParseBenchOutput(t *testing.T) {
	got := ParseBenchOutput(sampleOutput)
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(got))
	}
	cached := got[2]
	if cached.Name != "BenchmarkLambdaSweep/cached-8" {
		t.Errorf("name = %q", cached.Name)
	}
	if cached.Iterations != 24218 {
		t.Errorf("iterations = %d, want 24218", cached.Iterations)
	}
	for unit, want := range map[string]float64{
		"ns/op": 49054, "hitrate": 0.9990, "B/op": 43248, "allocs/op": 364,
	} {
		if v := cached.Metrics[unit]; v != want {
			t.Errorf("metric %q = %v, want %v", unit, v, want)
		}
	}
	if got[0].Metrics["ns/op"] != 104910283 {
		t.Errorf("serial ns/op = %v", got[0].Metrics["ns/op"])
	}
}

func TestParseBenchOutputIgnoresNoise(t *testing.T) {
	if got := ParseBenchOutput("PASS\nok  \trepro\t1.0s\nBenchmarkBroken abc def\n"); len(got) != 0 {
		t.Fatalf("parsed %d benchmarks from noise, want 0", len(got))
	}
}

func TestCheckZeroAlloc(t *testing.T) {
	benchmarks := []Benchmark{
		{Name: "BenchmarkSweepScalar-8", Metrics: map[string]float64{"ns/op": 5e7, "allocs/op": 1639}},
		{Name: "BenchmarkSweepBatched-8", Metrics: map[string]float64{"ns/op": 2e7, "allocs/op": 0}},
	}
	if err := checkZeroAlloc(io.Discard, benchmarks, "BenchmarkSweepBatched"); err != nil {
		t.Errorf("clean benchmark failed the gate: %v", err)
	}
	if err := checkZeroAlloc(io.Discard, benchmarks, "BenchmarkSweepScalar"); err == nil {
		t.Error("allocating benchmark passed the gate")
	}
	if err := checkZeroAlloc(io.Discard, benchmarks, "BenchmarkRenamedAway"); err == nil {
		t.Error("pattern matching nothing must fail, not pass vacuously")
	}
	if err := checkZeroAlloc(io.Discard, benchmarks, "("); err == nil {
		t.Error("invalid regex must be reported")
	}
	noMem := []Benchmark{{Name: "BenchmarkSweepBatched-8", Metrics: map[string]float64{"ns/op": 2e7}}}
	if err := checkZeroAlloc(io.Discard, noMem, "BenchmarkSweepBatched"); err == nil {
		t.Error("missing allocs/op metric must fail the gate")
	}
}

func TestBaseName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkLambdaSweep/cached-8": "BenchmarkLambdaSweep/cached",
		"BenchmarkClusterSweep/3node-4": "BenchmarkClusterSweep/3node",
		"BenchmarkPlain":                "BenchmarkPlain",
	} {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRunCompare covers the gate's verdicts: a regression beyond the
// threshold fails, an improvement or a change inside it passes, and
// benchmarks on only one side are reported (NEW, MISSING) but pass.
func TestRunCompare(t *testing.T) {
	bench := func(name string, ns float64) Benchmark {
		return Benchmark{Name: name, Iterations: 100, Metrics: map[string]float64{"ns/op": ns, "allocs/op": 0}}
	}
	for _, tc := range []struct {
		name     string
		old, new []Benchmark
		wantErr  bool
		want     []string // substrings of the report
	}{
		{
			name:    "regression beyond threshold fails",
			old:     []Benchmark{bench("BenchmarkSolve-8", 1000)},
			new:     []Benchmark{bench("BenchmarkSolve-2", 1500)},
			wantErr: true,
			want:    []string{"REGRESSION BenchmarkSolve", "+50.0%"},
		},
		{
			name: "improvement passes",
			old:  []Benchmark{bench("BenchmarkSolve-8", 1000)},
			new:  []Benchmark{bench("BenchmarkSolve-2", 600)},
			want: []string{"ok       BenchmarkSolve", "-40.0%", "(1 compared, 0 new, 0 missing)"},
		},
		{
			name: "change inside the threshold passes",
			old:  []Benchmark{bench("BenchmarkSolve-8", 1000)},
			new:  []Benchmark{bench("BenchmarkSolve-8", 1250)},
			want: []string{"ok       BenchmarkSolve", "+25.0%"},
		},
		{
			name: "new and missing benchmarks are reported and pass",
			old:  []Benchmark{bench("BenchmarkSolve-8", 1000), bench("BenchmarkRenamed-8", 500)},
			new:  []Benchmark{bench("BenchmarkSolve-8", 1000), bench("BenchmarkAdded-8", 700)},
			want: []string{
				"NEW      BenchmarkAdded", "(no baseline)",
				"MISSING  BenchmarkRenamed", "(absent from the new run)",
				"(1 compared, 1 new, 1 missing)",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name string, benches []Benchmark) string {
				raw, err := json.Marshal(Document{Suite: "test", Benchmarks: benches})
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			var out bytes.Buffer
			err := runCompare(&out, write("old.json", tc.old), write("new.json", tc.new), 0.30, "")
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v\n%s", err, tc.wantErr, out.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("report lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}
