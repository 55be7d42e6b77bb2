package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func ms2d(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "op", Parent: -1, Start: 0, End: ms2d(10)},
		{Name: "a", Parent: 0, Start: ms2d(1), End: ms2d(4)},
		{Name: "b", Parent: 0, Start: ms2d(3), End: ms2d(6)},  // overlaps a: union [1,6]
		{Name: "c", Parent: 0, Start: ms2d(8), End: ms2d(12)}, // runs past its parent: clipped to [8,10]
		{Name: "d", Parent: 1, Start: ms2d(2), End: ms2d(3)},  // grandchild, inside a
	}
	self := selfTimes(spans)
	want := []time.Duration{ms2d(3), ms2d(2), ms2d(3), ms2d(4), ms2d(1)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestUnionLength(t *testing.T) {
	iv := [][2]time.Duration{{5, 7}, {1, 3}, {2, 4}, {7, 8}, {10, 11}}
	if got := unionLength(iv); got != 3+3+1 { // [1,4] + [5,8] + [10,11]
		t.Errorf("unionLength = %v, want 7", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("unionLength(nil) = %v", got)
	}
}

func TestLayerTableAttributesInnerCalls(t *testing.T) {
	var spans []Span
	for op := 0; op < 2; op++ {
		base := ms2d(float64(op * 100))
		root := len(spans)
		spans = append(spans,
			Span{Name: "op", Parent: -1, Start: base, End: base + ms2d(10)},
			Span{Name: "service.evaluate", Parent: root, Start: base + ms2d(1), End: base + ms2d(9)},
		)
	}
	tb := newLayerTable(spans)
	// Each evaluate makes one inner 5ms solve, timed in its own pass.
	tb.attributeInner("service.evaluate", "core.solve", ms2d(5), 1)
	if got := tb.perCall("service.evaluate"); got != ms2d(3) {
		t.Errorf("evaluate self per call = %v, want 3ms", got)
	}
	if got := tb.perCall("core.solve"); got != ms2d(5) {
		t.Errorf("solve per call = %v, want 5ms", got)
	}
	if got := tb.perOp("op"); got != ms2d(2) {
		t.Errorf("op self per op = %v, want 2ms", got)
	}
	if tb.total() != ms2d(20) {
		t.Errorf("total = %v, want the roots' 20ms", tb.total())
	}
	tb.opsPerRoot = 4
	if got := tb.perOp("core.solve"); got != ms2d(1.25) {
		t.Errorf("solve per op with 4 ops per root = %v, want 1.25ms", got)
	}
	var b strings.Builder
	tb.print(&b, "t")
	if !strings.Contains(b.String(), "core.solve") || !strings.Contains(b.String(), "(8 ops)") {
		t.Errorf("table print:\n%s", b.String())
	}
}

func TestRecorderSharesTraceIDPerOp(t *testing.T) {
	r := newRecorder()
	a := r.root("op")
	c := r.start("child", a)
	r.end(c)
	r.end(a)
	b := r.root("op")
	r.end(b)
	if r.spans[a].TraceID != r.spans[c].TraceID || r.spans[a].TraceID == r.spans[b].TraceID {
		t.Errorf("trace IDs: %+v", r.spans)
	}
	if r.spans[c].Parent != a || r.spans[a].Parent != -1 {
		t.Errorf("parents: %+v", r.spans)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program reports
// and the ones BENCHMARK.json declares identical.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory:", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndMetrics)
	check("per_layer", bench.PerLayer, layerMetrics)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
}
