package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Span is one timed call the traced run made into a layer's public API.
// Spans of one operation share a TraceID; Parent indexes the enclosing span
// in the recorder (-1 for an operation's root).
type Span struct {
	Name    string
	TraceID uint64
	Parent  int
	Start   time.Duration // since the recorder's epoch
	End     time.Duration
}

// recorder keeps spans in memory; nothing is written until the run ends.
// It is used from one goroutine.
type recorder struct {
	epoch time.Time
	spans []Span
	trace uint64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]Span, 0, 1<<14)}
}

// root opens a new operation: a fresh trace ID and its root span.
func (r *recorder) root(name string) int {
	r.trace++
	return r.start(name, -1)
}

// start opens a child span of parent (or a root when parent is -1) in the
// current operation's trace and returns its index.
func (r *recorder) start(name string, parent int) int {
	r.spans = append(r.spans, Span{Name: name, TraceID: r.trace, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].End = time.Since(r.epoch) }

// selfTimes returns each span's duration minus the part of its interval
// covered by the union of its children — overlapping children (concurrent
// calls) are counted once, and a child running past its parent is clipped.
func selfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		self[i] = s.End - s.Start - unionLength(iv)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			if x[1] > curB {
				curB = x[1]
			}
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerRow is one line of a self-time table.
type layerRow struct {
	Name  string
	Calls int
	Self  time.Duration // total self time across the pass
}

// layerTable aggregates self time by span name. Each root span is one
// traced operation unless opsPerRoot says a root carries several (a sweep
// job carries one op per grid point).
type layerTable struct {
	roots      int
	opsPerRoot int
	rows       map[string]*layerRow
}

func newLayerTable(spans []Span) *layerTable {
	t := &layerTable{rows: make(map[string]*layerRow), opsPerRoot: 1}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Parent < 0 {
			t.roots++
		}
		t.add(s.Name, 1, self[i])
	}
	return t
}

func (t *layerTable) ops() int { return t.roots * t.opsPerRoot }

func (t *layerTable) add(name string, calls int, self time.Duration) {
	r := t.rows[name]
	if r == nil {
		r = &layerRow{Name: name}
		t.rows[name] = r
	}
	r.Calls += calls
	r.Self += self
}

// attributeInner moves time measured for an inner call, timed on the same
// inputs in its own pass, out of the self time of the outer span that
// makes it internally: perCall is the inner call's mean time and
// callsPerOuter how often one outer call makes it.
func (t *layerTable) attributeInner(outer, inner string, perCall time.Duration, callsPerOuter int) {
	o := t.rows[outer]
	if o == nil {
		return
	}
	calls := o.Calls * callsPerOuter
	moved := time.Duration(calls) * perCall
	o.Self -= moved
	t.add(inner, calls, moved)
}

// perCall is a layer's mean self time per call, 0 when never called.
func (t *layerTable) perCall(name string) time.Duration {
	r := t.rows[name]
	if r == nil || r.Calls == 0 {
		return 0
	}
	return r.Self / time.Duration(r.Calls)
}

// perOp is a layer's self time per operation.
func (t *layerTable) perOp(name string) time.Duration {
	r := t.rows[name]
	if r == nil || t.ops() == 0 {
		return 0
	}
	return r.Self / time.Duration(t.ops())
}

func (t *layerTable) total() time.Duration {
	var sum time.Duration
	for _, r := range t.rows {
		sum += r.Self
	}
	return sum
}

// print writes the table: calls, self time per operation and share of the
// per-operation total, largest share first.
func (t *layerTable) print(w io.Writer, title string) {
	rows := make([]*layerRow, 0, len(t.rows))
	for _, r := range t.rows {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Self > rows[b].Self })
	total := t.total()
	fmt.Fprintf(w, "%s (%d ops)\n", title, t.ops())
	fmt.Fprintf(w, "  %-24s %10s %14s %8s\n", "span", "calls", "self/op", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Self) / float64(total)
		}
		perOp := time.Duration(0)
		if t.ops() > 0 {
			perOp = r.Self / time.Duration(t.ops())
		}
		fmt.Fprintf(w, "  %-24s %10d %14s %7.1f%%\n", r.Name, r.Calls, perOp, share)
	}
}
