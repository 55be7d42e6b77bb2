package core

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/qbd"
)

// TestParamsCarryServerDescription: every Params core builds carries the
// server description, and the sweep solver accepts it, so every served
// spectral solve — /v1/solve, /v1/sweep, sweep jobs, admission refits, all
// of which build their parameters here — takes the factored stage. A zero
// phase weight is no exception: its phase is never entered, and the
// factored stage takes it as a transient phase.
func TestParamsCarryServerDescription(t *testing.T) {
	h2 := dist.MustHyperExp([]float64{0.6, 0.4}, []float64{40, 5})
	h3 := dist.MustHyperExp([]float64{0.5, 0.3, 0.2}, []float64{0.3, 0.05, 0.01})
	zero := dist.MustHyperExp([]float64{1, 0}, []float64{0.05, 0.3})
	for _, c := range []struct {
		name    string
		op, rep *dist.HyperExp
		want    bool
	}{
		{"sun", paperOps, paperRepair, true},
		{"exp/exp", dist.Exp(0.05), dist.Exp(2), true},
		{"h2 repairs", paperOps, h2, true},
		{"h3+h2", h3, h2, true},
		{"zero operative weight", zero, paperRepair, true},
		{"zero repair weight", paperOps, dist.MustHyperExp([]float64{0, 1}, []float64{40, 5}), true},
	} {
		for _, n := range []int{1, 4, 9} {
			sys := System{Servers: n, ArrivalRate: 0.5, ServiceRate: 1.3, Operative: c.op, Repair: c.rep}
			p, err := sys.Params()
			if err != nil {
				t.Fatalf("%s N=%d: %v", c.name, n, err)
			}
			if got := p.Servers != nil; got != c.want {
				t.Fatalf("%s N=%d: server description attached = %v, want %v", c.name, n, got, c.want)
			}
			if _, err := qbd.NewSweepSolver(p); err != nil {
				t.Errorf("%s N=%d: sweep solver rejects core's parameters: %v", c.name, n, err)
			}
			if _, err := NewBatchSolver(sys); err != nil {
				t.Errorf("%s N=%d: batch solver: %v", c.name, n, err)
			}
		}
	}
}

// TestParamsRejectsTooManyModes: 200 servers of 20 phases have C(219, 19)
// ≈ 4.6e26 modes, past what qbd indexes. System.Params must return qbd's
// error naming the limit instead of enumerating them.
func TestParamsRejectsTooManyModes(t *testing.T) {
	w, r := make([]float64, 10), make([]float64, 10)
	for i := range w {
		w[i], r[i] = 0.1, float64(i+1)
	}
	h10 := dist.MustHyperExp(w, r)
	sys := System{Servers: 200, ArrivalRate: 1, ServiceRate: 1, Operative: h10, Repair: h10}
	if _, err := sys.Params(); err == nil || !strings.Contains(err.Error(), "more than 2147483647 modes") {
		t.Fatalf("Params returned %v, want qbd's mode-count error", err)
	}
}
