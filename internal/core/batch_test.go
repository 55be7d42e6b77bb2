package core

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/qbd"
)

// sameF64 matches the equivalence contract of the batched solver:
// bit-identical on amd64, 1e-12 relative elsewhere (where compiler FMA
// contraction may round a reused and a fresh solve differently).
func sameF64(a, b float64) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= 1e-12*(1+math.Abs(a))
}

// TestBatchSolverMatchesSystemSolve checks BatchSolver.Solve, which reuses
// pooled workers, against System.Solve, a fresh one-shot solve, across a
// λ-grid: every Performance field, queue probabilities and tails, mode
// marginals and the operative breakdown must match bit for bit, and error
// cases (invalid and unstable rates) must produce the one-shot solve's
// exact errors.
func TestBatchSolverMatchesSystemSolve(t *testing.T) {
	base := fig5System(5, 1)
	bs, err := NewBatchSolver(base)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Modes() != 21 { // (N+1)(N+2)/2 with N=5
		t.Fatalf("Modes() = %d, want 21", bs.Modes())
	}
	for g := 0; g < 16; g++ {
		lambda := 0.3 + 4.4*float64(g)/15
		sys := base
		sys.ArrivalRate = lambda
		want, wantErr := sys.Solve()
		got, gotErr := bs.Solve(lambda)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("λ=%v: scalar err %v, batch err %v", lambda, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("λ=%v: error text %q vs %q", lambda, wantErr, gotErr)
			}
			continue
		}
		checks := []struct {
			name      string
			want, got float64
		}{
			{"MeanJobs", want.MeanJobs, got.MeanJobs},
			{"MeanResponse", want.MeanResponse, got.MeanResponse},
			{"TailDecay", want.TailDecay, got.TailDecay},
			{"Load", want.Load, got.Load},
		}
		for _, c := range checks {
			if !sameF64(c.want, c.got) {
				t.Fatalf("λ=%v: %s %v vs %v", lambda, c.name, c.want, c.got)
			}
		}
		for j := 0; j <= 12; j++ {
			if !sameF64(want.QueueProb(j), got.QueueProb(j)) {
				t.Fatalf("λ=%v: QueueProb(%d) %v vs %v", lambda, j, want.QueueProb(j), got.QueueProb(j))
			}
			if !sameF64(want.QueueTail(j), got.QueueTail(j)) {
				t.Fatalf("λ=%v: QueueTail(%d) %v vs %v", lambda, j, want.QueueTail(j), got.QueueTail(j))
			}
		}
		wm, gm := want.ModeMarginals(), got.ModeMarginals()
		for i := range wm {
			if !sameF64(wm[i], gm[i]) {
				t.Fatalf("λ=%v: marginal %d %v vs %v", lambda, i, wm[i], gm[i])
			}
		}
		wo, po := want.OperativeBreakdown(), got.OperativeBreakdown()
		for i := range wo {
			if wo[i].Operative != po[i].Operative || !sameF64(wo[i].Prob, po[i].Prob) {
				t.Fatalf("λ=%v: breakdown %d %+v vs %+v", lambda, i, wo[i], po[i])
			}
		}
	}
}

// TestSolveSteadyMatchesSolve checks BatchSolver.SolveSteady, which reuses
// a pooled worker together with its solution, against
// Solve(λ).SteadyState() across a λ-grid that runs past the stability
// limit and includes invalid rates: the four fields must match bit for
// bit, no solution may be kept, and every error must be Solve's, text
// included. The grid is then solved again from eight goroutines at once,
// so pooled pairs are checked in and out concurrently: a pair shared or
// torn between two points shows as a wrong L (and to -race).
func TestSolveSteadyMatchesSolve(t *testing.T) {
	bs, err := NewBatchSolver(fig5System(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{-1, 0, math.NaN(), math.Inf(1)}
	for g := 0; g < 24; g++ {
		rates = append(rates, 0.2+6*float64(g)/23)
	}
	for _, lambda := range rates {
		full, wantErr := bs.Solve(lambda)
		got, gotErr := bs.SolveSteady(lambda)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("λ=%v: Solve err %v, SolveSteady err %v", lambda, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("λ=%v: error text %q vs %q", lambda, wantErr, gotErr)
			}
			continue
		}
		want := full.SteadyState()
		if !sameF64(want.MeanJobs, got.MeanJobs) || !sameF64(want.MeanResponse, got.MeanResponse) ||
			!sameF64(want.TailDecay, got.TailDecay) || !sameF64(want.Load, got.Load) {
			t.Fatalf("λ=%v: SolveSteady %+v, Solve(λ).SteadyState() %+v", lambda, *got, *want)
		}
		if got.Solution() != nil {
			t.Fatalf("λ=%v: SolveSteady kept a solution", lambda)
		}
	}
	want := make([]float64, len(rates))
	for i, lambda := range rates {
		if perf, err := bs.Solve(lambda); err == nil {
			want[i] = perf.MeanJobs
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range rates {
				i := (k + 3*g) % len(rates)
				perf, err := bs.SolveSteady(rates[i])
				if err == nil && !sameF64(perf.MeanJobs, want[i]) {
					t.Errorf("goroutine %d λ=%v: L %v, want %v", g, rates[i], perf.MeanJobs, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchSolverErrorParity checks that per-point errors carry the
// scalar path's exact text and types — invalid rate, then unstable rate.
func TestBatchSolverErrorParity(t *testing.T) {
	base := fig5System(3, 1)
	bs, err := NewBatchSolver(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0, -1.5, 50, math.Inf(1)} {
		sys := base
		sys.ArrivalRate = lambda
		_, wantErr := sys.Solve()
		_, gotErr := bs.Solve(lambda)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("λ=%v: expected errors, got scalar %v, batch %v", lambda, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("λ=%v: error text %q vs %q", lambda, wantErr, gotErr)
		}
		if errors.Is(wantErr, qbd.ErrUnstable) != errors.Is(gotErr, qbd.ErrUnstable) {
			t.Fatalf("λ=%v: ErrUnstable identity differs", lambda)
		}
	}
}

// TestNonFiniteRatesRejected is the regression test for NaN and infinite
// rates, which used to pass validation (x <= 0 is false for NaN) and then
// iterate QR to its budget before failing with ErrNoConvergence. Every
// entry point must return the validation error instead — one-shot and
// batched alike, so their errors stay identical.
func TestNonFiniteRatesRejected(t *testing.T) {
	base := fig5System(3, 1)
	bs, err := NewBatchSolver(base)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, lambda := range []float64{nan, inf, -inf} {
		sys := base
		sys.ArrivalRate = lambda
		want := sys.Validate()
		if want == nil || !strings.Contains(want.Error(), "arrival rate") ||
			!strings.Contains(want.Error(), "must be positive and finite") {
			t.Fatalf("λ=%v: Validate returned %v", lambda, want)
		}
		_, scalarErr := sys.Solve()
		_, batchErr := bs.Solve(lambda)
		for _, err := range []error{scalarErr, batchErr} {
			if err == nil || err.Error() != want.Error() || errors.Is(err, linalg.ErrNoConvergence) {
				t.Fatalf("λ=%v: got %v, want the validation error %q", lambda, err, want)
			}
		}
	}
	for _, mu := range []float64{nan, inf} {
		sys := base
		sys.ServiceRate = mu
		want := sys.Validate()
		if want == nil || !strings.Contains(want.Error(), "service rate") ||
			!strings.Contains(want.Error(), "must be positive and finite") {
			t.Fatalf("µ=%v: Validate returned %v", mu, want)
		}
		if _, err := sys.Solve(); err == nil || err.Error() != want.Error() {
			t.Fatalf("µ=%v: Solve returned %v, want %q", mu, err, want)
		}
		if _, err := NewBatchSolver(sys); err == nil || err.Error() != want.Error() {
			t.Fatalf("µ=%v: NewBatchSolver returned %v, want %q", mu, err, want)
		}
	}
}

// TestBatchSolverFromNaNBaseRate checks that a solver hoisted from a base
// system whose rate is NaN — the rate is ignored at construction — still
// solves valid rates, bit-identical to a one-shot System.Solve. A
// NaN-unsafe probe guard would fail construction and push every later
// point of the environment onto the engine's fallback, which solves
// without the hoisted solver.
func TestBatchSolverFromNaNBaseRate(t *testing.T) {
	base := fig5System(3, math.NaN())
	bs, err := NewBatchSolver(base)
	if err != nil {
		t.Fatalf("NaN base rate must not fail construction: %v", err)
	}
	for _, lambda := range []float64{0.7, 1.9} {
		sys := base
		sys.ArrivalRate = lambda
		want, err := sys.Solve()
		if err != nil {
			t.Fatal(err)
		}
		got, err := bs.Solve(lambda)
		if err != nil {
			t.Fatal(err)
		}
		if !sameF64(want.MeanJobs, got.MeanJobs) || !sameF64(want.TailDecay, got.TailDecay) {
			t.Fatalf("λ=%v: %+v vs %+v", lambda, want, got)
		}
	}
}

// TestNewBatchSolverRejectsBadSystem checks that structural problems are
// reported at construction, not deferred to every point.
func TestNewBatchSolverRejectsBadSystem(t *testing.T) {
	bad := System{Servers: 0, ArrivalRate: 1, ServiceRate: 1, Operative: paperOps, Repair: paperRepair}
	if _, err := NewBatchSolver(bad); err == nil {
		t.Fatal("expected construction error for zero servers")
	}
	// ArrivalRate is allowed to be unset at construction; rates come per point.
	ok := fig5System(2, 0)
	if _, err := NewBatchSolver(ok); err != nil {
		t.Fatalf("zero arrival rate at construction should be accepted: %v", err)
	}
}

// TestEnvFingerprintGroupsSweeps pins the grouping property the service
// layer batches on: λ changes leave EnvFingerprint fixed, while any
// environment change moves it, and the two key families never collide.
func TestEnvFingerprintGroupsSweeps(t *testing.T) {
	a := fig5System(5, 1)
	b := fig5System(5, 4.2)
	if a.EnvFingerprint() != b.EnvFingerprint() {
		t.Fatal("EnvFingerprint must ignore the arrival rate")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("Fingerprint must include the arrival rate")
	}
	if a.Fingerprint() == a.EnvFingerprint() {
		t.Fatal("fingerprint families must not collide")
	}
	c := fig5System(6, 1)
	if a.EnvFingerprint() == c.EnvFingerprint() {
		t.Fatal("EnvFingerprint must include the server count")
	}
	d := a
	d.ServiceRate = 2
	if a.EnvFingerprint() == d.EnvFingerprint() {
		t.Fatal("EnvFingerprint must include the service rate")
	}
}
