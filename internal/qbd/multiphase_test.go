package qbd

import (
	"math"
	"testing"

	"repro/internal/dist"
)

// The paper's model allows m-phase hyperexponential repairs (§3) even
// though the numerical section uses m = 1. These tests exercise the full
// n = 2, m = 2 generality, including against the paper's own fitted
// 2-phase outage distribution.

var paperOutageH2 = dist.MustHyperExp([]float64{0.9303, 0.0697}, []float64{25.0043, 1.6346})

func TestTwoPhaseRepairSolves(t *testing.T) {
	p := paramsFor(t, 3, 1.8, 1.0, paperOps, paperOutageH2)
	if got, want := len(p.Servers.Modes()), 20; got != want { // C(3+3, 3), eq. 12
		t.Fatalf("s = %d, want %d", got, want)
	}
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	assertStationaryInvariants(t, p, sol, 1e-9)
}

func TestTwoPhaseRepairCrossMethodAgreement(t *testing.T) {
	p := paramsFor(t, 2, 1.2, 1.0, paperOps, paperOutageH2)
	sp, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := SolveTruncated(p, 200)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sp.MeanQueue() - mg.MeanQueue()); d > 1e-8 {
		t.Errorf("L spectral %v vs MG %v", sp.MeanQueue(), mg.MeanQueue())
	}
	if d := math.Abs(sp.MeanQueue() - tr.MeanQueue()); d > 1e-8 {
		t.Errorf("L spectral %v vs truncated %v", sp.MeanQueue(), tr.MeanQueue())
	}
}

func TestHyperexponentialRepairsRaiseQueue(t *testing.T) {
	// More variable repairs (same mean) should not shorten the queue —
	// the same §4 message as Figure 6, applied to the repair side.
	repMean := paperOutageH2.Mean()
	pH2 := paramsFor(t, 3, 2.0, 1.0, paperOps, paperOutageH2)
	pExp := paramsFor(t, 3, 2.0, 1.0, paperOps, dist.Exp(1/repMean))
	h2, err := SolveSpectral(pH2)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := SolveSpectral(pExp)
	if err != nil {
		t.Fatal(err)
	}
	if h2.MeanQueue() < ex.MeanQueue()-1e-9 {
		t.Errorf("H2 repairs L = %v below exponential-repair L = %v", h2.MeanQueue(), ex.MeanQueue())
	}
}

func TestThreePhaseOperativeSolves(t *testing.T) {
	// n = 3 operative phases (what the paper's brute-force fit explored).
	op3 := dist.MustHyperExp([]float64{0.5, 0.3, 0.2}, []float64{0.2, 0.02, 0.005})
	p := paramsFor(t, 2, 0.9, 1.0, op3, paperRepair)
	if got, want := len(p.Servers.Modes()), 10; got != want { // C(2+3, 3), eq. 12
		t.Fatalf("s = %d, want %d", got, want)
	}
	sol, err := SolveSpectral(p)
	if err != nil {
		t.Fatal(err)
	}
	assertStationaryInvariants(t, p, sol, 1e-9)
	mg, err := SolveMatrixGeometric(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sol.MeanQueue() - mg.MeanQueue()); d > 1e-8 {
		t.Errorf("L spectral %v vs MG %v", sol.MeanQueue(), mg.MeanQueue())
	}
}
