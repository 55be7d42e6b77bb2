// Cost optimisation: "if there is a trade-off between the cost of making
// jobs wait and that of providing servers, what is the optimal number of
// servers?" — the paper's third introduction question (eq. 22, Figure 5).
//
// The example reproduces Figure 5's optima and then shows how the optimum
// moves when the holding-cost/server-cost ratio changes. Every search
// spans N ∈ [1, 64]; the bound L ≥ λ/µ keeps each to the few N that can
// win.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/dist"
)

func main() {
	base := core.System{
		ServiceRate: 1,
		Operative:   dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091}),
		Repair:      dist.Exp(25),
	}

	// Part 1: the paper's Figure 5 — c1 = 4, c2 = 1.
	cm := core.CostModel{HoldingCost: 4, ServerCost: 1}
	fmt.Println("Figure 5 reproduction (c1 = 4, c2 = 1):")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "λ\toptimal N\tcost C\tL at optimum\tpaper optimum")
	paper := map[float64]int{7: 11, 8: 12, 8.5: 13}
	for _, lambda := range []float64{7, 8, 8.5} {
		sys := base
		sys.ArrivalRate = lambda
		best, err := core.OptimizeServers(sys, cm, 1, 64, core.Spectral)
		if err != nil {
			log.Fatalf("λ=%v: %v", lambda, err)
		}
		fmt.Fprintf(w, "%.1f\t%d\t%.3f\t%.3f\t%d\n",
			lambda, best.Servers, best.Cost, best.Perf.MeanJobs, paper[lambda])
	}
	w.Flush()

	// Part 2: sensitivity — how the optimum moves with the cost ratio.
	fmt.Println("\nSensitivity of the optimum to the cost ratio c1/c2 (λ = 8):")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "c1/c2\toptimal N\tcost\tuser share c1·L\tprovider share c2·N")
	sys := base
	sys.ArrivalRate = 8
	for _, ratio := range []float64{1, 2, 4, 8, 16, 32} {
		cm := core.CostModel{HoldingCost: ratio, ServerCost: 1}
		best, err := core.OptimizeServers(sys, cm, 1, 64, core.Spectral)
		if err != nil {
			log.Fatalf("ratio %v: %v", ratio, err)
		}
		fmt.Fprintf(w, "%.0f\t%d\t%.2f\t%.2f\t%d\n",
			ratio, best.Servers, best.Cost, ratio*best.Perf.MeanJobs, best.Servers)
	}
	w.Flush()
	fmt.Println("\nThe dearer the waiting relative to hardware, the more servers the optimum buys —")
	fmt.Println("and the heavier the load, the larger the optimal cluster (the paper's observation).")
}
