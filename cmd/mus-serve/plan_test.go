package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/service"
	"repro/internal/service/jobs"
)

// admissionServer builds a standalone mus-serve with the admission
// controller attached but never started — tests drive Refit directly (or
// not at all, for the no-model error contract).
func admissionServer(t *testing.T) (*httptest.Server, *server, *admission.Controller) {
	t.Helper()
	eng := service.NewEngine(service.Config{})
	sched := jobs.New(jobs.Config{Engine: eng})
	t.Cleanup(sched.Close)
	srv := newServerJobs(eng, sched)
	ctl := srv.attachAdmission(admission.Config{Interval: -1})
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv, ctl
}

// fitController swaps a deterministically fitted controller into srv: two
// manual refits 10 s apart see 5 arrivals and 10 completions over one busy
// worker, so the published model has λ̂ = 0.5 and µ̂ = 1.0 exactly, giving
// Capacity ≈ servers·µ̂ jobs/s (availability ≈ 1 with the default ξ̂, η̂)
// and Limit ≈ Capacity·targetWait. The backlog observed at fit time is 10.
func fitController(t *testing.T, srv *server, servers int, targetWait time.Duration) *admission.Controller {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	flow := admission.Flow{Busy: 1, Servers: servers}
	ctl := admission.New(admission.Config{
		Sample:     func() admission.Flow { return flow },
		Evaluate:   srv.eng.Evaluate,
		Interval:   -1,
		TargetWait: targetWait,
		Now:        func() time.Time { return now },
	})
	if err := ctl.Refit(context.Background()); err != nil {
		t.Fatal(err)
	}
	now = now.Add(10 * time.Second)
	flow = admission.Flow{Arrivals: 5, Completions: 10, Busy: 1, Servers: servers, Backlog: 10}
	if err := ctl.Refit(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ctl.Snapshot() == nil {
		t.Fatal("no model published after two refits")
	}
	srv.adm = ctl
	return ctl
}

// TestPlanFigure5Agreement is the planning acceptance criterion: /v1/plan
// fed the paper's §5 parameters (c₁ = 4, c₂ = 1, η = 25, fitted Sun
// operative periods) answers with exactly the cost-optimal N that
// core.OptimizeServers finds offline — which is the paper's own Figure 5
// optimum for each arrival rate.
func TestPlanFigure5Agreement(t *testing.T) {
	ts := testServer(t)
	c := client.New(ts.URL)
	ctx := context.Background()
	cm := core.CostModel{HoldingCost: 4, ServerCost: 1}
	for _, tc := range []struct {
		lambda float64
		paperN int
	}{
		{7.0, 11},
		{8.0, 12},
		{8.5, 13},
	} {
		resp, err := c.Plan(ctx, api.PlanRequest{
			System:      api.System{Lambda: tc.lambda},
			HoldingCost: 4, ServerCost: 1,
			MinServers: 9, MaxServers: 17,
		})
		if err != nil {
			t.Fatalf("λ=%v: %v", tc.lambda, err)
		}
		base, err := (api.System{Servers: 1, Lambda: tc.lambda}).ToSystem()
		if err != nil {
			t.Fatal(err)
		}
		best, err := core.OptimizeServers(base, cm, 9, 17, core.Spectral)
		if err != nil {
			t.Fatalf("λ=%v offline: %v", tc.lambda, err)
		}
		if resp.Servers != best.Servers || resp.Servers != tc.paperN {
			t.Errorf("λ=%v: plan N = %d, offline N = %d, Figure 5 N = %d",
				tc.lambda, resp.Servers, best.Servers, tc.paperN)
		}
		if resp.Cost == nil || math.Abs(*resp.Cost-best.Cost) > 1e-9 {
			t.Errorf("λ=%v: plan cost %v, offline cost %v", tc.lambda, resp.Cost, best.Cost)
		}
		if resp.Source != api.PlanSourceRequest {
			t.Errorf("λ=%v: source %q, want %q", tc.lambda, resp.Source, api.PlanSourceRequest)
		}
		if resp.Rates.Lambda != tc.lambda {
			t.Errorf("λ=%v: echoed λ = %v", tc.lambda, resp.Rates.Lambda)
		}
		if resp.MinStable < 1 || resp.MinStable > resp.Servers {
			t.Errorf("λ=%v: min_stable %d outside [1, %d]", tc.lambda, resp.MinStable, resp.Servers)
		}
	}
}

// TestPlanTargetResponseAgreement pins the SLA mode against the Figure 9
// scenario (λ = 7.5, η = 25, W ≤ 1.5): the plan must return the same
// smallest satisfying N as core.MinServersForResponseTime offline — the
// paper reads 9 off the figure.
func TestPlanTargetResponseAgreement(t *testing.T) {
	ts := testServer(t)
	c := client.New(ts.URL)
	resp, err := c.Plan(context.Background(), api.PlanRequest{
		System:         api.System{Lambda: 7.5},
		TargetResponse: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := (api.System{Servers: 1, Lambda: 7.5}).ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	off, err := core.MinServersForResponseTime(base, 1.5, 64, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Servers != off.Servers || resp.Servers != 9 {
		t.Errorf("plan N = %d, offline N = %d, Figure 9 reads 9", resp.Servers, off.Servers)
	}
	if resp.Perf.MeanResponse > 1.5 {
		t.Errorf("planned W = %v exceeds the 1.5 target", resp.Perf.MeanResponse)
	}
}

// TestPlanErrorContract pins the endpoint's failure taxonomy over raw HTTP:
// malformed objectives are 400 invalid_argument, measured mode without the
// admission controller is 400, and a well-formed plan whose constraints
// cannot be met inside the range is 422 unsatisfiable.
func TestPlanErrorContract(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name   string
		body   string
		status int
		code   api.Code
	}{
		{"no objective", `{"lambda": 2}`, http.StatusBadRequest, api.CodeInvalidArgument},
		{"inverted range", `{"lambda": 2, "holding_cost": 4, "server_cost": 1, "min_servers": 5, "max_servers": 2}`,
			http.StatusBadRequest, api.CodeInvalidArgument},
		{"negative target", `{"lambda": 2, "target_response": -1}`, http.StatusBadRequest, api.CodeInvalidArgument},
		{"measured without admission", `{"measured": true, "holding_cost": 4, "server_cost": 1}`,
			http.StatusBadRequest, api.CodeInvalidArgument},
		{"no stable N in range", `{"lambda": 100, "holding_cost": 4, "server_cost": 1, "max_servers": 2}`,
			http.StatusUnprocessableEntity, api.CodeUnsatisfiable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, env := postForError(t, ts.URL+api.PathPlan, tc.body)
			if status != tc.status {
				t.Errorf("status = %d, want %d", status, tc.status)
			}
			if env.Error == nil || env.Error.Code != tc.code {
				t.Errorf("envelope %+v, want code %q", env, tc.code)
			}
		})
	}
}

// TestPlanMeasuredNoModel: measured mode on a node whose controller has
// not fitted yet (first window after boot) is a 422 — the tier cannot
// answer about itself before it has measured itself.
func TestPlanMeasuredNoModel(t *testing.T) {
	ts, _, _ := admissionServer(t)
	c := client.New(ts.URL)
	_, err := c.Plan(context.Background(), api.PlanRequest{Measured: true, HoldingCost: 4, ServerCost: 1})
	if errCode(t, err) != api.CodeUnsatisfiable {
		t.Fatalf("measured plan before first fit: %v, want unsatisfiable", err)
	}
}

// TestPlanMeasuredStandalone closes the self-modeling loop on one node:
// the plan's rates are the controller's fitted λ̂, µ̂ — not anything from
// the request body — and the recommendation equals the offline optimum
// for exactly that fitted system.
func TestPlanMeasuredStandalone(t *testing.T) {
	ts, srv, _ := admissionServer(t)
	fitController(t, srv, 2, 0)
	c := client.New(ts.URL)
	resp, err := c.Plan(context.Background(), api.PlanRequest{
		Measured:    true,
		HoldingCost: 4, ServerCost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != api.PlanSourceMeasured || resp.Nodes != 1 {
		t.Errorf("source %q over %d nodes, want measured over 1", resp.Source, resp.Nodes)
	}
	if math.Abs(resp.Rates.Lambda-0.5) > 1e-9 || math.Abs(resp.Rates.Mu-1.0) > 1e-9 {
		t.Errorf("fitted rates λ̂=%v µ̂=%v, want 0.5 and 1.0", resp.Rates.Lambda, resp.Rates.Mu)
	}
	base := measuredBase(resp.Rates)
	best, err := core.OptimizeServers(base, core.CostModel{HoldingCost: 4, ServerCost: 1}, 1, 64, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Servers != best.Servers {
		t.Errorf("plan N = %d, offline N = %d for the same fitted system", resp.Servers, best.Servers)
	}
	if resp.Cost == nil || math.Abs(*resp.Cost-best.Cost) > 1e-9 {
		t.Errorf("plan cost %v, offline cost %v", resp.Cost, best.Cost)
	}
}

// measuredBase rebuilds the single-server base system a measured plan is
// solved over, for offline comparison.
func measuredBase(r api.PlanRates) core.System {
	return core.System{
		Servers:     1,
		ArrivalRate: r.Lambda,
		ServiceRate: r.Mu,
		Operative:   dist.Exp(r.Xi),
		Repair:      dist.Exp(r.Eta),
	}
}

// TestPlanMeasuredClusterAggregation is the cluster-mode acceptance
// criterion: a measured plan on a clustered node joins its own fitted
// rates with every peer's published mus_admission_* gauges — arrival
// rates sum (each node sheds its own slice of the offered load),
// per-server rates average — before the solve.
func TestPlanMeasuredClusterAggregation(t *testing.T) {
	// The peer is a canned /v1/cluster endpoint publishing a fitted model
	// of λ̂=1.5 over µ̂=3 servers-per-second workers.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathCluster {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, http.StatusOK, api.ClusterResponse{
			Enabled: true,
			Obs: map[string]float64{
				admission.MetricArrivalRate: 1.5,
				admission.MetricServiceRate: 3.0,
				admission.MetricFailureRate: 3e-6,
				admission.MetricRepairRate:  1.0,
			},
		})
	}))
	t.Cleanup(peer.Close)

	sh := &swapHandler{}
	ts := httptest.NewServer(sh)
	t.Cleanup(ts.Close)
	clu, err := cluster.New(cluster.Config{
		SelfID: ts.URL,
		Nodes: []cluster.NodeConfig{
			{ID: ts.URL, URL: ts.URL},
			{ID: peer.URL, URL: peer.URL},
		},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(clu.Close)
	eng := service.NewEngine(service.Config{})
	sched := jobs.New(jobs.Config{Engine: eng})
	t.Cleanup(sched.Close)
	srv := newServerCluster(eng, sched, clu)
	fitController(t, srv, 2, 0) // local fit: λ̂ = 0.5, µ̂ = 1, ξ̂ = 1e-6, η̂ = 1
	sh.h.Store(srv.handler())

	resp, err := client.New(ts.URL).Plan(context.Background(), api.PlanRequest{
		Measured:    true,
		HoldingCost: 4, ServerCost: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Nodes != 2 {
		t.Fatalf("aggregated %d nodes, want 2", resp.Nodes)
	}
	want := api.PlanRates{
		Lambda: 0.5 + 1.5,         // sums
		Mu:     (1.0 + 3.0) / 2,   // averages
		Xi:     (1e-6 + 3e-6) / 2, // averages
		Eta:    (1.0 + 1.0) / 2,   // averages
	}
	if math.Abs(resp.Rates.Lambda-want.Lambda) > 1e-9 ||
		math.Abs(resp.Rates.Mu-want.Mu) > 1e-9 ||
		math.Abs(resp.Rates.Xi-want.Xi) > 1e-12 ||
		math.Abs(resp.Rates.Eta-want.Eta) > 1e-9 {
		t.Errorf("aggregated rates %+v, want %+v", resp.Rates, want)
	}
	best, err := core.OptimizeServers(measuredBase(resp.Rates),
		core.CostModel{HoldingCost: 4, ServerCost: 1}, 1, 64, core.Spectral)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Servers != best.Servers {
		t.Errorf("cluster plan N = %d, offline N = %d", resp.Servers, best.Servers)
	}
}

// TestPlanDefaultBoundsPrunedSearch is the provisioning acceptance test: a
// cost-mode /v1/plan on the Sun model with no bounds searches [1, 64] on
// an engine of two workers, yet answers Figure 5 (N* = 11, 12, 13 at
// λ = 7, 8, 8.5) from at most six solves each, read from the engine's
// Solves counter, and all three within a second.
func TestPlanDefaultBoundsPrunedSearch(t *testing.T) {
	eng := service.NewEngine(service.Config{Workers: 2})
	ts := httptest.NewServer(newTestHandler(t, eng))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	start := time.Now()
	for _, tc := range []struct {
		lambda float64
		paperN int
	}{{7, 11}, {8, 12}, {8.5, 13}} {
		before := eng.Stats().Solves
		resp, err := c.Plan(context.Background(), api.PlanRequest{
			System:      api.System{Lambda: tc.lambda},
			HoldingCost: 4, ServerCost: 1,
		})
		if err != nil {
			t.Fatalf("λ=%v: %v", tc.lambda, err)
		}
		solves := eng.Stats().Solves - before
		t.Logf("λ=%v: N* = %d from %d solves (%s)", tc.lambda, resp.Servers, solves, resp.Objective)
		if resp.Servers != tc.paperN {
			t.Errorf("λ=%v: N* = %d, Figure 5 reads %d", tc.lambda, resp.Servers, tc.paperN)
		}
		if solves > 6 {
			t.Errorf("λ=%v: %d solves, want ≤ 6", tc.lambda, solves)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("three default-bounds plans took %v, want < 1 s", elapsed)
	}
}

// TestProvisionTargetAtServiceTimeFloor: W = L/λ ≥ 1/µ for an exact
// method, so a spectral target_response ≤ 1/µ is 422 unsatisfiable on both
// provisioning routes without a solve, and the engine's search says so in
// well under a millisecond. The §3.2 approximation has no such floor, so
// the same request with "method": "approx" still searches.
func TestProvisionTargetAtServiceTimeFloor(t *testing.T) {
	eng := service.NewEngine(service.Config{Workers: 2})
	ts := httptest.NewServer(newTestHandler(t, eng))
	t.Cleanup(ts.Close)
	for _, path := range []string{api.PathOptimize, api.PathPlan} {
		for _, target := range []float64{1, 0.5} {
			before := eng.Stats().Solves
			status, env := postForError(t, ts.URL+path, fmt.Sprintf(`{"lambda": 8, "target_response": %v}`, target))
			if status != http.StatusUnprocessableEntity || env.Error == nil || env.Error.Code != api.CodeUnsatisfiable {
				t.Errorf("%s, target %v: status %d, envelope %+v, want 422 unsatisfiable", path, target, status, env.Error)
			}
			if solves := eng.Stats().Solves - before; solves != 0 {
				t.Errorf("%s, target %v: %d solves, want 0", path, target, solves)
			}
		}
	}
	base, err := (api.System{Servers: 1, Lambda: 8}).ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = eng.Provision(context.Background(), base, core.Objective{Target: 1}, 1, 64, core.Spectral)
	if elapsed := time.Since(start); err == nil || elapsed > time.Millisecond {
		t.Errorf("engine search: %v after %v, want an error within 1 ms", err, elapsed)
	}
	before := eng.Stats().Solves
	status, raw := postJSON(t, ts.URL+api.PathOptimize, `{"lambda": 8, "target_response": 1, "method": "approx", "max_servers": 20}`, nil)
	if solves := eng.Stats().Solves - before; solves == 0 {
		t.Errorf("approx target 1/µ: %d solves (status %d: %s), want a search", solves, status, raw)
	}
}

// TestPlanAtStabilityBoundary pins λ one ulp below eq. 11's 8·A for the
// Sun model, where the one stability rule that core and the solvers share
// rejects N = 8: a plan whose range starts below the boundary reports
// min_stable 9 and answers from N = 9 up, in cost and in SLA mode.
func TestPlanAtStabilityBoundary(t *testing.T) {
	ts := testServer(t)
	c := client.New(ts.URL)
	base, err := (api.System{Servers: 1, Lambda: 1}).ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	lambda := math.Nextafter(8*base.Availability(), 0)
	for _, req := range []api.PlanRequest{
		{System: api.System{Lambda: lambda}, HoldingCost: 1, ServerCost: 1, MaxServers: 20},
		{System: api.System{Lambda: lambda}, TargetResponse: 2, MaxServers: 20},
	} {
		resp, err := c.Plan(context.Background(), req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if resp.MinStable != 9 {
			t.Errorf("%s: min_stable = %d, want 9", resp.Objective, resp.MinStable)
		}
		if resp.Servers < 9 || resp.Perf.MeanJobs <= 0 {
			t.Errorf("%s: N = %d, L = %v", resp.Objective, resp.Servers, resp.Perf.MeanJobs)
		}
	}
}

// TestSolveAtStabilityBoundary: at N = 8 and λ one ulp below eq. 11's
// 8·A for the Sun model, POST /v1/solve answers 422 unstable_system
// naming the 9 servers that stabilise it, by the same rule the solver
// applies, rather than passing the system to a solver that rejects it.
func TestSolveAtStabilityBoundary(t *testing.T) {
	ts := testServer(t)
	status, env := postForError(t, ts.URL+"/v1/solve", `{"servers": 8, "lambda": 7.9907677008900535}`)
	if status != http.StatusUnprocessableEntity || env.Error == nil || env.Error.Code != api.CodeUnstableSystem {
		t.Fatalf("status %d, envelope %+v; want 422 %s", status, env.Error, api.CodeUnstableSystem)
	}
	if !strings.Contains(env.Error.Message, "need at least 9 servers") {
		t.Errorf("message %q does not name 9 servers", env.Error.Message)
	}
}

// TestSolvePastModeBound: qbd indexes at most math.MaxInt32 modes, so the
// Sun model's solvers take at most N = 65534. Past that bound /v1/solve
// still answers at once: an unstable λ with the N that carries it, and a
// stable system with the solver's mode-count error, not as unstable.
func TestSolvePastModeBound(t *testing.T) {
	ts := testServer(t)
	status, env := postForError(t, ts.URL+"/v1/solve", `{"servers": 1, "lambda": 70000}`)
	if status != http.StatusUnprocessableEntity || env.Error == nil || env.Error.Code != api.CodeUnstableSystem {
		t.Fatalf("λ = 70000 on 1 server: status %d, envelope %+v; want 422 %s", status, env.Error, api.CodeUnstableSystem)
	}
	if !strings.Contains(env.Error.Message, "need at least 70081 servers") {
		t.Errorf("message %q does not name 70081 servers", env.Error.Message)
	}
	status, env = postForError(t, ts.URL+"/v1/solve", `{"servers": 70000, "lambda": 1}`)
	if env.Error == nil || env.Error.Code == api.CodeUnstableSystem || !strings.Contains(env.Error.Message, "more than 2147483647 modes") {
		t.Fatalf("λ = 1 on 70000 servers: status %d, envelope %+v; want qbd's mode-count error", status, env.Error)
	}
}
