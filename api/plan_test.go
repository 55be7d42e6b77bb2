package api

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestPlanRequestBoundsDefaults: absent bounds default to [1, 64] in
// every mode, by the rule plan shares with optimize
// (TestOptimizeRequestValidate checks optimize's side).
func TestPlanRequestBoundsDefaults(t *testing.T) {
	cases := []struct {
		name    string
		req     PlanRequest
		wantMin int
		wantMax int
	}{
		{"all defaulted", PlanRequest{}, 1, 64},
		{"min only", PlanRequest{MinServers: 5}, 5, 64},
		{"max only", PlanRequest{MaxServers: 10}, 1, 10},
		{"both set", PlanRequest{MinServers: 9, MaxServers: 17}, 9, 17},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			minN, maxN := tc.req.Bounds()
			if minN != tc.wantMin || maxN != tc.wantMax {
				t.Errorf("Bounds() = [%d, %d], want [%d, %d]", minN, maxN, tc.wantMin, tc.wantMax)
			}
			opt := OptimizeRequest{MinServers: tc.req.MinServers, MaxServers: tc.req.MaxServers}
			if oMin, oMax := opt.Bounds(); oMin != minN || oMax != maxN {
				t.Errorf("OptimizeRequest.Bounds() = [%d, %d], plan's = [%d, %d]", oMin, oMax, minN, maxN)
			}
		})
	}
}

// TestPlanRequestValidate is the wire-level acceptance table for
// POST /v1/plan bodies: every rejection must be an *Error with a helpful
// field, and measured mode must not demand a system the server is going
// to supply itself.
func TestPlanRequestValidate(t *testing.T) {
	cost := func(r PlanRequest) PlanRequest {
		r.HoldingCost, r.ServerCost = 4, 1
		return r
	}
	cases := []struct {
		name     string
		req      PlanRequest
		wantCode Code
	}{
		{"cost objective ok", cost(PlanRequest{System: System{Lambda: 2}}), ""},
		{"sla objective ok", PlanRequest{System: System{Lambda: 2}, TargetResponse: 1.5}, ""},
		{"measured needs no system", cost(PlanRequest{Measured: true}), ""},
		{"no objective at all", PlanRequest{System: System{Lambda: 2}}, CodeInvalidArgument},
		{"negative target", PlanRequest{System: System{Lambda: 2}, TargetResponse: -1}, CodeInvalidArgument},
		{"inverted range", cost(PlanRequest{System: System{Lambda: 2}, MinServers: 5, MaxServers: 2}), CodeInvalidArgument},
		{"unknown method", cost(PlanRequest{System: System{Lambda: 2}, Method: "quantum"}), CodeInvalidArgument},
		{"request mode bad system", cost(PlanRequest{System: System{Lambda: -1}}), CodeInvalidArgument},
		{"measured ignores bad system", cost(PlanRequest{Measured: true, System: System{Lambda: -1}}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.wantCode == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want ok", err)
				}
				return
			}
			var ae *Error
			if !errors.As(err, &ae) || ae.Code != tc.wantCode {
				t.Fatalf("Validate() = %v, want *Error code %q", err, tc.wantCode)
			}
		})
	}
}

// TestPlanRequestResolveObjective pins the solver selection and the
// request-mode base system: the wire Servers field is never the decision
// — it is overwritten so N can be searched.
func TestPlanRequestResolveObjective(t *testing.T) {
	req := PlanRequest{System: System{Lambda: 2, Servers: 7}, Method: "mg", TargetResponse: 2}
	m, minN, maxN, err := req.ResolveObjective()
	if err != nil {
		t.Fatal(err)
	}
	if m != core.MatrixGeometric || minN != 1 || maxN != 64 {
		t.Errorf("ResolveObjective() = (%v, %d, %d)", m, minN, maxN)
	}
	base, err := req.BaseSystem()
	if err != nil {
		t.Fatal(err)
	}
	if base.Servers != 7 {
		t.Errorf("BaseSystem kept Servers = %d, want the wire value 7", base.Servers)
	}
	// A zero wire Servers must still convert (N is the search variable).
	base, err = PlanRequest{System: System{Lambda: 2}, TargetResponse: 2}.BaseSystem()
	if err != nil {
		t.Fatal(err)
	}
	if base.Servers != 1 {
		t.Errorf("defaulted BaseSystem Servers = %d, want 1", base.Servers)
	}
}
