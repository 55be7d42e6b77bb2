package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func TestSystemToSystemDefaults(t *testing.T) {
	sys, err := System{Servers: 12, Lambda: 8}.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	if sys.ServiceRate != 1 {
		t.Errorf("mu defaulted to %v, want 1", sys.ServiceRate)
	}
	want := core.System{
		Servers:     12,
		ArrivalRate: 8,
		ServiceRate: 1,
		Operative:   dist.MustHyperExp([]float64{0.7246, 0.2754}, []float64{0.1663, 0.0091}),
		Repair:      dist.Exp(25),
	}
	if sys.Fingerprint() != want.Fingerprint() {
		t.Errorf("defaults do not match the paper's fitted parameters")
	}
}

func TestSystemToSystemErrors(t *testing.T) {
	cases := []struct {
		name  string
		wire  System
		field string
	}{
		{"no servers", System{Lambda: 8}, "system"},
		{"no lambda", System{Servers: 3}, "system"},
		{"bad operative", System{Servers: 3, Lambda: 1, OpWeights: []float64{0.5}, OpRates: []float64{1, 2}}, "op_weights"},
		{"bad repair", System{Servers: 3, Lambda: 1, RepWeights: []float64{2}, RepRates: []float64{1}}, "rep_weights"},
	}
	for _, c := range cases {
		_, err := c.wire.ToSystem()
		var ae *Error
		if !errors.As(err, &ae) {
			t.Fatalf("%s: error %v is not *api.Error", c.name, err)
		}
		if ae.Code != CodeInvalidArgument || ae.Field != c.field {
			t.Errorf("%s: got code=%s field=%q, want invalid_argument/%q", c.name, ae.Code, ae.Field, c.field)
		}
	}
}

func TestFromSystemRoundTrip(t *testing.T) {
	sys := core.System{
		Servers:     7,
		ArrivalRate: 5.5,
		ServiceRate: 2,
		Operative:   dist.MustHyperExp([]float64{0.3, 0.7}, []float64{1, 2}),
		Repair:      dist.Exp(10),
	}
	back, err := FromSystem(sys).ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != sys.Fingerprint() {
		t.Errorf("round trip changed the system: %s vs %s", back.Fingerprint(), sys.Fingerprint())
	}
}

func TestParseMethod(t *testing.T) {
	for name, want := range map[string]core.Method{
		"":                 core.Spectral,
		"spectral":         core.Spectral,
		"approx":           core.Approximation,
		"approximation":    core.Approximation,
		"mg":               core.MatrixGeometric,
		"matrix-geometric": core.MatrixGeometric,
	} {
		got, err := ParseMethod(name)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMethod("quantum"); err == nil {
		t.Error("ParseMethod accepted an unknown method")
	}
}

func TestSolveRequestValidate(t *testing.T) {
	ok := SolveRequest{System: System{Servers: 3, Lambda: 1}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := SolveRequest{System: System{Servers: 3, Lambda: 1}, Method: "quantum"}
	var ae *Error
	if err := bad.Validate(); !errors.As(err, &ae) || ae.Field != "method" {
		t.Errorf("bad method: got %v", bad.Validate())
	}
}

func TestSweepRequestValidateAndSystems(t *testing.T) {
	req := SweepRequest{
		System: System{Servers: 10},
		Param:  ParamLambda,
		Values: []float64{4, 5, 6},
	}
	systems, err := req.Systems()
	if err != nil {
		t.Fatalf("lambda sweep without base lambda must validate: %v", err)
	}
	for i, sys := range systems {
		if sys.ArrivalRate != req.Values[i] || sys.Servers != 10 {
			t.Errorf("point %d: N=%d λ=%v", i, sys.Servers, sys.ArrivalRate)
		}
	}

	nreq := SweepRequest{System: System{Lambda: 8}, Param: ParamServers, Values: []float64{0, 9, 12}}
	systems, err = nreq.Systems()
	if err != nil {
		t.Fatalf("servers sweep without base servers must validate: %v", err)
	}
	if systems[0].Servers != 0 || systems[2].Servers != 12 {
		t.Errorf("server grid not applied: %d, %d", systems[0].Servers, systems[2].Servers)
	}

	cases := []struct {
		name string
		req  SweepRequest
	}{
		{"bad param", SweepRequest{System: System{Servers: 3, Lambda: 1}, Param: "mu", Values: []float64{1}}},
		{"empty values", SweepRequest{System: System{Servers: 3, Lambda: 1}, Param: ParamLambda}},
		{"fractional servers", SweepRequest{System: System{Lambda: 8}, Param: ParamServers, Values: []float64{9.5}}},
		{"too many points", SweepRequest{System: System{Servers: 3, Lambda: 1}, Param: ParamLambda, Values: make([]float64, MaxSweepPoints+1)}},
	}
	for _, c := range cases {
		var ae *Error
		if err := c.req.Validate(); !errors.As(err, &ae) || ae.Code != CodeInvalidArgument {
			t.Errorf("%s: got %v, want invalid_argument", c.name, c.req.Validate())
		}
	}
}

func TestOptimizeRequestValidate(t *testing.T) {
	// Absent bounds default to [1, 64] in either mode: the search prunes
	// the N that cannot win, so cost mode needs no explicit range either.
	for _, req := range []OptimizeRequest{
		{System: System{Lambda: 7.5}, TargetResponse: 1.5},
		{System: System{Lambda: 8}, HoldingCost: 4, ServerCost: 1},
	} {
		if err := req.Validate(); err != nil {
			t.Fatalf("%+v without explicit range rejected: %v", req, err)
		}
		if minN, maxN := req.Bounds(); minN != 1 || maxN != 64 {
			t.Errorf("%+v: bounds = [%d, %d], want [1, 64]", req, minN, maxN)
		}
	}
	cost := OptimizeRequest{System: System{Lambda: 8}, HoldingCost: 4, ServerCost: 1, MinServers: 9, MaxServers: 17}
	if err := cost.Validate(); err != nil {
		t.Fatalf("cost mode rejected: %v", err)
	}
	if got := cost.Objective(); got != (core.Objective{Cost: core.CostModel{HoldingCost: 4, ServerCost: 1}}) {
		t.Errorf("Objective() = %+v", got)
	}
	for name, bad := range map[string]OptimizeRequest{
		"no objective":          {System: System{Lambda: 8}},
		"inverted range":        {System: System{Lambda: 8}, HoldingCost: 4, ServerCost: 1, MinServers: 5, MaxServers: 3},
		"negative holding cost": {System: System{Lambda: 8}, HoldingCost: -4, ServerCost: 1},
		"negative server cost":  {System: System{Lambda: 8}, HoldingCost: 4, ServerCost: -1},
	} {
		var ae *Error
		if err := bad.Validate(); !errors.As(err, &ae) || ae.Code != CodeInvalidArgument {
			t.Errorf("%s: got %v, want invalid_argument", name, bad.Validate())
		}
	}
}

func TestSimulateRequestValidateAndOptions(t *testing.T) {
	req := SimulateRequest{System: System{Servers: 3, Lambda: 1.8}}
	if err := req.Validate(); err != nil {
		t.Fatalf("minimal simulate request rejected: %v", err)
	}
	if got := req.Options().Replications; got != DefaultReplications {
		t.Errorf("default replications = %d, want %d", got, DefaultReplications)
	}
	for name, bad := range map[string]SimulateRequest{
		"confidence":  {System: System{Servers: 3, Lambda: 1}, Confidence: 2},
		"precision":   {System: System{Servers: 3, Lambda: 1}, RelPrecision: -0.1},
		"neg horizon": {System: System{Servers: 3, Lambda: 1}, Horizon: -5},
		"neg reps":    {System: System{Servers: 3, Lambda: 1}, Replications: -1},
	} {
		var ae *Error
		if err := bad.Validate(); !errors.As(err, &ae) || ae.Code != CodeInvalidArgument {
			t.Errorf("%s: got %v, want invalid_argument", name, bad.Validate())
		}
	}
}

func TestErrorHTTPStatusMapping(t *testing.T) {
	for code, status := range map[Code]int{
		CodeInvalidArgument:  http.StatusBadRequest,
		CodeUnstableSystem:   http.StatusUnprocessableEntity,
		CodeUnsatisfiable:    http.StatusUnprocessableEntity,
		CodeCanceled:         StatusClientClosedRequest,
		CodeDeadlineExceeded: http.StatusGatewayTimeout,
		CodeNodeUnavailable:  http.StatusServiceUnavailable,
		CodeInternal:         http.StatusInternalServerError,
	} {
		if got := (&Error{Code: code}).HTTPStatus(); got != status {
			t.Errorf("%s → %d, want %d", code, got, status)
		}
	}
	// CodeForStatus inverts the mapping (up to the 422 ambiguity).
	for _, status := range []int{400, 499, 500, 503, 504} {
		if got := (&Error{Code: CodeForStatus(status)}).HTTPStatus(); got != status {
			t.Errorf("status %d did not survive the round trip (got %d)", status, got)
		}
	}
}

func TestClassify(t *testing.T) {
	ae := &Error{Code: CodeUnstableSystem, Message: "x"}
	if got := Classify(fmt.Errorf("wrapped: %w", ae)); got != ae {
		t.Errorf("Classify lost the typed error: %v", got)
	}
	if got := Classify(context.Canceled); got.Code != CodeCanceled {
		t.Errorf("canceled → %s", got.Code)
	}
	if got := Classify(fmt.Errorf("deep: %w", context.DeadlineExceeded)); got.Code != CodeDeadlineExceeded {
		t.Errorf("deadline → %s", got.Code)
	}
	if got := Classify(errors.New("boom")); got.Code != CodeInternal {
		t.Errorf("plain error → %s", got.Code)
	}
}

func TestErrorEnvelopeWireShape(t *testing.T) {
	env := ErrorEnvelope{
		Error:     &Error{Code: CodeInvalidArgument, Message: "bad", Field: "lambda"},
		RequestID: "req-1",
	}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var loose map[string]any
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	inner, ok := loose["error"].(map[string]any)
	if !ok {
		t.Fatalf("no error object in %s", raw)
	}
	if inner["code"] != "invalid_argument" || inner["field"] != "lambda" {
		t.Errorf("envelope wire form wrong: %s", raw)
	}
	if loose["request_id"] != "req-1" {
		t.Errorf("request_id missing: %s", raw)
	}
}

func TestUnstableError(t *testing.T) {
	sys, err := System{Servers: 2, Lambda: 50}.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	ae := Unstable(sys)
	if ae.Code != CodeUnstableSystem || ae.HTTPStatus() != http.StatusUnprocessableEntity {
		t.Errorf("unstable error misclassified: %+v", ae)
	}
	if math.IsNaN(sys.Load()) || sys.Load() < 1 {
		t.Errorf("test system unexpectedly stable: load %v", sys.Load())
	}
}

func TestFromPerformance(t *testing.T) {
	sys, err := System{Servers: 10, Lambda: 6}.ToSystem()
	if err != nil {
		t.Fatal(err)
	}
	perf, err := sys.Solve()
	if err != nil {
		t.Fatal(err)
	}
	wire := FromPerformance(perf)
	if wire.MeanJobs != perf.MeanJobs || wire.MeanResponse != perf.MeanResponse ||
		wire.TailDecay != perf.TailDecay || wire.Load != perf.Load {
		t.Errorf("FromPerformance dropped fields: %+v vs %+v", wire, perf)
	}
}
