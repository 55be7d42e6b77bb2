package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/jobs"
)

// gatedEngine implements jobs.Engine with a token gate per sweep point,
// so end-to-end tests freeze a job mid-run deterministically: the HTTP
// layer, scheduler and SDK are all real, only solver latency is
// synthetic.
type gatedEngine struct {
	gate chan struct{}
}

func (g *gatedEngine) EvaluateStream(ctx context.Context, work []service.Job, emit func(service.Result) error) error {
	for i := range work {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
		perf := &core.Performance{MeanJobs: float64(i), MeanResponse: 1, TailDecay: 0.5, Load: 0.5}
		if err := emit(service.Result{Index: i, Job: work[i], Perf: perf}); err != nil {
			return err
		}
	}
	return nil
}

func (g *gatedEngine) Simulate(ctx context.Context, sys core.System, opts core.SimOptions) (core.SimResult, error) {
	select {
	case <-g.gate:
		return core.SimResult{Replications: 2, Confidence: 0.95, MeanQueue: 1}, nil
	case <-ctx.Done():
		return core.SimResult{}, ctx.Err()
	}
}

func (g *gatedEngine) Provision(ctx context.Context, base core.System, obj core.Objective, minN, maxN int, m core.Method) (core.ServerSweepPoint, error) {
	return core.ServerSweepPoint{Servers: minN, Perf: &core.Performance{MeanJobs: 1}}, nil
}

// gatedServer builds a full mus-serve over a gated fake engine for the
// job endpoints (synchronous endpoints keep the real engine).
func gatedServer(t *testing.T, cfg jobs.Config) (*httptest.Server, *gatedEngine) {
	t.Helper()
	fake := &gatedEngine{gate: make(chan struct{})}
	cfg.Engine = fake
	sched := jobs.New(cfg)
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(newServerJobs(service.NewEngine(service.Config{Workers: 2}), sched).handler())
	t.Cleanup(ts.Close)
	return ts, fake
}

func waitForState(t *testing.T, c *client.Client, id, state string) api.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.JobStatus(context.Background(), id)
		if err != nil {
			t.Fatalf("polling job %s: %v", id, err)
		}
		if st.State == state {
			return *st
		}
		if st.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s reached %s while waiting for %s", id, st.State, state)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobEndToEndAcceptance is the acceptance scenario of the job
// subsystem, all through the SDK against real handlers: a large sweep job
// is observed running with advancing progress, its partial NDJSON results
// are fetched mid-run, and a second job is canceled mid-evaluation with
// the engine's in-flight work released.
func TestJobEndToEndAcceptance(t *testing.T) {
	ts, fake := gatedServer(t, jobs.Config{Workers: 2, QueueDepth: 8})
	c := client.New(ts.URL)
	ctx := context.Background()

	values := make([]float64, 40)
	for i := range values {
		values[i] = float64(i + 1)
	}
	sweep := api.SweepRequest{System: api.System{Servers: 4}, Param: api.ParamLambda, Values: values}
	st, err := c.SubmitJob(ctx, api.NewSweepJob(sweep))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobStateQueued && st.State != api.JobStateRunning {
		t.Fatalf("fresh job state %s", st.State)
	}

	// Let three points through and watch progress advance mid-run.
	for i := 0; i < 3; i++ {
		fake.gate <- struct{}{}
	}
	deadline := time.Now().Add(10 * time.Second)
	var mid api.JobStatus
	for {
		got, err := c.JobStatus(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == api.JobStateRunning && got.Progress.Completed == 3 {
			mid = *got
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("progress stuck at %+v", got.Progress)
		}
		time.Sleep(time.Millisecond)
	}
	if mid.Progress.Total != 40 {
		t.Errorf("total %d, want 40", mid.Progress.Total)
	}

	// Partial NDJSON mid-run: exactly the solved prefix, in grid order.
	var partial []api.SweepPoint
	state, err := c.JobSweepPartial(ctx, st.ID, func(pt api.SweepPoint) error {
		partial = append(partial, pt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if state != api.JobStateRunning {
		t.Errorf("partial snapshot state %s, want running", state)
	}
	if len(partial) != 3 {
		t.Fatalf("partial has %d points, want 3", len(partial))
	}
	for i, pt := range partial {
		if pt.Index != i || pt.Value != values[i] || pt.Perf == nil {
			t.Errorf("partial[%d] = %+v", i, pt)
		}
	}
	// The buffered result is not ready yet — 409 not_ready.
	if _, err := c.JobResult(ctx, st.ID); errCode(t, err) != api.CodeNotReady {
		t.Errorf("mid-run result: %v", err)
	}

	// Second job: cancel it mid-evaluation; the canceled state must be
	// observed and the engine's in-flight evaluation released.
	second, err := c.SubmitJob(ctx, api.NewSweepJob(sweep))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, second.ID, api.JobStateRunning)
	if _, err := c.CancelJob(ctx, second.ID); err != nil {
		t.Fatal(err)
	}
	if fin, err := c.WaitJob(ctx, second.ID, nil); err != nil || fin.State != api.JobStateCanceled {
		t.Fatalf("second job after cancel: %+v, %v", fin, err)
	}

	// Release the rest; the first job completes with the full grid.
	go func() {
		for i := 3; i < len(values); i++ {
			fake.gate <- struct{}{}
		}
	}()
	fin, err := c.WaitJob(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobStateDone || fin.Progress.Completed != 40 {
		t.Fatalf("final status %+v", fin)
	}
	res, err := c.JobResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep == nil || len(res.Sweep.Points) != 40 {
		t.Fatalf("final result %+v", res)
	}

	// Stats reflect the two jobs' final states.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Done != 1 || stats.Jobs.Canceled != 1 || stats.Jobs.Submitted != 2 {
		t.Errorf("job stats %+v", stats.Jobs)
	}
	if stats.Jobs.QueueCapacity != 8 {
		t.Errorf("queue capacity %d, want 8", stats.Jobs.QueueCapacity)
	}
}

// TestJobSweepAgainstRealEngine runs a sweep job on the real engine and
// demands the result be identical to the synchronous /v1/sweep answer.
func TestJobSweepAgainstRealEngine(t *testing.T) {
	eng := service.NewEngine(service.Config{})
	sched := jobs.New(jobs.Config{Engine: eng})
	t.Cleanup(sched.Close)
	ts := httptest.NewServer(newServerJobs(eng, sched).handler())
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()

	req := api.SweepRequest{System: api.System{Servers: 10}, Param: api.ParamLambda, Values: []float64{2, 4, 6, 8}}
	sync, err := c.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.SubmitJob(ctx, api.NewSweepJob(req))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := c.WaitJob(ctx, st.ID, nil); err != nil || fin.State != api.JobStateDone {
		t.Fatalf("job: %+v, %v", fin, err)
	}
	res, err := c.JobResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweep == nil || len(res.Sweep.Points) != len(sync.Points) {
		t.Fatalf("job sweep %+v vs sync %+v", res.Sweep, sync)
	}
	for i, pt := range res.Sweep.Points {
		want := sync.Points[i]
		if pt.Index != want.Index || pt.Value != want.Value || pt.Error != want.Error {
			t.Errorf("point %d: job %+v vs sync %+v", i, pt, want)
			continue
		}
		if (pt.Perf == nil) != (want.Perf == nil) {
			t.Errorf("point %d: perf presence differs", i)
			continue
		}
		if pt.Perf != nil && *pt.Perf != *want.Perf {
			t.Errorf("point %d: job %+v vs sync %+v", i, *pt.Perf, *want.Perf)
		}
	}
}

// TestJobQueueFullOverHTTP pins the backpressure contract on the wire: a
// full queue answers 429 with code queue_full.
func TestJobQueueFullOverHTTP(t *testing.T) {
	ts, _ := gatedServer(t, jobs.Config{Workers: 1, QueueDepth: 1})
	c := client.New(ts.URL)
	ctx := context.Background()
	sweep := api.NewSweepJob(api.SweepRequest{System: api.System{Servers: 4}, Param: api.ParamLambda, Values: []float64{1}})
	first, err := c.SubmitJob(ctx, sweep)
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, c, first.ID, api.JobStateRunning)
	if _, err := c.SubmitJob(ctx, sweep); err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitJob(ctx, sweep)
	if errCode(t, err) != api.CodeQueueFull {
		t.Fatalf("third submission: %v", err)
	}
}

// TestJobEndpointErrorContract pins the error codes of the job routes.
func TestJobEndpointErrorContract(t *testing.T) {
	ts := testServer(t)
	c := client.New(ts.URL)
	ctx := context.Background()
	if _, err := c.JobStatus(ctx, "missing"); errCode(t, err) != api.CodeNotFound {
		t.Errorf("status of unknown job: %v", err)
	}
	if _, err := c.JobResult(ctx, "missing"); errCode(t, err) != api.CodeNotFound {
		t.Errorf("result of unknown job: %v", err)
	}
	if _, err := c.CancelJob(ctx, "missing"); errCode(t, err) != api.CodeNotFound {
		t.Errorf("cancel of unknown job: %v", err)
	}
	if _, err := c.SubmitJob(ctx, api.JobRequest{Kind: "bogus"}); errCode(t, err) != api.CodeInvalidArgument {
		t.Errorf("bogus submission: %v", err)
	}
	// Raw HTTP statuses, not just SDK translations.
	resp, err := http.Get(ts.URL + api.JobPath("missing"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
	}
}

func errCode(t *testing.T, err error) api.Code {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *api.Error", err)
	}
	return ae.Code
}
