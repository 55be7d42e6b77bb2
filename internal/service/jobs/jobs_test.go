package jobs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/service"
)

// fakeEngine implements Engine with controllable pacing: with a gate set,
// every sweep point (and every simulate call) consumes one token before
// proceeding, so tests freeze a job mid-run deterministically instead of
// racing real solver latencies.
type fakeEngine struct {
	gate chan struct{} // nil = free-running

	simRuns    atomic.Int64
	streamRuns atomic.Int64
	// lastStreamErr records what EvaluateStream returned, so tests can
	// assert that cancelation actually released the in-flight evaluation.
	mu            sync.Mutex
	lastStreamErr error
}

func (f *fakeEngine) wait(ctx context.Context) error {
	if f.gate == nil {
		return nil
	}
	select {
	case <-f.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *fakeEngine) EvaluateStream(ctx context.Context, jobs []service.Job, emit func(service.Result) error) error {
	f.streamRuns.Add(1)
	err := func() error {
		for i := range jobs {
			if err := f.wait(ctx); err != nil {
				return err
			}
			perf := &core.Performance{MeanJobs: float64(i + 1), MeanResponse: 1, TailDecay: 0.5, Load: 0.5}
			if err := emit(service.Result{Index: i, Job: jobs[i], Perf: perf}); err != nil {
				return err
			}
		}
		return nil
	}()
	f.mu.Lock()
	f.lastStreamErr = err
	f.mu.Unlock()
	return err
}

func (f *fakeEngine) Simulate(ctx context.Context, sys core.System, opts core.SimOptions) (core.SimResult, error) {
	f.simRuns.Add(1)
	if err := f.wait(ctx); err != nil {
		return core.SimResult{}, err
	}
	return core.SimResult{Replications: opts.Replications, Converged: true, Confidence: 0.95, MeanQueue: 4.2, Completed: 1000}, nil
}

// Provision answers cost mode with the bottom of the range and SLA mode
// with its top, meeting the target exactly.
func (f *fakeEngine) Provision(ctx context.Context, base core.System, obj core.Objective, minN, maxN int, m core.Method) (core.ServerSweepPoint, error) {
	if err := f.wait(ctx); err != nil {
		return core.ServerSweepPoint{}, err
	}
	if obj.Target > 0 {
		return core.ServerSweepPoint{Servers: maxN, Perf: &core.Performance{MeanJobs: 2, MeanResponse: obj.Target}}, nil
	}
	return core.ServerSweepPoint{Servers: minN, Perf: &core.Performance{MeanJobs: 1}, Cost: 7}, nil
}

// fakeClock is an injectable, advanceable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func sweepJob(values ...float64) api.JobRequest {
	return api.NewSweepJob(api.SweepRequest{
		System: api.System{Servers: 4},
		Param:  api.ParamLambda,
		Values: values,
	})
}

// pollUntil spins on cond with a deadline — the test-side analogue of a
// client polling GET /v1/jobs/{id}.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func codeOf(t *testing.T, err error) api.Code {
	t.Helper()
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not an *api.Error", err)
	}
	return ae.Code
}

func TestSubmitRejectsInvalidRequests(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	defer s.Close()
	cases := []api.JobRequest{
		{Kind: "resolve"},
		{Kind: api.JobKindSweep}, // missing payload
		{Kind: api.JobKindSweep, Sweep: &api.SweepRequest{}, Simulate: &api.SimulateRequest{}}, // two payloads
		api.NewSweepJob(api.SweepRequest{Param: "bogus", Values: []float64{1}}),
	}
	for _, req := range cases {
		if _, err := s.Submit(context.Background(), req); codeOf(t, err) != api.CodeInvalidArgument {
			t.Errorf("Submit(%+v): want invalid_argument, got %v", req, err)
		}
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	defer s.Close()
	st, err := s.Submit(context.Background(), sweepJob(1, 2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != api.JobKindSweep || st.Terminal() {
		t.Fatalf("fresh job status %+v", st)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.JobStateDone {
		t.Fatalf("state %s, error %v", final.State, final.Error)
	}
	if final.Progress.Total != 5 || final.Progress.Completed != 5 {
		t.Errorf("progress %+v, want 5/5", final.Progress)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Errorf("terminal job missing timestamps: %+v", final)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != api.JobKindSweep || res.Sweep == nil || len(res.Sweep.Points) != 5 {
		t.Fatalf("result %+v", res)
	}
	for i, pt := range res.Sweep.Points {
		if pt.Index != i || pt.Value != float64(i+1) || pt.Perf == nil {
			t.Errorf("point %d = %+v", i, pt)
		}
	}
}

func TestOptimizeAndSimulateJobs(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	defer s.Close()
	opt, err := s.Submit(context.Background(), api.NewOptimizeJob(api.OptimizeRequest{
		System: api.System{Lambda: 3}, HoldingCost: 4, ServerCost: 1, MinServers: 2, MaxServers: 9,
	}))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := s.Submit(context.Background(), api.NewSimulateJob(api.SimulateRequest{System: api.System{Servers: 8, Lambda: 3}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{opt.ID, sim.ID} {
		if st, err := s.Wait(context.Background(), id); err != nil || st.State != api.JobStateDone {
			t.Fatalf("job %s: %+v, %v", id, st, err)
		}
	}
	optRes, err := s.Result(opt.ID)
	if err != nil || optRes.Optimize == nil || optRes.Optimize.Servers != 2 || optRes.Optimize.Cost == nil {
		t.Fatalf("optimize result %+v, %v", optRes, err)
	}
	simRes, err := s.Result(sim.ID)
	if err != nil || simRes.Simulate == nil || simRes.Simulate.MeanQueue.Mean != 4.2 {
		t.Fatalf("simulate result %+v, %v", simRes, err)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng, Workers: 1, QueueDepth: 1})
	defer s.Close()
	running, err := s.Submit(context.Background(), sweepJob(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker holds the first job, so the next
	// submission deterministically occupies the queue's one slot.
	pollUntil(t, "first job running", func() bool {
		st, err := s.Status(running.ID)
		return err == nil && st.State == api.JobStateRunning
	})
	queued, err := s.Submit(context.Background(), sweepJob(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), sweepJob(1)); codeOf(t, err) != api.CodeQueueFull {
		t.Fatalf("third submission: want queue_full, got %v", err)
	}
	st := s.Stats()
	if st.Rejected != 1 || st.Submitted != 2 || st.Queued != 1 || st.Running != 1 || st.QueueCapacity != 1 {
		t.Errorf("stats %+v", st)
	}
	close(eng.gate) // release everything
	for _, id := range []string{running.ID, queued.ID} {
		if fin, err := s.Wait(context.Background(), id); err != nil || fin.State != api.JobStateDone {
			t.Fatalf("job %s: %+v, %v", id, fin, err)
		}
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng, Workers: 1, QueueDepth: 4})
	defer s.Close()
	running, err := s.Submit(context.Background(), sweepJob(1))
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "first job running", func() bool {
		st, err := s.Status(running.ID)
		return err == nil && st.State == api.JobStateRunning
	})
	queued, err := s.Submit(context.Background(), sweepJob(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobStateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	if _, err := s.Result(queued.ID); codeOf(t, err) != api.CodeCanceled {
		t.Errorf("result of canceled job: %v", err)
	}
	eng.gate <- struct{}{} // let the running job finish its one point
	if fin, err := s.Wait(context.Background(), running.ID); err != nil || fin.State != api.JobStateDone {
		t.Fatalf("running job: %+v, %v", fin, err)
	}
	// The canceled job must never have reached the engine: exactly one
	// stream ran (the first job's).
	if n := eng.streamRuns.Load(); n != 1 {
		t.Errorf("engine ran %d streams, want 1", n)
	}
}

// TestCancelQueuedJobFreesQueueSlot pins a behaviour found by driving the
// live daemon: canceling a queued job must free its queue slot for new
// submissions immediately, even while every worker is busy — not only
// once a worker gets around to draining the entry.
func TestCancelQueuedJobFreesQueueSlot(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng, Workers: 1, QueueDepth: 1})
	defer s.Close()
	running, err := s.Submit(context.Background(), sweepJob(1))
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "first job running", func() bool {
		st, err := s.Status(running.ID)
		return err == nil && st.State == api.JobStateRunning
	})
	queued, err := s.Submit(context.Background(), sweepJob(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), sweepJob(1)); codeOf(t, err) != api.CodeQueueFull {
		t.Fatalf("queue not full: %v", err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// The worker is still blocked on the gated engine; the slot must be
	// free regardless.
	replacement, err := s.Submit(context.Background(), sweepJob(2))
	if err != nil {
		t.Fatalf("submit after canceling the queued job: %v", err)
	}
	close(eng.gate)
	if fin, err := s.Wait(context.Background(), replacement.ID); err != nil || fin.State != api.JobStateDone {
		t.Fatalf("replacement job: %+v, %v", fin, err)
	}
}

func TestCancelRunningJobReleasesEngine(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng})
	defer s.Close()
	st, err := s.Submit(context.Background(), sweepJob(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "job running", func() bool {
		got, err := s.Status(st.ID)
		return err == nil && got.State == api.JobStateRunning
	})
	eng.gate <- struct{}{} // let exactly one point through
	pollUntil(t, "one point solved", func() bool {
		got, err := s.Status(st.ID)
		return err == nil && got.Progress.Completed == 1
	})
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobStateCanceled {
		t.Fatalf("state after cancel: %s", fin.State)
	}
	// The engine's stream observed the cancelation and returned — the
	// in-flight evaluation was released, not abandoned mid-run.
	eng.mu.Lock()
	streamErr := eng.lastStreamErr
	eng.mu.Unlock()
	if !errors.Is(streamErr, context.Canceled) {
		t.Errorf("engine stream returned %v, want context.Canceled", streamErr)
	}
	// Partial results up to the cancelation stay readable.
	pts, got, err := s.PartialSweep(st.ID)
	if err != nil || got.State != api.JobStateCanceled || len(pts) != 1 {
		t.Errorf("partial after cancel: %d points, status %+v, err %v", len(pts), got, err)
	}
	// Cancel is idempotent on terminal jobs.
	again, err := s.Cancel(st.ID)
	if err != nil || again.State != api.JobStateCanceled {
		t.Errorf("second cancel: %+v, %v", again, err)
	}
}

// TestCancelRunningOptimizeJob pins a bug found in review: the optimize
// runner classifies engine failures through unsatisfiable(), which
// flattens context.Canceled into a chain-less *api.Error — the job must
// still finish canceled, not failed.
func TestCancelRunningOptimizeJob(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng})
	defer s.Close()
	st, err := s.Submit(context.Background(), api.NewOptimizeJob(api.OptimizeRequest{
		System: api.System{Lambda: 3}, HoldingCost: 4, ServerCost: 1, MinServers: 1, MaxServers: 8,
	}))
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "optimize job running", func() bool {
		got, err := s.Status(st.ID)
		return err == nil && got.State == api.JobStateRunning
	})
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobStateCanceled {
		t.Fatalf("canceled optimize job ended %s (error %v)", fin.State, fin.Error)
	}
}

func TestPartialSweepMidRun(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng})
	defer s.Close()
	st, err := s.Submit(context.Background(), sweepJob(10, 20, 30))
	if err != nil {
		t.Fatal(err)
	}
	eng.gate <- struct{}{}
	eng.gate <- struct{}{}
	pollUntil(t, "two points solved", func() bool {
		got, err := s.Status(st.ID)
		return err == nil && got.Progress.Completed == 2
	})
	pts, got, err := s.PartialSweep(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobStateRunning || len(pts) != 2 {
		t.Fatalf("mid-run partial: state %s, %d points", got.State, len(pts))
	}
	if pts[0].Value != 10 || pts[1].Value != 20 {
		t.Errorf("partial points %+v", pts)
	}
	if _, err := s.Result(st.ID); codeOf(t, err) != api.CodeNotReady {
		t.Errorf("mid-run result: %v", err)
	}
	eng.gate <- struct{}{}
	if fin, err := s.Wait(context.Background(), st.ID); err != nil || fin.State != api.JobStateDone {
		t.Fatalf("final: %+v, %v", fin, err)
	}
}

// TestFinishedSweepKeepsOneCopy: a finished sweep's result and a partial
// read return the same points, and the result shares its storage with the
// job's point record instead of holding a second copy for the job's
// lifetime. The record is sized for the grid once, and the result is
// capped so an append cannot reach the shared array.
func TestFinishedSweepKeepsOneCopy(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	defer s.Close()
	st, err := s.Submit(context.Background(), sweepJob(1, 2, 3, 4, 5, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := s.Wait(context.Background(), st.ID); err != nil || fin.State != api.JobStateDone {
		t.Fatalf("final: %+v, %v", fin, err)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := s.PartialSweep(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Sweep.Points
	if len(got) != 7 || len(pts) != len(got) {
		t.Fatalf("result has %d points, partial read %d", len(got), len(pts))
	}
	for i := range got {
		if got[i].Index != pts[i].Index || got[i].Value != pts[i].Value || *got[i].Perf != *pts[i].Perf {
			t.Errorf("point %d: result %+v, partial %+v", i, got[i], pts[i])
		}
	}
	s.mu.Lock()
	partial := s.jobs[st.ID].partial
	s.mu.Unlock()
	if &partial[0] != &got[0] {
		t.Error("the result holds a second copy of the points")
	}
	if cap(got) != len(got) || cap(partial) != 7 {
		t.Errorf("result cap %d (len %d), record cap %d: want the record sized for the grid and the result capped", cap(got), len(got), cap(partial))
	}
}

func TestPartialSweepRejectsNonSweepJobs(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	defer s.Close()
	st, err := s.Submit(context.Background(), api.NewSimulateJob(api.SimulateRequest{System: api.System{Servers: 8, Lambda: 3}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.PartialSweep(st.ID); codeOf(t, err) != api.CodeInvalidArgument {
		t.Errorf("partial of simulate job: %v", err)
	}
}

func TestUnstableSimulateJobFails(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	defer s.Close()
	st, err := s.Submit(context.Background(), api.NewSimulateJob(api.SimulateRequest{System: api.System{Servers: 1, Lambda: 1000}}))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.JobStateFailed || fin.Error == nil || fin.Error.Code != api.CodeUnstableSystem {
		t.Fatalf("unstable simulate job: %+v", fin)
	}
	if _, err := s.Result(st.ID); codeOf(t, err) != api.CodeUnstableSystem {
		t.Errorf("result of failed job: %v", err)
	}
}

func TestUnknownJobIsNotFound(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	defer s.Close()
	if _, err := s.Status("nope"); codeOf(t, err) != api.CodeNotFound {
		t.Errorf("Status: %v", err)
	}
	if _, err := s.Result("nope"); codeOf(t, err) != api.CodeNotFound {
		t.Errorf("Result: %v", err)
	}
	if _, err := s.Cancel("nope"); codeOf(t, err) != api.CodeNotFound {
		t.Errorf("Cancel: %v", err)
	}
	if _, _, err := s.PartialSweep("nope"); codeOf(t, err) != api.CodeNotFound {
		t.Errorf("PartialSweep: %v", err)
	}
}

func TestTTLGarbageCollection(t *testing.T) {
	clock := newFakeClock()
	s := New(Config{Engine: &fakeEngine{}, TTL: time.Minute, Now: clock.Now})
	defer s.Close()
	st, err := s.Submit(context.Background(), sweepJob(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	s.gc() // fresh terminal job survives
	if _, err := s.Status(st.ID); err != nil {
		t.Fatalf("job collected before TTL: %v", err)
	}
	clock.Advance(2 * time.Minute)
	s.gc()
	if _, err := s.Status(st.ID); codeOf(t, err) != api.CodeNotFound {
		t.Errorf("job after TTL: %v", err)
	}
}

func TestCloseCancelsRunningJobs(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng})
	st, err := s.Submit(context.Background(), sweepJob(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "job running", func() bool {
		got, err := s.Status(st.ID)
		return err == nil && got.State == api.JobStateRunning
	})
	s.Close() // must not hang on the gated engine
	got, err := s.Status(st.ID)
	if err != nil || got.State != api.JobStateCanceled {
		t.Fatalf("job after Close: %+v, %v", got, err)
	}
	if _, err := s.Submit(context.Background(), sweepJob(1)); err == nil {
		t.Error("Submit after Close succeeded")
	}
	s.Close() // idempotent
}

func TestEngineInterfaceIsSatisfiedByServiceEngine(t *testing.T) {
	var _ Engine = service.NewEngine(service.Config{Workers: 1})
}

// TestDrainWaitsForRunningJobsAndRejectsNew pins the graceful-shutdown
// contract: Drain flips submissions to node_unavailable immediately,
// reports ctx expiry while work is still running, and returns nil once
// every job reached a terminal state — with the records still readable.
func TestDrainWaitsForRunningJobsAndRejectsNew(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{})}
	s := New(Config{Engine: eng, Workers: 1})
	defer s.Close()
	st, err := s.Submit(context.Background(), sweepJob(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pollUntil(t, "job running", func() bool {
		got, err := s.Status(st.ID)
		return err == nil && got.State == api.JobStateRunning
	})
	// Deadline already expired, job still gated: Drain must report it.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with expired ctx = %v, want context.Canceled", err)
	}
	// The draining flag is in force: new work is turned away with the
	// retryable node_unavailable code, not queue_full and not an accept.
	if _, err := s.Submit(context.Background(), sweepJob(3)); codeOf(t, err) != api.CodeNodeUnavailable {
		t.Fatalf("Submit while draining: %v, want node_unavailable", err)
	}
	// Let the job's two points finish; a fresh Drain now completes clean.
	eng.gate <- struct{}{}
	eng.gate <- struct{}{}
	drainCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("Drain after work finished: %v", err)
	}
	got, err := s.Status(st.ID)
	if err != nil || got.State != api.JobStateDone {
		t.Fatalf("drained job: %+v, %v (want done — drain never cancels)", got, err)
	}
}

// TestDrainAfterCloseIsNoOp: the shutdown paths compose in either order.
func TestDrainAfterCloseIsNoOp(t *testing.T) {
	s := New(Config{Engine: &fakeEngine{}})
	s.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
}
