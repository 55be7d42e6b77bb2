package jobs

import (
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
)

// openTestLog opens a job log in strict-durability mode (every append
// syncs), so tests never race the fsync batcher.
func openTestLog(t *testing.T, dir string) *store.JobLog {
	t.Helper()
	l, err := store.OpenJobLog(dir, store.Options{})
	if err != nil {
		t.Fatalf("OpenJobLog: %v", err)
	}
	return l
}

// TestDurableJobHistorySurvivesRestart submits jobs against a log,
// finishes them, then boots a second scheduler on the same log: the
// history must reappear — the done sweep with its result re-synthesised
// from its persisted points, equal to the one served before the restart,
// and the optimize result served verbatim.
func TestDurableJobHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	s := New(Config{Engine: &fakeEngine{}, Log: l, NodeID: "node-a"})
	st, err := s.Submit(context.Background(), sweepJob(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "node-a" {
		t.Fatalf("submitted status Node = %q, want node-a", st.Node)
	}
	opt, err := s.Submit(context.Background(), api.NewOptimizeJob(api.OptimizeRequest{
		System: api.System{Servers: 2, Lambda: 0.5}, HoldingCost: 1, ServerCost: 1, MinServers: 1, MaxServers: 4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{st.ID, opt.ID} {
		if got, err := s.Wait(context.Background(), id); err != nil || got.State != api.JobStateDone {
			t.Fatalf("Wait(%s): %+v, %v", id, got, err)
		}
	}
	before, err := s.Result(st.ID)
	if err != nil {
		t.Fatalf("sweep Result before restart: %v", err)
	}
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close()
	s2 := New(Config{Engine: &fakeEngine{}, Log: l2, NodeID: "node-a"})
	defer s2.Close()
	list := s2.List()
	if len(list) != 2 {
		t.Fatalf("replayed history has %d jobs, want 2: %+v", len(list), list)
	}
	if s2.recovered.Load() != 2 {
		t.Fatalf("recovered counter = %d, want 2", s2.recovered.Load())
	}
	res, err := s2.Result(st.ID)
	if err != nil {
		t.Fatalf("replayed sweep Result: %v", err)
	}
	if res.Sweep == nil || len(res.Sweep.Points) != 3 {
		t.Fatalf("replayed sweep result mangled: %+v", res)
	}
	for i, pt := range res.Sweep.Points {
		if pt.Index != i || pt.Perf == nil {
			t.Fatalf("replayed point %d mangled: %+v", i, pt)
		}
	}
	if !reflect.DeepEqual(res, before) {
		t.Fatalf("replayed sweep result %+v differs from the one served before the restart %+v", res, before)
	}
	if n := l2.ReplaySkipped(); n != 0 {
		t.Fatalf("replay skipped %d records", n)
	}
	optRes, err := s2.Result(opt.ID)
	if err != nil {
		t.Fatalf("replayed optimize Result: %v", err)
	}
	if optRes.Optimize == nil || optRes.Optimize.Servers == 0 {
		t.Fatalf("replayed optimize result mangled: %+v", optRes)
	}
	stRec, err := s2.Status(st.ID)
	if err != nil || stRec.State != api.JobStateDone || stRec.Detail != "" {
		t.Fatalf("replayed terminal status: %+v, %v", stRec, err)
	}
}

// TestReplayResumesIncompleteSweep forges the log a kill -9 would leave —
// a submit record, a running transition and a two-point prefix of a
// five-point sweep — and boots a scheduler over it. The job must come
// back queued with Detail node_restarting, resume at index 2 (the engine
// sees exactly the three missing points), and finish with all five points
// once, in grid order.
func TestReplayResumesIncompleteSweep(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	req := sweepJob(1, 2, 3, 4, 5)
	now := time.Unix(1_700_000_000, 0).UTC()
	entries := []store.Entry{
		{Kind: store.EntrySubmit, Job: "j-crashed", Time: now, Origin: "node-a", Request: &req},
		{Kind: store.EntryState, Job: "j-crashed", Time: now, State: api.JobStateRunning},
		{Kind: store.EntryPoints, Job: "j-crashed", Time: now, Points: []api.SweepPoint{
			{Index: 0, Value: 1, Perf: &api.Performance{MeanJobs: 10}},
		}},
		{Kind: store.EntryPoints, Job: "j-crashed", Time: now, Points: []api.SweepPoint{
			{Index: 1, Value: 2, Perf: &api.Performance{MeanJobs: 20}},
		}},
	}
	for _, e := range entries {
		if err := l.Append(e); err != nil {
			t.Fatalf("forge entry: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close forged log: %v", err)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close()
	eng := &fakeEngine{gate: make(chan struct{}, 8)}
	s := New(Config{Engine: eng, Log: l2, NodeID: "node-a"})
	defer s.Close()
	st, err := s.Status("j-crashed")
	if err != nil {
		t.Fatalf("Status after replay: %v", err)
	}
	if st.Detail != api.DetailNodeRestarting {
		t.Fatalf("recovered job Detail = %q, want %q", st.Detail, api.DetailNodeRestarting)
	}
	if st.Progress.Completed != 2 || st.Progress.Total != 5 {
		t.Fatalf("recovered progress %+v, want 2/5", st.Progress)
	}
	for i := 0; i < 3; i++ {
		eng.gate <- struct{}{} // release exactly the three missing points
	}
	final, err := s.Wait(context.Background(), "j-crashed")
	if err != nil || final.State != api.JobStateDone {
		t.Fatalf("resumed job: %+v, %v", final, err)
	}
	if final.Detail != "" {
		t.Fatalf("terminal job kept Detail %q", final.Detail)
	}
	res, err := s.Result("j-crashed")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	pts := res.Sweep.Points
	if len(pts) != 5 {
		t.Fatalf("resumed sweep has %d points, want 5", len(pts))
	}
	for i, pt := range pts {
		if pt.Index != i || pt.Value != float64(i+1) {
			t.Fatalf("point %d out of order: %+v", i, pt)
		}
	}
	// The recovered prefix was NOT re-solved: its persisted performances
	// survive verbatim, and the engine ran exactly one 3-point stream.
	if pts[0].Perf.MeanJobs != 10 || pts[1].Perf.MeanJobs != 20 {
		t.Fatalf("recovered prefix was re-solved: %+v %+v", pts[0], pts[1])
	}
	if n := eng.streamRuns.Load(); n != 1 {
		t.Fatalf("engine streams = %d, want 1", n)
	}
}

// countingEngine solves on a real engine and counts the sweep points it
// is asked for.
type countingEngine struct {
	*service.Engine
	points atomic.Int64
}

func (c *countingEngine) EvaluateStream(ctx context.Context, jobs []service.Job, emit func(service.Result) error) error {
	c.points.Add(int64(len(jobs)))
	return c.Engine.EvaluateStream(ctx, jobs, emit)
}

// TestReplayResumesAcrossFormatUpgrade forges the log an upgrade across a
// crash leaves behind: a 7-point sweep whose points 0–2 an older binary
// wrote as JSON records and points 3–4 this one wrote in the points
// layout, with no terminal state. Grid values 5 and 4.2 overload the
// 4-server system, so each encoding also carries a failed point. The job
// must resume at index 5 and finish with exactly the result of an
// uninterrupted run.
func TestReplayResumesAcrossFormatUpgrade(t *testing.T) {
	req := sweepJob(0.5, 1, 5, 2, 4.2, 3, 3.5)
	ref := New(Config{Engine: service.NewEngine(service.Config{})})
	st, err := ref.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ref.Wait(context.Background(), st.ID); err != nil || got.State != api.JobStateDone {
		t.Fatalf("uninterrupted run: %+v, %v", got, err)
	}
	want, err := ref.Result(st.ID)
	ref.Close()
	if err != nil {
		t.Fatalf("uninterrupted Result: %v", err)
	}
	pts := want.Sweep.Points
	if pts[2].Error == "" || pts[4].Error == "" || pts[3].Perf == nil {
		t.Fatalf("reference points lack the expected failures: %+v", pts)
	}

	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0).UTC()
	old, err := store.OpenWAL(dir, store.Options{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	legacy := []store.Entry{
		{Kind: store.EntrySubmit, Job: "j-upgraded", Time: now, Origin: "node-a", Request: &req},
		{Kind: store.EntryState, Job: "j-upgraded", Time: now, State: api.JobStateRunning},
	}
	for _, pt := range pts[:3] {
		legacy = append(legacy, store.Entry{Kind: store.EntryPoints, Job: "j-upgraded", Time: now, Points: []api.SweepPoint{pt}})
	}
	for _, e := range legacy {
		payload, err := json.Marshal(e) // every record as the pre-layout JobLog.Append wrote it
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Append(payload); err != nil {
			t.Fatalf("legacy append: %v", err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatalf("close legacy log: %v", err)
	}
	l := openTestLog(t, dir)
	for _, pt := range pts[3:5] {
		if err := l.Append(store.Entry{Kind: store.EntryPoints, Job: "j-upgraded", Time: now, Points: []api.SweepPoint{pt}}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close()
	eng := &countingEngine{Engine: service.NewEngine(service.Config{})}
	s := New(Config{Engine: eng, Log: l2, NodeID: "node-a"})
	defer s.Close()
	if n := l2.ReplaySkipped(); n != 0 {
		t.Fatalf("replay skipped %d records", n)
	}
	final, err := s.Wait(context.Background(), "j-upgraded")
	if err != nil || final.State != api.JobStateDone {
		t.Fatalf("resumed job: %+v, %v", final, err)
	}
	if n := eng.points.Load(); n != 2 {
		t.Fatalf("engine solved %d points after the restart, want 2 (resume at index 5)", n)
	}
	got, err := s.Result("j-upgraded")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !reflect.DeepEqual(got.Sweep, want.Sweep) {
		t.Fatalf("resumed result %+v, want the uninterrupted %+v", got.Sweep, want.Sweep)
	}
}

// TestReplaySkipsDowngradeRerun forges the log an upgrade, a downgrade
// mid-sweep and a second upgrade leave behind: this binary wrote a 7-point
// sweep's submit and points 0–2 in the points layout; an older binary,
// which cannot decode that layout, then re-ran the sweep from index 0 and
// wrote points 0–4 as JSON records before a crash, with no terminal
// state. Replay must rebuild the one prefix 0–4, not the concatenation
// [0–2, 0–4], resume at index 5 and finish with exactly the result of an
// uninterrupted run.
func TestReplaySkipsDowngradeRerun(t *testing.T) {
	req := sweepJob(0.5, 1, 5, 2, 4.2, 3, 3.5)
	ref := New(Config{Engine: service.NewEngine(service.Config{})})
	st, err := ref.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ref.Wait(context.Background(), st.ID); err != nil || got.State != api.JobStateDone {
		t.Fatalf("uninterrupted run: %+v, %v", got, err)
	}
	want, err := ref.Result(st.ID)
	ref.Close()
	if err != nil {
		t.Fatalf("uninterrupted Result: %v", err)
	}
	pts := want.Sweep.Points

	dir := t.TempDir()
	now := time.Unix(1_700_000_000, 0).UTC()
	l := openTestLog(t, dir)
	current := []store.Entry{
		{Kind: store.EntrySubmit, Job: "j-downgraded", Time: now, Origin: "node-a", Request: &req},
		{Kind: store.EntryState, Job: "j-downgraded", Time: now, State: api.JobStateRunning},
	}
	for _, pt := range pts[:3] {
		current = append(current, store.Entry{Kind: store.EntryPoints, Job: "j-downgraded", Time: now, Points: []api.SweepPoint{pt}})
	}
	for _, e := range current {
		if err := l.Append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
	old, err := store.OpenWAL(dir, store.Options{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	legacy := []store.Entry{{Kind: store.EntryState, Job: "j-downgraded", Time: now, State: api.JobStateRunning}}
	for _, pt := range pts[:5] {
		legacy = append(legacy, store.Entry{Kind: store.EntryPoints, Job: "j-downgraded", Time: now, Points: []api.SweepPoint{pt}})
	}
	for _, e := range legacy {
		payload, err := json.Marshal(e) // as the older binary's JobLog.Append wrote it
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Append(payload); err != nil {
			t.Fatalf("legacy append: %v", err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatalf("close legacy log: %v", err)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close()
	eng := &countingEngine{Engine: service.NewEngine(service.Config{})}
	s := New(Config{Engine: eng, Log: l2, NodeID: "node-a"})
	defer s.Close()
	final, err := s.Wait(context.Background(), "j-downgraded")
	if err != nil || final.State != api.JobStateDone {
		t.Fatalf("resumed job: %+v, %v", final, err)
	}
	if n := eng.points.Load(); n != 2 {
		t.Fatalf("engine solved %d points after the restart, want 2 (resume at index 5)", n)
	}
	got, err := s.Result("j-downgraded")
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if !reflect.DeepEqual(got.Sweep, want.Sweep) {
		t.Fatalf("resumed result %+v, want the uninterrupted %+v", got.Sweep, want.Sweep)
	}
}

// TestBeginDrainRejectsSubmitImmediately is the drain-race regression
// test: once BeginDrain returns, every Submit must fail with
// api.CodeNodeUnavailable — no raced accept into a scheduler that is
// about to die with the process — while already-accepted jobs still run
// to completion under Drain.
func TestBeginDrainRejectsSubmitImmediately(t *testing.T) {
	eng := &fakeEngine{gate: make(chan struct{}, 8)}
	s := New(Config{Engine: eng})
	defer s.Close()
	st, err := s.Submit(context.Background(), sweepJob(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()
	if _, err := s.Submit(context.Background(), sweepJob(3)); codeOf(t, err) != api.CodeNodeUnavailable {
		t.Fatalf("Submit after BeginDrain: %v, want node_unavailable", err)
	}
	eng.gate <- struct{}{}
	eng.gate <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got, _ := s.Status(st.ID); got.State != api.JobStateDone {
		t.Fatalf("accepted job after drain: %+v", got)
	}
	if _, err := s.Submit(context.Background(), sweepJob(4)); codeOf(t, err) != api.CodeNodeUnavailable {
		t.Fatalf("Submit after Drain: %v, want node_unavailable", err)
	}
}

// fakeRouter implements Router by serving every point locally (in one
// shard-ordered gather, like the real router) and reporting a fixed
// ring owner.
type fakeRouter struct {
	self  string
	owner string

	mu     sync.Mutex
	sweeps int
}

func (r *fakeRouter) Self() string           { return r.self }
func (r *fakeRouter) Owner(fp string) string { return r.owner }
func (r *fakeRouter) Sweep(ctx context.Context, req api.SweepRequest, fps []string, emit func(api.SweepPoint) error, local cluster.LocalEval) error {
	r.mu.Lock()
	r.sweeps++
	r.mu.Unlock()
	n := len(req.Values)
	results := make([]api.SweepPoint, n)
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i
	}
	var mu sync.Mutex
	err := local(ctx, indices, func(pt api.SweepPoint) {
		mu.Lock()
		pt.Value = req.Values[pt.Index]
		results[pt.Index] = pt
		mu.Unlock()
	})
	if err != nil {
		return err
	}
	for _, pt := range results {
		if err := emit(pt); err != nil {
			return err
		}
	}
	return nil
}

// TestClusterSweepShardsAndStatus checks the clustered sweep path: the
// job routes through the router, and its status reports the planned
// shard map — one shard per environment fingerprint with its ring owner
// — fully completed at the end.
func TestClusterSweepShardsAndStatus(t *testing.T) {
	rt := &fakeRouter{self: "node-a", owner: "node-b"}
	s := New(Config{Engine: &fakeEngine{}, Router: rt})
	defer s.Close()
	if s.nodeID != "node-a" {
		t.Fatalf("NodeID not defaulted from Router.Self: %q", s.nodeID)
	}
	st, err := s.Submit(context.Background(), sweepJob(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Wait(context.Background(), st.ID)
	if err != nil || final.State != api.JobStateDone {
		t.Fatalf("clustered sweep: %+v, %v", final, err)
	}
	rt.mu.Lock()
	sweeps := rt.sweeps
	rt.mu.Unlock()
	if sweeps != 1 {
		t.Fatalf("router saw %d sweeps, want 1", sweeps)
	}
	// A λ-sweep shares one environment: one shard, all four points.
	if len(final.Shards) != 1 {
		t.Fatalf("shard map %+v, want one shard", final.Shards)
	}
	sh := final.Shards[0]
	if sh.Node != "node-b" || sh.Points != 4 || sh.Completed != 4 || sh.Fingerprint == "" {
		t.Fatalf("shard %+v, want node-b 4/4 with a fingerprint", sh)
	}
	res, err := s.Result(st.ID)
	if err != nil || len(res.Sweep.Points) != 4 {
		t.Fatalf("clustered result: %+v, %v", res, err)
	}
}

// TestGCCompactsLog checks that TTL expiry also compacts the job log:
// after the janitor's gc, a fresh replay no longer sees the expired job.
func TestGCCompactsLog(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	clk := newFakeClock()
	s := New(Config{Engine: &fakeEngine{}, Log: l, TTL: time.Minute, Now: clk.Now})
	st, err := s.Submit(context.Background(), sweepJob(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Wait(context.Background(), st.ID); err != nil || got.State != api.JobStateDone {
		t.Fatalf("Wait: %+v, %v", got, err)
	}
	clk.Advance(2 * time.Minute)
	s.gc()
	if _, err := s.Status(st.ID); codeOf(t, err) != api.CodeNotFound {
		t.Fatalf("expired job still present: %v", err)
	}
	s.Close()
	if err := l.Close(); err != nil {
		t.Fatalf("close log: %v", err)
	}
	l2 := openTestLog(t, dir)
	defer l2.Close()
	s2 := New(Config{Engine: &fakeEngine{}, Log: l2})
	defer s2.Close()
	if list := s2.List(); len(list) != 0 {
		t.Fatalf("compacted log replayed %d jobs, want 0: %+v", len(list), list)
	}
}
