package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/jobs"
	"repro/internal/store"
)

// The traced run assembles the daemon's layers in-process from their
// public packages and feeds them the workload's generated inputs, one op
// at a time, recording a span around every call into a layer. It runs
// serially — one op, one solver worker — so self times add up to the
// op's time. A layer that calls the next one internally (Engine.Evaluate
// calls System.Fingerprint and, on a miss, System.SolveWith) gets the
// inner call timed on the same inputs in a pass of its own; the inner
// time is then moved out of the outer layer's self time. Untraced blocks
// of the same ops alternate with traced ones to measure the tracing's own
// cost.

// tracedBudget bounds the in-process traced pass of one run.
const tracedBudget = 8 * time.Second

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// solveOp is one op of the solve workloads through the in-process
// layers: decode, resolve, evaluate, fingerprint and encode, as the
// daemon's /v1/solve handler does them.
func solveOp(ctx context.Context, rec *recorder, eng *service.Engine, body []byte, out *bytes.Buffer) error {
	span := func(name string, parent int) int {
		if rec == nil {
			return -1
		}
		return rec.start(name, parent)
	}
	end := func(i int) {
		if rec != nil {
			rec.end(i)
		}
	}
	root := -1
	if rec != nil {
		root = rec.root("op")
	}
	s := span("api.decode", root)
	var req api.SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	end(s)
	if err != nil {
		return err
	}
	s = span("api.resolve", root)
	sys, m, err := req.Resolve()
	stable := err == nil && sys.Stable()
	end(s)
	if !stable {
		return fmt.Errorf("traced op: unresolvable or unstable request %+v: %v", req, err)
	}
	s = span("service.evaluate", root)
	perf, err := eng.Evaluate(ctx, sys, m)
	end(s)
	if err != nil {
		return err
	}
	s = span("core.fingerprint", root)
	fp := sys.Fingerprint()
	end(s)
	s = span("api.encode", root)
	out.Reset()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err = enc.Encode(api.SolveResponse{
		Fingerprint:  fp,
		Method:       m.String(),
		Availability: sys.Availability(),
		Modes:        sys.Modes(),
		Stable:       true,
		Perf:         api.FromPerformance(perf),
	})
	end(s)
	if rec != nil {
		rec.end(root)
	}
	return err
}

// tracedResult is what the traced run adds to a run's output.
type tracedResult struct {
	table   *layerTable
	metrics map[string]float64
	layerUs float64 // api + service + core self time per op, µs
}

// tracedSolve runs the solve workloads' inputs through the layers. hot
// primes one engine with the working set so every op is a hit; cold gives
// the traced and untraced blocks fresh engines so every op misses.
func tracedSolve(ctx context.Context, seed int64, hot bool) (*tracedResult, error) {
	var next func() api.SolveRequest
	var eng, engU, engT *service.Engine
	if hot {
		set := hotSet(seed)
		eng = service.NewEngine(service.Config{})
		var wg sync.WaitGroup
		errs := make([]error, conns)
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(set) && errs[w] == nil; i += conns {
					sys, m, err := set[i].Resolve()
					if err == nil {
						_, err = eng.Evaluate(ctx, sys, m)
					}
					errs[w] = err
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("priming the traced engine: %w", err)
			}
		}
		rng := rngFor(seed, streamHotPick)
		next = func() api.SolveRequest { return set[rng.IntN(len(set))] }
		engU, engT = eng, eng
	} else {
		s := newColdStream(seed, streamCold, 0)
		next = s.next
		engU = service.NewEngine(service.Config{Workers: 1})
		engT = service.NewEngine(service.Config{Workers: 1})
	}
	// Cold ops go one at a time, so each op's inner solve pass runs right
	// after it, at the same host speed.
	block := 2000
	if !hot {
		block = 1
	}
	rec := newRecorder()
	var buf bytes.Buffer
	var untraced, fpTime, solveTime time.Duration
	var untracedOps, fpCalls, solves int
	var alloc uint64
	deadline := time.Now().Add(tracedBudget)
	for time.Now().Before(deadline) && len(rec.spans) < 1<<20 {
		bodies := make([][]byte, block)
		systems := make([]core.System, block)
		for i := range bodies {
			req := next()
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			bodies[i] = b
			if systems[i], _, err = req.Resolve(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		for _, b := range bodies {
			if err := solveOp(ctx, nil, engU, b, &buf); err != nil {
				return nil, err
			}
		}
		untraced += time.Since(t)
		untracedOps += block
		for _, b := range bodies {
			if err := solveOp(ctx, rec, engT, b, &buf); err != nil {
				return nil, err
			}
		}
		t = time.Now()
		for _, sys := range systems {
			_ = sys.Fingerprint()
		}
		fpTime += time.Since(t)
		fpCalls += block
		if !hot {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t = time.Now()
			for _, sys := range systems {
				if _, err := sys.SolveWith(core.Spectral); err != nil {
					return nil, err
				}
			}
			solveTime += time.Since(t)
			runtime.ReadMemStats(&m1)
			alloc += m1.TotalAlloc - m0.TotalAlloc
			solves += block
		}
	}
	tb := newLayerTable(rec.spans)
	fpMean := fpTime / time.Duration(fpCalls)
	tb.attributeInner("service.evaluate", "core.fingerprint", fpMean, 1)
	r := &tracedResult{table: tb, metrics: zeroTraced()}
	if hot {
		r.metrics["service.evaluate_hit_us"] = us(tb.perCall("service.evaluate"))
	} else {
		solveMean := solveTime / time.Duration(solves)
		tb.attributeInner("service.evaluate", "core.solve", solveMean, 1)
		r.metrics["core.solve_ms"] = ms(tb.perCall("core.solve"))
		r.metrics["core.solve_alloc_kb"] = float64(alloc) / float64(solves) / 1024
	}
	for _, n := range []string{"api.decode", "api.resolve", "api.encode", "core.fingerprint"} {
		r.metrics[n+"_us"] = us(tb.perCall(n))
	}
	for _, n := range []string{"api.decode", "api.resolve", "api.encode", "core.fingerprint", "service.evaluate", "core.solve"} {
		r.layerUs += us(tb.perOp(n))
	}
	r.metrics["trace.overhead_pct"] = overheadPct(tb.total(), tb.roots, untraced, untracedOps)
	return r, nil
}

// overheadPct compares the traced time per op (the roots' total) with
// the untraced one.
func overheadPct(traced time.Duration, tracedOps int, untraced time.Duration, untracedOps int) float64 {
	if tracedOps == 0 || untracedOps == 0 || untraced == 0 {
		return 0
	}
	t := float64(traced) / float64(tracedOps)
	u := float64(untraced) / float64(untracedOps)
	return (t - u) / u * 100
}

// zeroTraced is the traced metric set with every layer a workload does not
// call at 0.
func zeroTraced() map[string]float64 {
	m := make(map[string]float64)
	for _, n := range []string{
		"api.decode_us", "api.resolve_us", "api.encode_us", "core.fingerprint_us",
		"service.evaluate_hit_us", "core.solve_ms", "core.solve_alloc_kb",
		"core.hoist_ms", "core.point_ms", "jobs.submit_us", "store.append_us",
		"store.sync_ms", "trace.overhead_pct",
	} {
		m[n] = 0
	}
	return m
}

// jobStack is one in-process scheduler over its own engine and job log.
type jobStack struct {
	log   *store.JobLog
	sched *jobs.Scheduler
}

func newJobStack(dir string) (*jobStack, error) {
	l, err := store.OpenJobLog(dir, store.Options{FsyncInterval: store.DefaultFsyncInterval})
	if err != nil {
		return nil, err
	}
	eng := service.NewEngine(service.Config{Workers: 1})
	return &jobStack{log: l, sched: jobs.New(jobs.Config{Engine: eng, Log: l, Workers: 1})}, nil
}

func (s *jobStack) close() error {
	s.sched.Close()
	return s.log.Close()
}

// runJob submits one sweep job and waits for it, recording spans when rec
// is set.
func (s *jobStack) runJob(ctx context.Context, rec *recorder, req api.SweepRequest) error {
	root, sub, run := -1, -1, -1
	if rec != nil {
		root = rec.root("op")
		sub = rec.start("jobs.submit", root)
	}
	st, err := s.sched.Submit(ctx, api.NewSweepJob(req))
	if rec != nil {
		rec.end(sub)
		run = rec.start("jobs.run", root)
	}
	if err != nil {
		return err
	}
	final, err := s.sched.Wait(ctx, st.ID)
	if rec != nil {
		rec.end(run)
		rec.end(root)
	}
	if err != nil {
		return err
	}
	if final.State != api.JobStateDone {
		return fmt.Errorf("traced job %s ended %s", final.ID, final.State)
	}
	res, err := s.sched.Result(st.ID)
	if err != nil {
		return err
	}
	return checkGrid(req, res.Sweep)
}

// tracedJobs runs jobs-durable's grids through jobs.Scheduler →
// service.Engine → core with a store.JobLog, and times the inner calls —
// the batch hoist, each point solve, each WAL append and the fsync — in
// their own passes on the same grids.
func tracedJobs(ctx context.Context, seed int64, dir string) (*tracedResult, error) {
	stU, err := newJobStack(filepath.Join(dir, "traced-untraced"))
	if err != nil {
		return nil, err
	}
	defer stU.close()
	stT, err := newJobStack(filepath.Join(dir, "traced"))
	if err != nil {
		return nil, err
	}
	defer stT.close()
	alog, err := store.OpenJobLog(filepath.Join(dir, "traced-appends"), store.Options{FsyncInterval: store.DefaultFsyncInterval})
	if err != nil {
		return nil, err
	}
	defer alog.Close()

	rng := rngFor(seed, streamJobs)
	rec := newRecorder()
	var untraced, hoist, point, appendT, syncT time.Duration
	var grids, points int
	deadline := time.Now().Add(tracedBudget)
	for time.Now().Before(deadline) {
		req := sweepGrid(rng, jobN, jobPoints)
		t := time.Now()
		if err := stU.runJob(ctx, nil, req); err != nil {
			return nil, err
		}
		untraced += time.Since(t)
		if err := stT.runJob(ctx, rec, req); err != nil {
			return nil, err
		}
		systems, err := req.Systems()
		if err != nil {
			return nil, err
		}
		// The fsync the submission's ack waits for: one submit entry
		// appended, then synced.
		jr := api.NewSweepJob(req)
		if err := alog.Append(store.Entry{Kind: store.EntrySubmit, Job: "traced", Time: time.Now(), Request: &jr}); err != nil {
			return nil, err
		}
		t = time.Now()
		err = alog.Sync()
		syncT += time.Since(t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		bs, err := core.NewBatchSolver(systems[0])
		hoist += time.Since(t)
		if err != nil {
			return nil, err
		}
		for k, sys := range systems {
			t = time.Now()
			perf, err := bs.Solve(sys.ArrivalRate)
			point += time.Since(t)
			if err != nil {
				return nil, err
			}
			wp := api.FromPerformance(perf)
			e := store.Entry{Kind: store.EntryPoints, Job: "traced", Time: time.Now(),
				Points: []api.SweepPoint{{Index: k, Value: sys.ArrivalRate, Perf: &wp}}}
			t = time.Now()
			err = alog.Append(e)
			appendT += time.Since(t)
			if err != nil {
				return nil, err
			}
		}
		grids++
		points += len(systems)
	}
	if grids == 0 {
		return nil, fmt.Errorf("traced jobs: no grid finished within %s", tracedBudget)
	}
	perGrid := func(d time.Duration) time.Duration { return d / time.Duration(grids) }
	perPoint := func(d time.Duration) time.Duration { return d / time.Duration(points) }
	tb := newLayerTable(rec.spans)
	var submit time.Duration
	for _, s := range rec.spans {
		if s.Name == "jobs.submit" {
			submit += s.End - s.Start
		}
	}
	tb.opsPerRoot = jobPoints
	tb.attributeInner("jobs.run", "core.hoist", perGrid(hoist), 1)
	tb.attributeInner("jobs.run", "core.point", perPoint(point), jobPoints)
	tb.attributeInner("jobs.run", "store.append", perPoint(appendT), jobPoints)
	tb.attributeInner("jobs.submit", "store.sync", perGrid(syncT), 1)
	r := &tracedResult{table: tb, metrics: zeroTraced()}
	r.metrics["jobs.submit_us"] = us(submit / time.Duration(grids))
	r.metrics["store.append_us"] = us(perPoint(appendT))
	r.metrics["store.sync_ms"] = ms(perGrid(syncT))
	r.metrics["core.hoist_ms"] = ms(perGrid(hoist))
	r.metrics["core.point_ms"] = ms(perPoint(point))
	r.metrics["trace.overhead_pct"] = overheadPct(tb.total(), grids, untraced, grids)
	return r, nil
}

// tracedRestart repeats, in-process and on the stopped daemon's data
// directory, the boot steps of a durable restart, and prints their table.
func tracedRestart(w io.Writer, data string) error {
	opts := store.Options{FsyncInterval: store.DefaultFsyncInterval}
	rec := newRecorder()
	root := rec.root("restart")
	s := rec.start("store.open", root)
	jl, err := store.OpenJobLog(data, opts)
	rec.end(s)
	if err != nil {
		return err
	}
	eng := service.NewEngine(service.Config{})
	s = rec.start("store.read_snapshot", root)
	var snap service.CacheSnapshot
	err = store.ReadSnapshot(filepath.Join(data, "snapshot.json"), &snap)
	rec.end(s)
	if err != nil {
		jl.Close()
		return err
	}
	s = rec.start("service.warm_caches", root)
	warmed := eng.WarmCaches(snap)
	rec.end(s)
	s = rec.start("jobs.replay", root)
	sched := jobs.New(jobs.Config{Engine: eng, Log: jl})
	rec.end(s)
	rec.end(root)
	sched.Close()
	// The log decode alone, in its own pass on the same (now cached) log,
	// splits the replay between store and jobs.
	t := time.Now()
	records := 0
	err = jl.Replay(func(store.Entry) error { records++; return nil })
	decode := time.Since(t)
	if cerr := jl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	tb := newLayerTable(rec.spans)
	tb.attributeInner("jobs.replay", "store.replay_decode", decode, 1)
	tb.print(w, fmt.Sprintf("traced restart: %d WAL records, %d cache entries warmed; self time per restart", records, warmed))
	return nil
}
