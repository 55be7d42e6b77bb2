package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/core"
)

// Workload shapes. The sizes are fixed so the work of a run does not
// depend on the seed; the seed only picks the values.
const (
	hotPerN       = 48 // solve-hot working set: 48 configurations per N in 6..10
	hotSetups     = 3  // solve-hot set-ups (boot + priming) per run
	coldSetups    = 9  // solve-cold set-ups (boot + warm-up solves) per run
	coldWarmups   = 3  // warm-up solves per connection in each solve-cold set-up
	jobPoints     = 32 // grid points of one measured sweep job
	jobN          = 8  // fleet size of the measured sweep jobs
	jobsPerConn   = 2  // outstanding jobs per connection: 4 > the 2 job workers
	jobPoll       = 20 * time.Millisecond
	populateJobs  = 1600 // jobs of history written before the restarts
	populateN     = 4    // populate grids are cheap to solve; replay cost is per record
	populatePer   = 4    // outstanding populate jobs per connection
	restarts      = 5    // jobs-durable restarts per run
	rampSolve     = time.Second
	refitOffset   = 2500 * time.Millisecond // window start after ready, between refit ticks
	checkSolves   = 24                      // answers re-solved in-process per run
	anchorLambda  = 8.0
	anchorN       = 12
	anchorCost    = 45.13 // EXPERIMENTS.md Figure 5: C = 4L + N at λ = 8, N = 12
	anchorCostTol = 0.005
	relTol        = 1e-9
)

// outcome is everything one run measured and checked.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	report            []string
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// fail records n failed ops with the reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	o.note("FAILED: "+format, args...)
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string
	work     string
}

func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// solveWindow summarises the ops of a closed solve loop that fall inside
// the measured window.
func solveWindow(o *outcome, recs [][]opRec, p *phase) (lat, slices []float64) {
	slices = make([]float64, int(p.seconds()))
	for _, rs := range recs {
		for _, r := range rs {
			o.attempted++
			if r.err != nil {
				if o.failed == 0 {
					o.note("FAILED: first failed op: %v", r.err)
				}
				o.failed++
				continue
			}
			if r.inWindow(p.t0, p.t1) {
				lat = append(lat, float64(r.end.Sub(r.start))/1e6)
				if k := int(r.end.Sub(p.t0) / time.Second); k < len(slices) {
					slices[k]++
				}
			}
		}
	}
	return lat, slices
}

// endToEnd fills the six end-to-end metrics.
func endToEnd(o *outcome, setups []time.Duration, lat []float64, ops float64, p *phase, rss float64, sliceRates []float64) error {
	if ops <= 0 {
		return fmt.Errorf("no op completed inside the measured window")
	}
	ss := make([]float64, len(setups))
	for i, s := range setups {
		ss[i] = s.Seconds()
	}
	p50, p90 := percentile(lat, 0.5), percentile(lat, 0.9)
	if !p90.OK {
		return fmt.Errorf("latency p90 has %d samples beyond it, want ≥ %d", p90.Beyond, minBeyond)
	}
	o.e2e = map[string]float64{
		"setup_s":              median(ss),
		"ops_per_s":            ops / p.seconds(),
		"latency_p50_ms":       p50.Value,
		"latency_p90_ms":       p90.Value,
		"server_cpu_ms_per_op": float64(p.cpu1-p.cpu0) / 1e6 / ops,
		"peak_rss_mb":          rss,
	}
	o.note("setup: %d set-ups, seconds %v (median reported)", len(ss), fmtFloats(ss, 4))
	if q1, q2, q3, ok := quartiles(sliceRates); ok {
		o.note("slices: per-second op rates over the window %v; quartiles %.1f / %.1f / %.1f, within-run spread %.1f%%",
			fmtFloats(sliceRates, 0), q1, q2, q3, 100*(q3-q1)/q2)
	}
	o.note("latency: %d samples in a %.1fs window; p50=%.4fms (%d beyond), p90=%.4fms (%d beyond); highest percentile with ≥%d beyond: p%g",
		len(lat), p.seconds(), p50.Value, p50.Beyond, p90.Value, p90.Beyond, minBeyond, 100*highestSupported(len(lat), 0.5, 0.9, 0.99, 0.999))
	return nil
}

func fmtFloats(xs []float64, prec int) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.*f", prec, x)
	}
	return s + "]"
}

// serverSolveMs is the daemon's mean /v1/solve handling time over the
// phase, from its request-duration histogram.
func serverSolveMs(p *phase) float64 {
	n := p.delta("mus_http_request_duration_seconds_count", "method", "POST", "route", api.PathSolve)
	if n == 0 {
		return 0
	}
	return p.delta("mus_http_request_duration_seconds_sum", "method", "POST", "route", api.PathSolve) / n * 1e3
}

// daemonLayers fills the per-layer metrics that are deltas of daemon
// output over the phase. ops is the daemon-side op count over the same
// phase (requests answered, or sweep points recorded), so ratios against
// daemon counters are exact.
func daemonLayers(p *phase, ops float64) map[string]float64 {
	per := func(x float64) float64 {
		if ops == 0 {
			return 0
		}
		return x / ops
	}
	hits := p.delta("mus_cache_hits_total", "cache", "solver")
	misses := p.delta("mus_cache_misses_total", "cache", "solver")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	m := map[string]float64{
		"mus-serve.server_ms":        serverSolveMs(p),
		"service.hit_ratio":          ratio,
		"service.shared_inflight":    p.delta("mus_engine_shared_inflight_total"),
		"service.evictions":          p.delta("mus_cache_evictions_total", "cache", "solver"),
		"service.batch_fallbacks":    p.delta("mus_engine_batch_fallbacks_total"),
		"runtime.gc_cycles_per_op":   per(p.delta("mus_runtime_gc_pause_seconds_count")),
		"runtime.gc_pause_ms_per_op": per(p.delta("mus_runtime_gc_pause_seconds_sum") * 1e3),
		"admission.shed":             p.delta("mus_admission_shed_total"),
		"store.bytes_per_point":      0,
		"store.records_per_point":    0,
		"store.fsyncs_per_s":         p.delta("mus_store_fsyncs_total") / p.seconds(),
		"store.replay_s":             p.after.get("mus_store_replay_seconds"),
		"store.replayed_records":     p.after.get("mus_store_replayed_records"),
		"service.warmed_entries":     p.after.get("mus_engine_warmed_entries_total"),
		// Job metrics stay 0 on workloads that submit no jobs.
		"service.batch_groups_per_job": 0,
		"jobs.queue_wait_ms":           0,
		"jobs.run_ms":                  0,
		"client.transport_ms":          0,
	}
	return m
}

// checkValidity fails the run when its counters show the workload did not
// do what it claims: every solve-hot request a hit, every solve-cold
// request a miss, no admission shed, and a non-empty replay at the
// jobs-durable restart. (Solves and batch groups per op are reported, not
// enforced: a hoisted-solver cache may legitimately change them.)
func checkValidity(o *outcome, workload string, m map[string]float64) {
	bad := func(format string, args ...any) { o.fail(1, "validity: "+format, args...) }
	switch workload {
	case "solve-hot":
		if m["service.hit_ratio"] != 1 {
			bad("solve-hot hit ratio %v, want 1", m["service.hit_ratio"])
		}
	case "solve-cold":
		if m["service.hit_ratio"] != 0 {
			bad("solve-cold hit ratio %v, want 0", m["service.hit_ratio"])
		}
	case "jobs-durable":
		if m["store.replayed_records"] <= 0 {
			bad("the restart replayed no WAL records")
		}
	}
	if m["admission.shed"] != 0 {
		bad("%v submissions shed by admission control", m["admission.shed"])
	}
	o.note("check: validity counters hit_ratio=%g solves_per_op=%.4g batch_groups_per_job=%.4g shed=%g replayed_records=%g",
		m["service.hit_ratio"], m["service.solves_per_op"], m["service.batch_groups_per_job"], m["admission.shed"], m["store.replayed_records"])
}

// refitSolves counts the admission self-model's own solves over a phase:
// every refit with a stable fit solves one system through the engine, an
// unstable fit solves none.
func refitSolves(p *phase) float64 {
	return p.delta("mus_admission_model_solve_seconds_count")
}

// solvesPerOp is the engine's solves per op, the admission refits' own
// solves excluded. Over the window an op straddling an edge can count on
// one side only, so runs take it over a phase that starts before the
// first op and ends after the last.
func solvesPerOp(full *phase, ops float64) float64 {
	if ops == 0 {
		return 0
	}
	return (full.delta("mus_engine_solves_total") - refitSolves(full)) / ops
}

// sameAnswer reports whether two solve responses are identical.
func sameAnswer(a, b *api.SolveResponse) bool {
	return a != nil && b != nil && a.Fingerprint == b.Fingerprint && a.Method == b.Method &&
		a.Modes == b.Modes && a.Stable == b.Stable && a.Availability == b.Availability && a.Perf == b.Perf
}

func nearlyEqual(a, b float64) bool {
	return a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// matchesPerf compares a wire performance block with an in-process one.
func matchesPerf(w api.Performance, p *core.Performance) bool {
	return nearlyEqual(w.MeanJobs, p.MeanJobs) && nearlyEqual(w.MeanResponse, p.MeanResponse) &&
		nearlyEqual(w.TailDecay, p.TailDecay) && nearlyEqual(w.Load, p.Load)
}

// verifySolve re-solves a request in-process with the scalar spectral
// solver and compares the daemon's answer with it.
func verifySolve(req api.SolveRequest, resp *api.SolveResponse) error {
	sys, _, err := req.Resolve()
	if err != nil {
		return err
	}
	perf, err := sys.SolveWith(core.Spectral)
	if err != nil {
		return err
	}
	if resp.Fingerprint != sys.Fingerprint() || resp.Modes != sys.Modes() || !matchesPerf(resp.Perf, perf) {
		return fmt.Errorf("wrong answer: N=%d λ=%v: daemon %+v, in-process %+v", req.Servers, req.Lambda, resp.Perf, api.FromPerformance(perf))
	}
	return nil
}

// checkAnchor asks the daemon the paper's Figure 5 question at λ = 8,
// N = 12 and checks C = 4L + N ≈ 45.13.
func checkAnchor(ctx context.Context, o *outcome, c *client.Client) {
	req := solveReq(anchorN, anchorLambda)
	req.HoldingCost, req.ServerCost = 4, 1
	resp, err := c.Solve(ctx, req)
	switch {
	case err != nil:
		o.fail(1, "anchor solve: %v", err)
	case resp.Cost == nil || math.Abs(*resp.Cost-anchorCost) > anchorCostTol:
		o.fail(1, "anchor: λ=8 N=12 cost %v, want %.2f", resp.Cost, anchorCost)
	default:
		o.note("check: paper anchor λ=8 N=12 C=%.4f (want ≈ %.2f)", *resp.Cost, anchorCost)
	}
}

// ---------------------------------------------------------------- solve-hot

// hotSet is the solve-hot working set: Sun defaults, N in 6..10, loads
// drawn in [0.5, 0.85). 240 entries fit well inside the daemon's default
// 4096-entry cache.
func hotSet(seed int64) []api.SolveRequest {
	rng := rngFor(seed, streamHotSet)
	set := make([]api.SolveRequest, 0, 5*hotPerN)
	for n := 6; n <= 10; n++ {
		for k := 0; k < hotPerN; k++ {
			set = append(set, solveReq(n, lambdaAt(n, 0.5+0.35*rng.Float64())))
		}
	}
	return set
}

// prime solves the whole working set once over conns connections and
// returns the daemon's answers.
func prime(ctx context.Context, c *client.Client, set []api.SolveRequest) ([]*api.SolveResponse, error) {
	out := make([]*api.SolveResponse, len(set))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(set) && errs[w] == nil; i += conns {
				out[i], errs[w] = c.Solve(ctx, set[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	return out, nil
}

func runSolveHot(ctx context.Context, cfg config, dir string, o *outcome) (*runState, error) {
	set := hotSet(cfg.seed)
	var setups []time.Duration
	var d *daemon
	var primed []*api.SolveResponse
	for r := 0; r < hotSetups; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = startDaemon(cfg.bin, filepath.Join(dir, fmt.Sprintf("mus-serve-%d.log", r))); err != nil {
			return nil, err
		}
		got, err := prime(ctx, newClient(d), set)
		if err != nil {
			d.kill()
			return nil, err
		}
		setups = append(setups, time.Since(d.started))
		for i := range got {
			if primed != nil && !sameAnswer(got[i], primed[i]) {
				o.fail(1, "priming answer %d differs between set-ups", i)
			}
		}
		primed = got
	}
	st := &runState{d: d, c: newClient(d)}
	full := &phase{}
	var err error
	if full.before, err = d.scrape(ctx); err != nil {
		d.kill()
		return nil, err
	}
	var stop atomic.Bool
	done := make(chan [][]opRec, 1)
	go func() {
		done <- runLoops(&stop, func(conn int, stop *atomic.Bool) []opRec {
			rng := rngFor(cfg.seed, streamHotPick+uint64(conn))
			out := make([]opRec, 0, 1<<18)
			for !stop.Load() && ctx.Err() == nil {
				i := rng.IntN(len(set))
				s := time.Now()
				resp, err := st.c.Solve(ctx, set[i])
				e := time.Now()
				if err == nil && !sameAnswer(resp, primed[i]) {
					err = fmt.Errorf("wrong answer: configuration %d answered %+v, primed %+v", i, resp, primed[i])
				}
				out = append(out, opRec{start: s, end: e, err: err})
			}
			return out
		})
	}()
	t0 := time.Now().Add(rampSolve)
	p, err := measure(ctx, d, t0, t0.Add(cfg.window()))
	stop.Store(true)
	recs := <-done
	if err == nil {
		full.after, err = d.scrape(ctx)
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	st.p = p
	lat, slices := solveWindow(o, recs, p)
	o.note("check: every solve-hot answer compared with its primed answer")
	rng := rngFor(cfg.seed, streamCheck)
	for k := 0; k < checkSolves/2; k++ {
		i := rng.IntN(len(set))
		if err := verifySolve(set[i], primed[i]); err != nil {
			o.fail(1, "%v", err)
		}
	}
	o.note("check: %d primed answers re-solved in-process", checkSolves/2)
	checkAnchor(ctx, o, st.c)
	rss, err := d.peakRSS()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := endToEnd(o, setups, lat, float64(len(lat)), p, rss, slices); err != nil {
		d.kill()
		return nil, err
	}
	st.layers = daemonLayers(p, p.delta("mus_http_request_duration_seconds_count", "method", "POST", "route", api.PathSolve))
	st.layers["service.solves_per_op"] = solvesPerOp(full, full.delta("mus_http_request_duration_seconds_count", "method", "POST", "route", api.PathSolve))
	st.layers["client.transport_ms"] = mean(lat) - st.layers["mus-serve.server_ms"]
	return st, nil
}

// runState carries what a run leaves for the host label, the traced run
// and shutdown.
type runState struct {
	d       *daemon
	c       *client.Client
	p       *phase
	layers  map[string]float64
	dataDir string
}

// --------------------------------------------------------------- solve-cold

// coldStream yields solve-cold requests: N cycles through 8, 9, 10 and the
// load is drawn in [0.70, 0.71), so λ is always new while the work per op
// stays the same whatever the seed.
type coldStream struct {
	rng *rand.Rand
	i   int
}

func newColdStream(seed int64, stream uint64, offset int) *coldStream {
	return &coldStream{rng: rngFor(seed, stream), i: offset}
}

func (s *coldStream) next() api.SolveRequest {
	n := 8 + s.i%3
	s.i++
	return solveReq(n, lambdaAt(n, 0.70+0.01*s.rng.Float64()))
}

type coldOp struct {
	req  api.SolveRequest
	resp *api.SolveResponse
}

func runSolveCold(ctx context.Context, cfg config, dir string, o *outcome) (*runState, error) {
	var setups []time.Duration
	var d *daemon
	for r := 0; r < coldSetups; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = startDaemon(cfg.bin, filepath.Join(dir, fmt.Sprintf("mus-serve-%d.log", r))); err != nil {
			return nil, err
		}
		c := newClient(d)
		errs := make([]error, conns)
		var wg sync.WaitGroup
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := newColdStream(cfg.seed, streamColdBoot+uint64(r*conns+w), w)
				for k := 0; k < coldWarmups && errs[w] == nil; k++ {
					_, errs[w] = c.Solve(ctx, s.next())
				}
			}()
		}
		wg.Wait()
		setups = append(setups, time.Since(d.started))
		for _, err := range errs {
			if err != nil {
				d.kill()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	st := &runState{d: d, c: newClient(d)}
	full := &phase{}
	var err error
	if full.before, err = d.scrape(ctx); err != nil {
		d.kill()
		return nil, err
	}
	var stop atomic.Bool
	ops := make([][]coldOp, conns)
	done := make(chan [][]opRec, 1)
	go func() {
		done <- runLoops(&stop, func(conn int, stop *atomic.Bool) []opRec {
			s := newColdStream(cfg.seed, streamCold+uint64(conn), conn)
			var out []opRec
			for !stop.Load() && ctx.Err() == nil {
				req := s.next()
				t := time.Now()
				resp, err := st.c.Solve(ctx, req)
				e := time.Now()
				if err == nil && (!resp.Stable || resp.Method != api.MethodSpectral) {
					err = fmt.Errorf("wrong answer: N=%d λ=%v answered stable=%v method=%q", req.Servers, req.Lambda, resp.Stable, resp.Method)
				}
				out = append(out, opRec{start: t, end: e, err: err})
				if err == nil {
					ops[conn] = append(ops[conn], coldOp{req, resp})
				}
			}
			return out
		})
	}()
	t0 := time.Now().Add(rampSolve)
	p, err := measure(ctx, d, t0, t0.Add(cfg.window()))
	stop.Store(true)
	recs := <-done
	if err == nil {
		full.after, err = d.scrape(ctx)
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	st.p = p
	lat, slices := solveWindow(o, recs, p)
	var all []coldOp
	for _, c := range ops {
		all = append(all, c...)
	}
	rng := rngFor(cfg.seed, streamCheck)
	for k := 0; k < checkSolves && len(all) > 0; k++ {
		op := all[rng.IntN(len(all))]
		if err := verifySolve(op.req, op.resp); err != nil {
			o.fail(1, "%v", err)
		}
	}
	o.note("check: %d of %d answers re-solved in-process", checkSolves, len(all))
	checkAnchor(ctx, o, st.c)
	rss, err := d.peakRSS()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := endToEnd(o, setups, lat, float64(len(lat)), p, rss, slices); err != nil {
		d.kill()
		return nil, err
	}
	st.layers = daemonLayers(p, p.delta("mus_http_request_duration_seconds_count", "method", "POST", "route", api.PathSolve))
	st.layers["service.solves_per_op"] = solvesPerOp(full, full.delta("mus_http_request_duration_seconds_count", "method", "POST", "route", api.PathSolve))
	st.layers["client.transport_ms"] = mean(lat) - st.layers["mus-serve.server_ms"]
	return st, nil
}

// ------------------------------------------------------------- jobs-durable

// populate writes job history into the data dir through a fresh daemon:
// populateJobs sweep jobs of jobPoints points at N = populateN, each a
// fresh grid. It returns the job IDs.
func populate(ctx context.Context, cfg config, d *daemon) ([]string, error) {
	c := newClient(d)
	var submitted atomic.Int64
	var stop atomic.Bool
	ids := make([][]string, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rngFor(cfg.seed, streamPopulate+uint64(w))
			next := func() api.SweepRequest {
				if submitted.Add(1) >= populateJobs {
					stop.Store(true)
				}
				return sweepGrid(rng, populateN, jobPoints)
			}
			for _, j := range jobsLoop(ctx, c, next, populatePer, 2*time.Millisecond, &stop) {
				if j.err != nil {
					errs[w] = j.err
					return
				}
				ids[w] = append(ids[w], j.status.ID)
			}
		}()
	}
	wg.Wait()
	var all []string
	for w := range ids {
		if errs[w] != nil {
			return nil, fmt.Errorf("populate: %w", errs[w])
		}
		all = append(all, ids[w]...)
	}
	return all, nil
}

func runJobsDurable(ctx context.Context, cfg config, dir string, o *outcome) (*runState, error) {
	data := filepath.Join(dir, "data")
	d, err := startDaemon(cfg.bin, filepath.Join(dir, "mus-serve-populate.log"), "-data-dir", data)
	if err != nil {
		return nil, err
	}
	tp := time.Now()
	ids, err := populate(ctx, cfg, d)
	if err != nil {
		d.kill()
		return nil, err
	}
	o.note("populate: %d jobs x %d points at N=%d in %.2fs", len(ids), jobPoints, populateN, time.Since(tp).Seconds())
	if err := d.stop(); err != nil {
		return nil, err
	}
	var setups []time.Duration
	for r := 0; r < restarts; r++ {
		if r > 0 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		if d, err = startDaemon(cfg.bin, filepath.Join(dir, fmt.Sprintf("mus-serve-%d.log", r)), "-data-dir", data); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup())
	}
	st := &runState{d: d, c: newClient(d), dataDir: data}
	list, err := st.c.ListJobs(ctx)
	if err != nil {
		d.kill()
		return nil, err
	}
	listed := make(map[string]string, len(list.Jobs))
	for _, j := range list.Jobs {
		listed[j.ID] = j.State
	}
	missing := 0
	for _, id := range ids {
		if listed[id] != api.JobStateDone {
			missing++
		}
	}
	if missing > 0 {
		o.fail(missing*jobPoints, "%d of %d populated jobs not listed as done after the restart", missing, len(ids))
	} else {
		o.note("check: the restarted daemon lists all %d populated jobs as done", len(ids))
	}

	// Ratios per job and per point are taken over every measured-phase job,
	// from just before the first submission to just after the last job
	// ends, so no job straddles an edge; the window gives the rates.
	full := &phase{}
	if full.before, err = d.scrape(ctx); err != nil {
		d.kill()
		return nil, err
	}
	var stop atomic.Bool
	recs := make([][]jobRec, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rngFor(cfg.seed, streamJobs+uint64(w))
			next := func() api.SweepRequest { return sweepGrid(rng, jobN, jobPoints) }
			recs[w] = jobsLoop(ctx, st.c, next, jobsPerConn, jobPoll, &stop)
		}()
	}
	// The window starts half-way between two admission refit ticks (every
	// 5s from boot), so every run's window holds the same number of refits.
	t0 := d.ready.Add(refitOffset)
	p, err := measure(ctx, d, t0, t0.Add(cfg.window()))
	stop.Store(true)
	wg.Wait()
	if err == nil {
		full.after, err = d.scrape(ctx)
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	st.p = p
	var lat, queue, run []float64
	var window []jobRec
	done := 0
	for _, rs := range recs {
		for _, j := range rs {
			o.attempted += len(j.req.Values)
			if j.err != nil {
				o.fail(len(j.req.Values), "job: %v", j.err)
				continue
			}
			done++
			s := j.status
			if j.finishedIn(p.t0, p.t1) {
				window = append(window, j)
				lat = append(lat, float64(s.FinishedAt.Sub(s.CreatedAt))/1e6)
				queue = append(queue, float64(s.StartedAt.Sub(s.CreatedAt))/1e6)
				run = append(run, float64(s.FinishedAt.Sub(*s.StartedAt))/1e6)
			}
		}
	}
	o.note("check: every job result holds its %d grid points in order with no point errors", jobPoints)
	rng := rngFor(cfg.seed, streamCheck)
	for k := 0; k < 2 && len(window) > 0; k++ {
		j := window[rng.IntN(len(window))]
		if err := verifyGrid(j.req, j.result); err != nil {
			o.fail(len(j.req.Values), "%v", err)
		}
	}
	o.note("check: 2 job grids re-solved in-process with core.BatchSolver")
	checkAnchor(ctx, o, st.c)
	rss, err := d.peakRSS()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := endToEnd(o, setups, lat, float64(len(window)*jobPoints), p, rss, nil); err != nil {
		d.kill()
		return nil, err
	}
	st.layers = daemonLayers(p, p.delta("mus_jobs_sweep_points_total"))
	if points := full.delta("mus_jobs_sweep_points_total"); points > 0 {
		st.layers["service.solves_per_op"] = solvesPerOp(full, points)
		st.layers["store.bytes_per_point"] = full.delta("mus_store_appended_bytes_total") / points
		st.layers["store.records_per_point"] = full.delta("mus_store_appended_records_total") / points
	}
	if done > 0 {
		st.layers["service.batch_groups_per_job"] = full.delta("mus_engine_batch_groups_total") / float64(done)
	}
	st.layers["service.batch_fallbacks"] = full.delta("mus_engine_batch_fallbacks_total")
	st.layers["jobs.queue_wait_ms"] = mean(queue)
	st.layers["jobs.run_ms"] = mean(run)
	return st, nil
}

// verifyGrid re-solves a job's grid in-process through core.BatchSolver
// and compares every point.
func verifyGrid(req api.SweepRequest, res *api.SweepResponse) error {
	systems, err := req.Systems()
	if err != nil {
		return err
	}
	bs, err := core.NewBatchSolver(systems[0])
	if err != nil {
		return err
	}
	for k, sys := range systems {
		perf, err := bs.Solve(sys.ArrivalRate)
		if err != nil {
			return err
		}
		if !matchesPerf(*res.Points[k].Perf, perf) {
			return fmt.Errorf("wrong answer: grid point %d (λ=%v): daemon %+v, in-process %+v", k, sys.ArrivalRate, *res.Points[k].Perf, api.FromPerformance(perf))
		}
	}
	return nil
}
