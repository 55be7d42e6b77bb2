package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
)

// conns is the load generator's concurrency: one closed loop per
// connection, as many as the machine has CPUs (two on the machine the
// bounds were fitted on). One connection mostly measures scheduler
// wake-ups; more than nproc would measure the generator.
const conns = 2

// RNG stream identifiers: every generated input comes from the seed plus
// one of these, so the same seed gives the same inputs in every run and
// in the traced run.
const (
	streamHotSet   = 1
	streamHotPick  = 10 // + connection
	streamColdBoot = 100
	streamCold     = 200 // + connection
	streamPopulate = 300 // + connection
	streamJobs     = 400 // + connection
	streamCheck    = 500
)

func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// newClient builds the SDK client the load generator drives the daemon
// with: at most conns connections, and no retries — a retried 5xx or
// honoured 429 would hide a failed op.
func newClient(d *daemon) *client.Client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return client.New(d.url(), client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0))
}

// availability is the per-server operative fraction of the paper's Sun
// parameters, the defaults every generated request relies on.
var availability = func() float64 {
	sys, err := api.System{Servers: 1, Lambda: 0.1}.ToSystem()
	if err != nil {
		panic(err) // the built-in defaults are valid by construction
	}
	return sys.Availability()
}()

// lambdaAt is the arrival rate that puts an N-server Sun system at the
// given load (µ = 1).
func lambdaAt(n int, load float64) float64 { return load * float64(n) * availability }

func solveReq(n int, lambda float64) api.SolveRequest {
	return api.SolveRequest{System: api.System{Servers: n, Lambda: lambda}}
}

// sweepGrid is a λ-grid of points values at one N: point k sits at a
// random load inside the k-th of points equal slices of [0.5, 0.85), so
// every grid is fresh yet spreads its work the same way whatever the seed.
func sweepGrid(rng *rand.Rand, n, points int) api.SweepRequest {
	vals := make([]float64, points)
	for k := range vals {
		vals[k] = lambdaAt(n, 0.5+0.35*(float64(k)+rng.Float64())/float64(points))
	}
	return api.SweepRequest{System: api.System{Servers: n}, Param: api.ParamLambda, Values: vals}
}

// opRec is one operation of a closed loop, timed by the client; err is
// set when the op failed or its answer was wrong.
type opRec struct {
	start, end time.Time
	err        error
}

// inWindow reports whether the op started and ended inside [t0, t1].
func (r opRec) inWindow(t0, t1 time.Time) bool { return !r.start.Before(t0) && !r.end.After(t1) }

// runLoops runs body once per connection until stop is set and returns
// each connection's records.
func runLoops(stop *atomic.Bool, body func(conn int, stop *atomic.Bool) []opRec) [][]opRec {
	out := make([][]opRec, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = body(c, stop)
		}()
	}
	wg.Wait()
	return out
}

// phase is the measured window of a run with the daemon observations
// taken at its edges.
type phase struct {
	t0, t1        time.Time
	before, after Samples
	cpu0, cpu1    time.Duration
}

func (p *phase) seconds() float64 { return p.t1.Sub(p.t0).Seconds() }

// measure waits for t0, observes the daemon, keeps observing once a
// second — the daemon refreshes its GC pause histogram only when scraped,
// from a ring of the last 256 pauses — and observes it again at t1.
func measure(ctx context.Context, d *daemon, t0, t1 time.Time) (*phase, error) {
	p := &phase{t0: t0, t1: t1}
	sleepUntil(t0)
	var err error
	if p.cpu0, err = d.cpuTime(); err != nil {
		return nil, err
	}
	if p.before, err = d.scrape(ctx); err != nil {
		return nil, err
	}
	for next := t0.Add(time.Second); next.Before(t1); next = next.Add(time.Second) {
		sleepUntil(next)
		if _, err := d.scrape(ctx); err != nil {
			return nil, err
		}
	}
	sleepUntil(t1)
	if p.cpu1, err = d.cpuTime(); err != nil {
		return nil, err
	}
	if p.after, err = d.scrape(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// delta is a counter's increase over the phase.
func (p *phase) delta(name string, labels ...string) float64 {
	return counterDelta(p.before, p.after, name, labels...)
}

// jobRec is one sweep job of a jobs loop.
type jobRec struct {
	req    api.SweepRequest
	status api.JobStatus
	result *api.SweepResponse
	err    error // submission, polling, terminal-state or result failure
}

func (j jobRec) finishedIn(t0, t1 time.Time) bool {
	f := j.status.FinishedAt
	return j.err == nil && f != nil && !f.Before(t0) && !f.After(t1)
}

// jobsLoop keeps perConn sweep jobs outstanding on one connection: it
// submits until perConn are in flight, polls them every poll, fetches and
// checks each finished job's result, and submits a replacement. Once stop
// is set it submits nothing more and returns when the last job ends.
func jobsLoop(ctx context.Context, c *client.Client, next func() api.SweepRequest, perConn int, poll time.Duration, stop *atomic.Bool) []jobRec {
	type pending struct {
		req api.SweepRequest
		id  string
	}
	var out []jobRec
	var live []pending
	for ctx.Err() == nil {
		for !stop.Load() && len(live) < perConn && ctx.Err() == nil {
			req := next()
			st, err := c.SubmitJob(ctx, api.NewSweepJob(req))
			if err != nil {
				out = append(out, jobRec{req: req, err: err})
				continue
			}
			live = append(live, pending{req: req, id: st.ID})
		}
		if len(live) == 0 {
			return out
		}
		time.Sleep(poll)
		keep := live[:0]
		for _, p := range live {
			st, err := c.JobStatus(ctx, p.id)
			if err != nil {
				out = append(out, jobRec{req: p.req, err: err})
				continue
			}
			if !st.Terminal() {
				keep = append(keep, p)
				continue
			}
			rec := jobRec{req: p.req, status: *st}
			if st.State != api.JobStateDone {
				rec.err = fmt.Errorf("job %s ended %s: %v", st.ID, st.State, st.Error)
			} else if res, err := c.JobResult(ctx, p.id); err != nil {
				rec.err = err
			} else if res.Sweep == nil {
				rec.err = fmt.Errorf("job %s: result carries no sweep", st.ID)
			} else {
				rec.result = res.Sweep
				rec.err = checkGrid(p.req, res.Sweep)
			}
			out = append(out, rec)
		}
		live = keep
	}
	for _, p := range live {
		out = append(out, jobRec{req: p.req, err: ctx.Err()})
	}
	return out
}

// checkGrid verifies that a sweep result holds every grid point, in order,
// at the requested values, with no point errors.
func checkGrid(req api.SweepRequest, res *api.SweepResponse) error {
	if len(res.Points) != len(req.Values) {
		return fmt.Errorf("sweep result has %d points, want %d", len(res.Points), len(req.Values))
	}
	for k, pt := range res.Points {
		switch {
		case pt.Index != k:
			return fmt.Errorf("point %d carries index %d", k, pt.Index)
		case pt.Value != req.Values[k]:
			return fmt.Errorf("point %d carries value %v, want %v", k, pt.Value, req.Values[k])
		case pt.Error != "":
			return fmt.Errorf("point %d failed: %s", k, pt.Error)
		case pt.Perf == nil:
			return fmt.Errorf("point %d has no performance block", k)
		}
	}
	return nil
}
