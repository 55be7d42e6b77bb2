package jobs

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/api"
	"repro/internal/obs/olog"
	"repro/internal/obs/trace"
	"repro/internal/store"
)

// This file is the scheduler's durability surface: the write hooks that
// mirror a job's life into the internal/store job log, and the boot
// replay that reconstructs it. The invariants the two sides meet on:
//
//   - A submit record is fsynced before Submit acknowledges, so an
//     accepted job always survives a crash.
//   - Transition and point records ride the log's batched fsync; a crash
//     can cost at most the last fsync interval of progress, never an
//     acknowledged submission.
//   - Records of one job appear in execution order, and sweep points are
//     recorded in grid order — so a job's replayed points are always a
//     prefix of its grid, and a recovered job resumes at an index.
//   - A sweep's result is never persisted (it would double the log); a
//     replayed done sweep re-synthesises it from its points. Optimize
//     and simulate results are small and stored verbatim.
//   - Anything inconsistent (a done job missing its result or points)
//     re-queues instead of serving garbage: the engine cache makes
//     re-execution of already-solved work nearly free.

// persistSubmit makes an accepted job durable before it is acknowledged.
// Callers hold s.mu. A log that cannot store the record fails the
// submission — the acknowledgement is a durability promise. The append
// and fsync run under ctx so their spans (mus.store.append,
// mus.store.fsync) land inside the submission's trace; the submission's
// request ID and span context ride the record, so a restarted node's
// recovered job still knows which request — and which trace — created it.
func (s *Scheduler) persistSubmit(ctx context.Context, j *job) error {
	if s.jlog == nil {
		return nil
	}
	req := j.req
	e := store.Entry{
		Kind:      store.EntrySubmit,
		Job:       j.id,
		Time:      j.created,
		Origin:    s.nodeID,
		RequestID: j.origin,
		Request:   &req,
	}
	if j.trace.Valid() {
		e.Trace = j.trace.Traceparent()
	}
	err := s.jlog.AppendCtx(ctx, e)
	if err == nil {
		err = s.jlog.SyncCtx(ctx)
	}
	if err != nil {
		s.log.Warn("job submit not persisted; rejecting", olog.F{K: "job", V: j.id}, olog.F{K: "error", V: err.Error()})
		return api.Internal(fmt.Errorf("jobs: persisting submission: %w", err))
	}
	return nil
}

// persistState records a state transition (and, for terminal
// optimize/simulate jobs, the result). Callers hold s.mu; durability
// rides the log's batched fsync.
func (s *Scheduler) persistState(j *job, res *api.JobResult) {
	if s.jlog == nil {
		return
	}
	e := store.Entry{Kind: store.EntryState, Job: j.id, Time: s.now(), State: j.state, Error: j.err}
	if err := s.jlog.Append(e); err != nil {
		s.log.Warn("job transition not persisted", olog.F{K: "job", V: j.id}, olog.F{K: "error", V: err.Error()})
		return
	}
	if res != nil && j.req.Kind != api.JobKindSweep {
		if err := s.jlog.Append(store.Entry{Kind: store.EntryResult, Job: j.id, Time: s.now(), Result: res}); err != nil {
			s.log.Warn("job result not persisted", olog.F{K: "job", V: j.id}, olog.F{K: "error", V: err.Error()})
		}
	}
}

// persistPoint records one solved sweep point. Called in grid order from
// the sweep's sequencing goroutine, outside s.mu.
func (s *Scheduler) persistPoint(j *job, pt api.SweepPoint) {
	if s.jlog == nil {
		return
	}
	e := store.Entry{Kind: store.EntryPoints, Job: j.id, Time: s.now(), Points: []api.SweepPoint{pt}}
	if err := s.jlog.Append(e); err != nil {
		s.log.Warn("sweep point not persisted", olog.F{K: "job", V: j.id}, olog.F{K: "error", V: err.Error()})
	}
}

// replay reconstructs job records from the log at boot: terminal jobs
// reappear as fetchable history, and jobs the previous process died with
// re-enter the pending queue — marked api.DetailNodeRestarting — to
// resume from their last persisted point. Runs before the workers start,
// so no lock is contended; a replay failure degrades to partial history
// rather than refusing to boot (the log was already tail-truncated at
// open, so this only triggers on mid-log corruption).
func (s *Scheduler) replay() {
	if s.jlog == nil {
		return
	}
	// The replay runs under its own boot root span, so a restart's
	// recovery work is itself traceable; each recovered job additionally
	// re-attaches to its original submission trace when it runs.
	boot, ctx := s.tracer.StartRoot(context.Background(), "mus.jobs.replay", trace.SpanContext{})
	defer boot.End()
	misplaced := 0 // sweep points replayed out of grid order, dropped
	err := s.jlog.ReplayCtx(ctx, func(e store.Entry) error {
		switch e.Kind {
		case store.EntrySubmit:
			if e.Job == "" || e.Request == nil {
				return nil
			}
			j := &job{
				id:      e.Job,
				req:     *e.Request,
				origin:  e.RequestID,
				state:   api.JobStateQueued,
				created: e.Time,
				node:    e.Origin,
				done:    make(chan struct{}),
			}
			if sc, ok := trace.ParseTraceparent(e.Trace); ok {
				j.trace = sc
			}
			s.jobs[e.Job] = j
		case store.EntryState:
			j := s.jobs[e.Job]
			if j == nil {
				return nil
			}
			switch e.State {
			case api.JobStateRunning:
				j.state = e.State
				j.started = e.Time
			case api.JobStateDone, api.JobStateFailed, api.JobStateCanceled:
				j.state = e.State
				j.finished = e.Time
				j.err = e.Error
			}
		case store.EntryPoints:
			// A sweep's prefix grows one grid index at a time. A log that
			// went through an upgrade, a downgrade mid-sweep and a second
			// upgrade holds points this binary wrote, then an older
			// binary's re-run from index 0 (it could not decode them):
			// only the point at the next index extends the prefix.
			if j := s.jobs[e.Job]; j != nil && j.req.Kind == api.JobKindSweep {
				for _, pt := range e.Points {
					if pt.Index != len(j.partial) {
						misplaced++
						continue
					}
					j.partial = append(j.partial, pt)
				}
			}
		case store.EntryResult:
			if j := s.jobs[e.Job]; j != nil {
				j.result = e.Result
			}
		}
		return nil
	})
	if err != nil {
		s.log.Warn("job log replay incomplete; continuing with partial history",
			olog.F{K: "error", V: err.Error()})
	}
	if n := s.jlog.ReplaySkipped(); n > 0 {
		s.log.Warn("job log replay skipped undecodable records",
			olog.F{K: "records", V: n})
	}
	if misplaced > 0 {
		s.log.Warn("job log replay skipped sweep points out of grid order",
			olog.F{K: "points", V: misplaced})
	}
	var requeue []*job
	for _, j := range s.jobs {
		j.total = totalOf(j.req)
		terminal := false
		switch j.state {
		case api.JobStateDone:
			// A done job must be able to serve its result. A sweep rebuilds
			// it from its (necessarily complete — points precede the state
			// record in the log) point prefix; anything missing means the
			// terminal record outlived its payload, and the job re-runs.
			terminal = s.rebuildResult(j)
		case api.JobStateFailed, api.JobStateCanceled:
			j.completed = len(j.partial)
			terminal = true
		}
		if terminal {
			close(j.done)
			continue
		}
		// Queued or running at the crash: back to the queue, resuming
		// sweeps at their persisted prefix.
		if len(j.partial) > j.total {
			j.partial = j.partial[:j.total]
		}
		j.state = api.JobStateQueued
		j.detail = api.DetailNodeRestarting
		j.started = time.Time{}
		j.completed = len(j.partial)
		requeue = append(requeue, j)
	}
	sort.Slice(requeue, func(a, b int) bool {
		if !requeue[a].created.Equal(requeue[b].created) {
			return requeue[a].created.Before(requeue[b].created)
		}
		return requeue[a].id < requeue[b].id
	})
	s.pending = append(s.pending, requeue...)
	s.recovered.Add(uint64(len(s.jobs)))
	if len(s.jobs) > 0 {
		s.log.Info("job log replayed",
			olog.F{K: "jobs", V: len(s.jobs)}, olog.F{K: "resumed", V: len(requeue)})
	}
}

// rebuildResult makes a replayed done job servable, reporting whether it
// succeeded. Sweeps re-synthesise the result from their point prefix;
// optimize/simulate jobs need their persisted result record.
func (s *Scheduler) rebuildResult(j *job) bool {
	j.completed = j.total
	if j.req.Kind != api.JobKindSweep {
		return j.result != nil
	}
	if len(j.partial) != j.total {
		return false
	}
	m, _ := api.ParseMethod(j.req.Sweep.Method)
	j.result = &api.JobResult{
		ID:    j.id,
		Kind:  j.req.Kind,
		Sweep: &api.SweepResponse{Method: m.String(), Param: j.req.Sweep.Param, Points: j.partial},
	}
	return true
}

// totalOf computes a job's work-unit count from its request alone — the
// value run() would set, needed at replay before any run.
func totalOf(req api.JobRequest) int {
	if req.Kind == api.JobKindSweep && req.Sweep != nil {
		return len(req.Sweep.Values)
	}
	return 1
}
