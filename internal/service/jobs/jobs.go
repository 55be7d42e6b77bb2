// Package jobs is the asynchronous job layer of the evaluation service:
// a scheduler that wraps the service.Engine with job records so workloads
// too large for one synchronous HTTP request — 10k-point sweeps,
// high-precision replicated simulations, wide optimisations — can be
// submitted, polled, partially read, canceled and garbage-collected
// independently of any connection.
//
// Each job moves through the state machine
//
//	queued → running → done | failed | canceled
//
// and carries progress counters (per grid point for sweeps), timestamps
// and, for sweep jobs, the partial results solved so far. The queue is
// bounded: submissions beyond its capacity are rejected with the
// api.CodeQueueFull backpressure error instead of growing without limit.
// Terminal jobs are retained for a TTL and then garbage-collected.
//
// The scheduler adds no second worker pool: its workers only orchestrate,
// while all solver and simulation concurrency stays on the engine's
// existing gate, so synchronous requests and jobs share one global bound.
//
// Two optional Config fields lift the scheduler beyond one process:
//
//   - Log (an internal/store.JobLog) makes jobs durable: submissions are
//     fsynced before they are acknowledged, every transition and solved
//     sweep point is appended behind batched fsyncs, and New replays the
//     log on boot — terminal jobs reappear with their results, jobs
//     caught mid-flight are re-queued with Detail "node_restarting" and
//     resume from their last persisted point (persisted points are always
//     a grid-order prefix, so resumption is an index, not a merge).
//   - Router (the internal/cluster scatter/gather tier) makes sweep jobs
//     cluster-wide: the grid is split by λ-excluded environment
//     fingerprint into shards executed on their ring-owner nodes — where
//     the engine's batched solver hoists each shard's λ-invariant work
//     once — with the router's rank-order failover re-scattering only a
//     dead node's unanswered points, so a node kill mid-job delays its
//     shard but never loses a point.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/trace"
	"repro/internal/service"
	"repro/internal/store"
)

// Engine is the slice of service.Engine the scheduler drives —
// *service.Engine satisfies it; tests substitute controllable fakes.
type Engine interface {
	// EvaluateStream solves jobs in submission order, emitting each result
	// as soon as it (and every earlier one) is available.
	EvaluateStream(ctx context.Context, jobs []service.Job, emit func(service.Result) error) error
	// Simulate runs one replicated simulation through the engine's cache.
	Simulate(ctx context.Context, sys core.System, opts core.SimOptions) (core.SimResult, error)
	// Provision answers a provisioning question over a fleet-size range:
	// the cost-minimising N, or the smallest N meeting a response-time
	// target.
	Provision(ctx context.Context, base core.System, obj core.Objective, minN, maxN int, m core.Method) (core.ServerSweepPoint, error)
}

// Defaults applied by New for zero Config fields.
const (
	// DefaultQueueDepth bounds jobs waiting for a worker.
	DefaultQueueDepth = 64
	// DefaultWorkers is how many jobs execute concurrently. Two keeps a
	// long sweep from blocking a quick optimize behind it while the real
	// parallelism still comes from the engine's own worker gate.
	DefaultWorkers = 2
	// DefaultTTL is how long terminal jobs stay fetchable before the
	// garbage collector drops them.
	DefaultTTL = 15 * time.Minute
)

// Config tunes a Scheduler. Engine is required; every other zero field
// takes the package default.
type Config struct {
	// Engine executes the jobs' evaluations.
	Engine Engine
	// QueueDepth bounds jobs waiting for a worker (default
	// DefaultQueueDepth); submissions beyond it fail with queue_full.
	QueueDepth int
	// Workers is how many jobs execute concurrently (default
	// DefaultWorkers).
	Workers int
	// TTL is the retention of terminal jobs (default DefaultTTL).
	TTL time.Duration
	// Now substitutes the clock (default time.Now); tests use it to drive
	// TTL expiry deterministically.
	Now func() time.Time
	// Logger receives one line per job state transition (default: discard).
	Logger *olog.Logger
	// Log, when set, persists job records to a write-ahead log and replays
	// it in New: submissions are durable once acknowledged, and a restart
	// recovers job history and resumes incomplete jobs.
	Log *store.JobLog
	// Router, when set, executes sweep jobs cluster-wide: grid shards run
	// on their environment fingerprint's ring-owner node with rank-order
	// failover. Nil keeps every job on the local engine.
	Router Router
	// NodeID names this node in persisted records and job statuses
	// (default: the Router's Self, or "" standalone).
	NodeID string
	// Tracer, when set, re-attaches each job's execution to the
	// distributed trace its submission belonged to: the worker starts a
	// mus.jobs.run root span parented on the submission's propagated
	// span context — across process restarts, since the context is
	// persisted with the submit record. Nil disables job spans.
	Tracer *trace.Tracer
}

// Scheduler runs jobs on an Engine. It is safe for concurrent use.
type Scheduler struct {
	eng     Engine
	ttl     time.Duration
	now     func() time.Time
	depth   int
	workers int
	log     *olog.Logger
	jlog    *store.JobLog
	router  Router
	nodeID  string
	tracer  *trace.Tracer

	// recovered counts jobs reconstructed from the write-ahead log at
	// boot (terminal history and re-queued incomplete jobs alike).
	recovered atomic.Uint64

	// Transition counters, atomics so a metrics scrape never touches the
	// scheduler mutex mid-run. Indexed queued → running → terminal.
	transRunning  atomic.Uint64
	transDone     atomic.Uint64
	transFailed   atomic.Uint64
	transCanceled atomic.Uint64
	// sweepPoints counts grid points completed by sweep jobs — the
	// scheduler's throughput signal, advanced once per point as it lands.
	sweepPoints atomic.Uint64

	mu sync.Mutex
	// cond signals workers when pending grows or the scheduler closes.
	cond *sync.Cond
	// pending is the bounded FIFO of queued jobs. A slice rather than a
	// channel so Cancel can remove a queued job and free its slot
	// immediately — with a channel the slot would stay occupied (and new
	// submissions rejected) until a worker happened to drain the entry.
	pending   []*job
	jobs      map[string]*job
	submitted uint64
	rejected  uint64
	closed    bool
	draining  bool

	stop   context.CancelFunc
	ctx    context.Context
	wg     sync.WaitGroup
	gcDone chan struct{}
}

// job is one scheduler record. All mutable fields are guarded by the
// scheduler's mutex; done closes when the job reaches a terminal state.
type job struct {
	id  string
	req api.JobRequest
	// origin is the X-Request-ID of the submitting HTTP request; job
	// execution runs under a context carrying it, so engine-level traces
	// join back to the submission.
	origin string
	// trace is the submission's propagated span context, captured by
	// value at Submit (never the span itself — spans are pooled and
	// recycled at End). The worker parents its mus.jobs.run root span on
	// it, joining the execution to the submission's distributed trace.
	trace trace.SpanContext

	state            string
	total, completed int
	created          time.Time
	started          time.Time
	finished         time.Time
	cancel           context.CancelFunc
	err              *api.Error
	result           *api.JobResult
	partial          []api.SweepPoint
	done             chan struct{}

	// node is the accepting node's ID (empty standalone); detail is the
	// recovery qualifier (api.DetailNodeRestarting on replayed jobs).
	node   string
	detail string
	// shards is the clustered sweep's planned shard map; pointShard maps
	// grid index → position in shards for per-shard progress counting.
	shards     []api.JobShard
	pointShard []int
}

// New builds a scheduler and starts its workers and garbage collector.
// Call Close to stop them.
func New(cfg Config) *Scheduler {
	if cfg.Engine == nil {
		panic("jobs: Config.Engine is required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = olog.Nop()
	}
	if cfg.NodeID == "" && cfg.Router != nil {
		cfg.NodeID = cfg.Router.Self()
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		eng:     cfg.Engine,
		ttl:     cfg.TTL,
		now:     cfg.Now,
		depth:   cfg.QueueDepth,
		workers: cfg.Workers,
		log:     cfg.Logger,
		jlog:    cfg.Log,
		router:  cfg.Router,
		nodeID:  cfg.NodeID,
		tracer:  cfg.Tracer,
		jobs:    make(map[string]*job),
		stop:    stop,
		ctx:     ctx,
		gcDone:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	// Replay before the first worker starts: recovered jobs re-enter the
	// pending queue with no goroutine racing the reconstruction.
	s.replay()
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	go s.janitor()
	return s
}

// BeginDrain flips the submission gate and returns immediately: every
// Submit from this instant on is rejected with api.CodeNodeUnavailable.
// It exists so a serving front end can close its own drain gate and the
// scheduler's in one breath — without it, a submission that slipped past
// the HTTP middleware before the flag flip could be accepted into a
// scheduler about to die with the process. Idempotent; Drain implies it.
func (s *Scheduler) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain prepares for a graceful shutdown: new submissions are rejected
// with api.CodeNodeUnavailable from this point on, while every queued
// and running job is given until ctx expires to reach a terminal state.
// A nil return means all work finished; ctx.Err() means the deadline hit
// first and the stragglers are still running — either way the follow-up
// Close cancels whatever remains. Drain after Close is a no-op.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	// No new submissions can arrive past the flag, so the non-terminal
	// population only shrinks from here: a snapshot of done channels is a
	// complete wait list.
	var waits []chan struct{}
	for _, j := range s.jobs {
		switch j.state {
		case api.JobStateQueued, api.JobStateRunning:
			waits = append(waits, j.done)
		}
	}
	s.mu.Unlock()
	for _, d := range waits {
		select {
		case <-d:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// Close stops accepting submissions, cancels running and queued jobs,
// and waits for the workers and garbage collector to exit. Records stay
// readable.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast() // wakes idle workers, which drain pending as canceled
	s.mu.Unlock()
	s.stop() // cancels running jobs
	s.wg.Wait()
	<-s.gcDone
}

// Submit validates the request, assigns an ID and enqueues the job,
// returning its queued status. A full queue fails fast with
// api.CodeQueueFull — the caller's backpressure signal. A request ID on
// ctx (api.ContextWithRequestID) is recorded as the job's origin and
// reattached to the execution context, so the async evaluation traces
// back to the HTTP submission that caused it.
func (s *Scheduler) Submit(ctx context.Context, req api.JobRequest) (api.JobStatus, error) {
	if err := req.Validate(); err != nil {
		return api.JobStatus{}, err
	}
	j := &job{
		id:     newJobID(),
		req:    req,
		origin: api.RequestIDFrom(ctx),
		trace:  trace.SpanContextFrom(ctx),
		state:  api.JobStateQueued,
		node:   s.nodeID,
		done:   make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return api.JobStatus{}, api.Internal(errors.New("jobs: scheduler is shut down"))
	}
	if s.draining {
		s.mu.Unlock()
		return api.JobStatus{}, api.NodeUnavailable("node is draining for shutdown; resubmit elsewhere or after a delay")
	}
	if len(s.pending) >= s.depth {
		s.rejected++
		s.mu.Unlock()
		return api.JobStatus{}, api.QueueFull(s.depth)
	}
	j.created = s.now()
	// The acknowledgement below promises the job survives a crash, so the
	// submit record must be on disk — not merely buffered — before it is
	// sent. A log that cannot make that promise rejects the submission.
	if err := s.persistSubmit(ctx, j); err != nil {
		s.mu.Unlock()
		return api.JobStatus{}, err
	}
	s.pending = append(s.pending, j)
	s.submitted++
	s.jobs[j.id] = j
	st := s.statusLocked(j)
	s.cond.Signal()
	s.mu.Unlock()
	s.log.Info("job queued", olog.F{K: "job", V: j.id}, olog.F{K: "kind", V: req.Kind},
		olog.F{K: "id", V: j.origin})
	return st, nil
}

// Status returns the poll view of one job, or api.CodeNotFound.
func (s *Scheduler) Status(id string) (api.JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return api.JobStatus{}, api.JobNotFound(id)
	}
	return s.statusLocked(j), nil
}

// Result returns the outcome of a done job. Non-terminal jobs fail with
// api.CodeNotReady, canceled jobs with api.CodeCanceled, failed jobs with
// their recorded evaluation error, unknown IDs with api.CodeNotFound.
func (s *Scheduler) Result(id string) (api.JobResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return api.JobResult{}, api.JobNotFound(id)
	}
	switch j.state {
	case api.JobStateDone:
		return *j.result, nil
	case api.JobStateFailed:
		return api.JobResult{}, j.err
	case api.JobStateCanceled:
		return api.JobResult{}, &api.Error{Code: api.CodeCanceled, Message: fmt.Sprintf("job %q was canceled", id)}
	default:
		return api.JobResult{}, api.NotReady(id, j.state)
	}
}

// PartialSweep returns a snapshot of the sweep points solved so far, in
// grid order, together with the job's current status — readable while the
// job is still running (a queued job yields an empty snapshot) and after
// it is done. Non-sweep jobs fail with api.CodeInvalidArgument.
func (s *Scheduler) PartialSweep(id string) ([]api.SweepPoint, api.JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, api.JobStatus{}, api.JobNotFound(id)
	}
	if j.req.Kind != api.JobKindSweep {
		return nil, api.JobStatus{}, api.InvalidArgument("id", "job %q is a %s job; partial results exist only for sweeps", id, j.req.Kind)
	}
	pts := make([]api.SweepPoint, len(j.partial))
	copy(pts, j.partial)
	return pts, s.statusLocked(j), nil
}

// Cancel requests cancelation and returns the job's status. A queued job
// is canceled immediately; a running job has its context canceled and
// reaches the canceled state once the engine releases its in-flight
// evaluations — poll Status to observe it. Canceling a terminal job is a
// no-op returning the final status, so Cancel is idempotent.
func (s *Scheduler) Cancel(id string) (api.JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return api.JobStatus{}, api.JobNotFound(id)
	}
	switch j.state {
	case api.JobStateQueued:
		// Remove the entry from the pending FIFO so its queue slot frees
		// for new submissions immediately, then finalise the record.
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
		s.finishLocked(j, api.JobStateCanceled, nil, nil)
	case api.JobStateRunning:
		j.cancel()
	}
	return s.statusLocked(j), nil
}

// Wait blocks until the job reaches a terminal state (or ctx expires) and
// returns its final status — the in-process counterpart of polling
// GET /v1/jobs/{id}.
func (s *Scheduler) Wait(ctx context.Context, id string) (api.JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return api.JobStatus{}, api.JobNotFound(id)
	}
	select {
	case <-j.done:
		return s.Status(id)
	case <-ctx.Done():
		return api.JobStatus{}, ctx.Err()
	}
}

// List returns the status of every retained job, newest first — the
// GET /v1/jobs history view, which after a restart includes everything
// recovered from the write-ahead log.
func (s *Scheduler) List() []api.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]api.JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].CreatedAt.Equal(out[b].CreatedAt) {
			return out[a].CreatedAt.After(out[b].CreatedAt)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Stats snapshots the scheduler's population and queue counters.
func (s *Scheduler) Stats() api.JobStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := api.JobStats{
		QueueCapacity: s.depth,
		Submitted:     s.submitted,
		Rejected:      s.rejected,
	}
	for _, j := range s.jobs {
		switch j.state {
		case api.JobStateQueued:
			st.Queued++
		case api.JobStateRunning:
			st.Running++
		case api.JobStateDone:
			st.Done++
		case api.JobStateFailed:
			st.Failed++
		case api.JobStateCanceled:
			st.Canceled++
		}
	}
	return st
}

// FlowSample is the scheduler snapshot the admission controller fits into
// its self-model: cumulative offered and terminal counts (rate-estimator
// inputs) plus the current occupancy levels.
type FlowSample struct {
	// Offered counts every submission presented to the queue — accepted
	// and rejected alike, because rejected work is still offered load λ.
	Offered uint64
	// Completed counts jobs that reached any terminal state.
	Completed uint64
	// Queued and Running are the current backlog split by state.
	Queued, Running int
	// Workers is the scheduler's worker count — the N of the fitted system.
	Workers int
}

// Flow snapshots the counters the admission controller samples each refit.
func (s *Scheduler) Flow() FlowSample {
	completed := s.transDone.Load() + s.transFailed.Load() + s.transCanceled.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	f := FlowSample{
		Offered:   s.submitted + s.rejected,
		Completed: completed,
		Queued:    len(s.pending),
		Workers:   s.workers,
	}
	for _, j := range s.jobs {
		if j.state == api.JobStateRunning {
			f.Running++
		}
	}
	return f
}

// Backlog returns the number of jobs queued or running — the live queue
// length the admission controller's Decide compares against its limit.
func (s *Scheduler) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.pending)
	for _, j := range s.jobs {
		if j.state == api.JobStateRunning {
			n++
		}
	}
	return n
}

// worker executes queued jobs until the scheduler closes. On shutdown,
// whatever is still pending is finalised as canceled so no record is
// left in a non-terminal state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			for _, j := range s.pending {
				s.finishLocked(j, api.JobStateCanceled, nil, nil)
			}
			s.pending = nil
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		ctx, cancel := context.WithCancel(s.ctx)
		j.state = api.JobStateRunning
		j.started = s.now()
		j.cancel = cancel
		s.persistState(j, nil)
		s.mu.Unlock()
		s.transRunning.Add(1)
		s.log.Info("job running", olog.F{K: "job", V: j.id}, olog.F{K: "kind", V: j.req.Kind},
			olog.F{K: "id", V: j.origin})
		// The execution context carries the submitting request's ID, so
		// engine work done on the job's behalf traces back to its origin —
		// and a mus.jobs.run root span parented on the submission's
		// propagated span context, so the async execution (including a
		// WAL-recovered one, whose context was replayed from the submit
		// record) appears in the same distributed trace as the POST that
		// created it.
		rctx := api.ContextWithRequestID(ctx, j.origin)
		root, rctx := s.tracer.StartRoot(rctx, "mus.jobs.run", j.trace)
		root.Set(trace.Str("job", j.id))
		root.Set(trace.Str("kind", j.req.Kind))
		s.run(rctx, j)
		s.mu.Lock()
		if j.err != nil {
			root.FailMsg(j.err.Message)
		}
		s.mu.Unlock()
		root.End()
		cancel()
	}
}

// run moves one running job to a terminal state.
func (s *Scheduler) run(ctx context.Context, j *job) {
	var res *api.JobResult
	var err error
	switch j.req.Kind {
	case api.JobKindSweep:
		res, err = s.runSweep(ctx, j)
	case api.JobKindOptimize:
		res, err = s.runOptimize(ctx, j)
	case api.JobKindSimulate:
		res, err = s.runSimulate(ctx, j)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		j.completed = j.total
		s.finishLocked(j, api.JobStateDone, res, nil)
	case isCanceled(err):
		s.finishLocked(j, api.JobStateCanceled, nil, nil)
	default:
		s.finishLocked(j, api.JobStateFailed, nil, api.Classify(err))
	}
}

// isCanceled recognises a cancelation in either form it reaches run():
// the raw context error, or an *api.Error carrying the canceled code with
// no error chain (the classifiers — unsatisfiable, api.Classify — flatten
// context.Canceled into one). Either can only mean job cancelation or
// daemon shutdown here.
func isCanceled(err error) bool {
	if errors.Is(err, context.Canceled) {
		return true
	}
	var ae *api.Error
	return errors.As(err, &ae) && ae.Code == api.CodeCanceled
}

// runSweep executes a sweep payload, recording each point (and advancing
// the progress counter) as it lands, so partial results are readable
// mid-run. Execution starts at the first unsolved index — zero normally,
// the length of the WAL-recovered prefix after a restart (persisted
// points are always a grid-order prefix, so resumption never merges) —
// and routes through the cluster router when one is configured, the local
// engine stream otherwise.
func (s *Scheduler) runSweep(ctx context.Context, j *job) (*api.JobResult, error) {
	req := *j.req.Sweep
	systems, err := req.Systems()
	if err != nil { // unreachable after Submit's validation
		return nil, err
	}
	m, _ := api.ParseMethod(req.Method)
	s.mu.Lock()
	if len(j.partial) > len(systems) { // a log replaying more points than the grid holds
		j.partial = j.partial[:len(systems)]
	}
	if cap(j.partial) < len(systems) { // one allocation for the whole grid
		j.partial = append(make([]api.SweepPoint, 0, len(systems)), j.partial...)
	}
	j.total = len(systems)
	resume := len(j.partial)
	j.completed = resume
	s.mu.Unlock()

	// record lands one solved point with its absolute grid index. Both
	// execution paths call it from a single sequencing goroutine in grid
	// order, so the persisted point stream stays a replayable prefix.
	record := func(pt api.SweepPoint) {
		s.mu.Lock()
		j.partial = append(j.partial, pt)
		j.completed = len(j.partial)
		if j.pointShard != nil && pt.Index < len(j.pointShard) {
			j.shards[j.pointShard[pt.Index]].Completed++
		}
		s.mu.Unlock()
		s.persistPoint(j, pt)
		s.sweepPoints.Add(1)
	}

	if s.router != nil {
		err = s.runSweepCluster(ctx, j, req, systems, m, resume, record)
	} else {
		err = s.runSweepLocal(ctx, req, systems, m, resume, record)
	}
	if err != nil {
		return nil, err
	}
	// The result shares the finished points with j.partial, as a replayed
	// job's does (rebuildResult): nothing appends to either once the run
	// is done, and the capped slice keeps any append off the shared array.
	s.mu.Lock()
	points := j.partial[:len(j.partial):len(j.partial)]
	s.mu.Unlock()
	return &api.JobResult{
		ID:    j.id,
		Kind:  j.req.Kind,
		Sweep: &api.SweepResponse{Method: m.String(), Param: req.Param, Points: points},
	}, nil
}

// runSweepLocal evaluates grid points resume.. on the local engine's
// ordered stream.
func (s *Scheduler) runSweepLocal(ctx context.Context, req api.SweepRequest, systems []core.System, m core.Method, resume int, record func(api.SweepPoint)) error {
	work := make([]service.Job, len(systems)-resume)
	for k, sys := range systems[resume:] {
		work[k] = service.Job{System: sys, Method: m}
	}
	return s.eng.EvaluateStream(ctx, work, func(res service.Result) error {
		i := resume + res.Index
		pt := api.SweepPoint{Index: i, Value: req.Values[i]}
		if res.Err != nil {
			pt.Error = res.Err.Error()
		} else {
			perf := api.FromPerformance(res.Perf)
			pt.Perf = &perf
		}
		record(pt)
		return nil
	})
}

// runOptimize executes an optimize payload — the same two provisioning
// questions the synchronous endpoint answers.
func (s *Scheduler) runOptimize(ctx context.Context, j *job) (*api.JobResult, error) {
	req := *j.req.Optimize
	base, m, minN, maxN, err := req.Resolve()
	if err != nil { // unreachable after Submit's validation
		return nil, err
	}
	s.mu.Lock()
	j.total = 1
	s.mu.Unlock()
	resp, err := Optimize(ctx, s.eng, base, req.Objective(), minN, maxN, m)
	if err != nil {
		return nil, err
	}
	return &api.JobResult{ID: j.id, Kind: j.req.Kind, Optimize: &resp}, nil
}

// Optimize answers one provisioning question on eng and builds the
// response that /v1/optimize, /v1/plan and optimize jobs return.
// Failures are classified by unsatisfiable.
func Optimize(ctx context.Context, eng Engine, base core.System, obj core.Objective, minN, maxN int, m core.Method) (api.OptimizeResponse, error) {
	pt, err := eng.Provision(ctx, base, obj, minN, maxN, m)
	if err != nil {
		return api.OptimizeResponse{}, unsatisfiable(err)
	}
	resp := api.OptimizeResponse{Servers: pt.Servers, Perf: api.FromPerformance(pt.Perf)}
	if obj.Target > 0 {
		resp.Objective = fmt.Sprintf("min N in [%d, %d] with W ≤ %g", minN, maxN, obj.Target)
	} else {
		resp.Objective = fmt.Sprintf("min %g·L + %g·N over [%d, %d]", obj.Cost.HoldingCost, obj.Cost.ServerCost, minN, maxN)
		resp.Cost = &pt.Cost
	}
	return resp, nil
}

// unsatisfiable classifies a provisioning failure: cancellations and
// deadline expiries keep their codes, and everything else — no stable N,
// no N meeting the target — is a well-formed question with no answer
// (422), not an internal failure.
func unsatisfiable(err error) error {
	if ae := api.Classify(err); ae.Code != api.CodeInternal {
		return ae
	}
	return &api.Error{Code: api.CodeUnsatisfiable, Message: err.Error()}
}

// runSimulate executes a simulate payload through the engine's simulation
// cache.
func (s *Scheduler) runSimulate(ctx context.Context, j *job) (*api.JobResult, error) {
	req := *j.req.Simulate
	sys, opts, err := req.Resolve()
	if err != nil { // unreachable after Submit's validation
		return nil, err
	}
	s.mu.Lock()
	j.total = 1
	s.mu.Unlock()
	if !sys.Stable() {
		ae := api.Unstable(sys)
		ae.Message += " — a simulation would never reach steady state"
		return nil, ae
	}
	res, err := s.eng.Simulate(ctx, sys, opts)
	if err != nil {
		return nil, err
	}
	return &api.JobResult{ID: j.id, Kind: j.req.Kind, Simulate: &api.SimulateResponse{
		Fingerprint:  sys.Fingerprint(),
		Replications: res.Replications,
		Converged:    res.Converged,
		Confidence:   res.Confidence,
		MeanQueue:    api.CI{Mean: res.MeanQueue, HalfWidth: res.MeanQueueHalfWidth},
		MeanResponse: api.CI{Mean: res.MeanResponse, HalfWidth: res.MeanResponseHalfWidth},
		Availability: api.CI{Mean: res.Availability, HalfWidth: res.AvailabilityHalfWidth},
		Completed:    res.Completed,
	}}, nil
}

// finishLocked moves a job to a terminal state. Callers hold s.mu. (The
// logger is safe under the scheduler mutex: it only takes its own writer
// lock, never the scheduler's.)
func (s *Scheduler) finishLocked(j *job, state string, res *api.JobResult, ae *api.Error) {
	j.state = state
	j.finished = s.now()
	j.result = res
	j.err = ae
	j.detail = "" // a recovered job that terminates is no longer restarting
	s.persistState(j, res)
	close(j.done)
	fields := []olog.F{
		{K: "job", V: j.id}, {K: "kind", V: j.req.Kind}, {K: "id", V: j.origin},
		{K: "duration_ms", V: float64(j.finished.Sub(j.created)) / float64(time.Millisecond)},
	}
	switch state {
	case api.JobStateDone:
		s.transDone.Add(1)
		s.log.Info("job done", fields...)
	case api.JobStateFailed:
		s.transFailed.Add(1)
		if ae != nil {
			fields = append(fields, olog.F{K: "error", V: ae.Message})
		}
		s.log.Warn("job failed", fields...)
	case api.JobStateCanceled:
		s.transCanceled.Add(1)
		s.log.Info("job canceled", fields...)
	}
}

// statusLocked snapshots a job's poll view. Callers hold s.mu.
func (s *Scheduler) statusLocked(j *job) api.JobStatus {
	st := api.JobStatus{
		ID:        j.id,
		Kind:      j.req.Kind,
		State:     j.state,
		Progress:  api.JobProgress{Total: j.total, Completed: j.completed},
		CreatedAt: j.created,
		Error:     j.err,
		Node:      j.node,
		RequestID: j.origin,
		Detail:    j.detail,
	}
	if j.trace.Valid() {
		st.TraceID = j.trace.TraceID.String()
	}
	if len(j.shards) > 0 {
		st.Shards = make([]api.JobShard, len(j.shards))
		copy(st.Shards, j.shards)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// janitor garbage-collects expired terminal jobs until the scheduler
// closes.
func (s *Scheduler) janitor() {
	defer close(s.gcDone)
	interval := s.ttl / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.gc()
		case <-s.ctx.Done():
			return
		}
	}
}

// gc drops terminal jobs whose retention TTL has expired, then compacts
// the write-ahead log down to the records of still-retained jobs — boot
// replay stays proportional to the live population, not to history.
func (s *Scheduler) gc() {
	s.mu.Lock()
	cutoff := s.now().Add(-s.ttl)
	dropped := 0
	for id, j := range s.jobs {
		if !j.finished.IsZero() && j.finished.Before(cutoff) {
			delete(s.jobs, id)
			dropped++
		}
	}
	var retained map[string]bool
	if dropped > 0 && s.jlog != nil {
		retained = make(map[string]bool, len(s.jobs))
		for id := range s.jobs {
			retained[id] = true
		}
	}
	s.mu.Unlock()
	// Compaction reads and rewrites the whole log; run it outside the
	// scheduler mutex so status polls never wait on it. The retained set
	// is a snapshot — a job submitted during compaction appends behind
	// the compaction point and is never dropped by it.
	if retained != nil {
		if err := s.jlog.Compact(func(id string) bool { return retained[id] }); err != nil {
			s.log.Warn("job log compaction failed", olog.F{K: "error", V: err.Error()})
		}
	}
}

// RegisterMetrics exposes the scheduler's queue and state-machine
// counters on a metrics registry. Population gauges snapshot under the
// scheduler mutex at scrape time; transition and throughput counters read
// atomics, so the job execution path is untouched. Call once per
// scheduler per registry.
func (s *Scheduler) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("mus_jobs_queue_depth",
		"Jobs waiting for a worker.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.pending))
		})
	r.GaugeFunc("mus_jobs_queue_capacity",
		"Bound on queued jobs; submissions beyond it are rejected with queue_full.",
		func() float64 { return float64(s.depth) })
	r.GaugeFunc("mus_jobs_running",
		"Jobs currently executing.",
		func() float64 { return float64(s.Stats().Running) })
	r.CounterFunc("mus_jobs_submitted_total",
		"Jobs accepted into the queue.",
		func() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.submitted })
	r.CounterFunc("mus_jobs_rejected_total",
		"Submissions rejected because the queue was full.",
		func() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.rejected })
	for _, t := range []struct {
		state string
		v     *atomic.Uint64
	}{
		{api.JobStateRunning, &s.transRunning},
		{api.JobStateDone, &s.transDone},
		{api.JobStateFailed, &s.transFailed},
		{api.JobStateCanceled, &s.transCanceled},
	} {
		r.CounterFunc("mus_jobs_transitions_total",
			"Job state-machine transitions, by target state.",
			t.v.Load, obs.L("state", t.state))
	}
	r.CounterFunc("mus_jobs_sweep_points_total",
		"Grid points completed by sweep jobs.",
		s.sweepPoints.Load)
	r.CounterFunc("mus_jobs_recovered_total",
		"Jobs reconstructed from the write-ahead log at boot (history and re-queued jobs alike).",
		s.recovered.Load)
}

// newJobID draws a 64-bit random hex job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return "j" + hex.EncodeToString(b[:])
}
