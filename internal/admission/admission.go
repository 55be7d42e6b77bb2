package admission

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultInterval is the refit period: how often the controller
	// re-samples counters, re-fits rates and re-solves the self-model.
	DefaultInterval = 5 * time.Second
	// DefaultTargetWait is the admission SLO: a submission predicted to
	// wait longer than this before starting is shed.
	DefaultTargetWait = 30 * time.Second
	// DefaultMaxRetryAfter caps the model-derived Retry-After hint; the
	// client SDK clamps at 30s anyway, so a larger hint only wastes header
	// bytes.
	DefaultMaxRetryAfter = 30 * time.Second

	// DefaultFailureRate and DefaultRepairRate model the serving tier's
	// workers as effectively reliable when no breakdown/repair events have
	// been measured: one failure per ~11 days with one-second repairs puts
	// availability within 1e-6 of 1 while keeping every rate strictly
	// positive for the solver.
	DefaultFailureRate = 1e-6
	DefaultRepairRate  = 1.0
)

// rateClamp bounds fitted failure/repair rates: measured event counts over
// tiny populations can produce arbitrarily extreme per-server rates, and
// the solver wants strictly positive finite ones.
const (
	minFittedRate = 1e-6
	maxFittedRate = 1e6
)

// Flow is one synchronous sample of the modeled tier's counters, taken by
// the Controller on every refit. Arrivals, Completions, Failures and
// Repairs are cumulative (monotone within one process lifetime); Busy and
// Down are current levels; Backlog and Servers describe the queue.
type Flow struct {
	// Arrivals counts submissions offered to the tier (accepted and
	// rejected alike — rejected work is still offered load).
	Arrivals float64
	// Completions counts jobs that left service for any terminal state.
	Completions float64
	// Busy is the number of currently executing jobs.
	Busy float64
	// Backlog is the number of jobs queued or running.
	Backlog int
	// Servers is the worker count of the modeled tier (N of the fitted
	// system).
	Servers int
	// Failures counts server breakdown events (0 = unmeasured: the fitted
	// model falls back to effectively reliable servers).
	Failures float64
	// Repairs counts repair completions.
	Repairs float64
	// Down is the number of servers currently broken.
	Down float64
}

// Rates is one fitted rate set — the measured counterpart of the paper's
// (λ, µ, ξ, η) quadruple, exposed for /v1/plan's measured mode.
type Rates struct {
	// Arrival is λ̂, offered submissions per second.
	Arrival float64 `json:"arrival"`
	// Service is µ̂, completions per second per busy worker.
	Service float64 `json:"service"`
	// Failure is ξ̂, breakdowns per second per operative worker.
	Failure float64 `json:"failure"`
	// Repair is η̂, repairs per second per broken worker.
	Repair float64 `json:"repair"`
}

// Model is one immutable fit of the serving tier: the fitted system, the
// solver's predictions, and the derived admission limit. Stored behind an
// atomic pointer so the Decide hot path reads it lock-free.
type Model struct {
	// FittedAt is the refit timestamp.
	FittedAt time.Time
	// System is the fitted self-model (the serving tier as an M/M/N queue
	// with breakdowns and repairs).
	System core.System
	// Rates echoes the fitted rate quadruple.
	Rates Rates
	// Stable reports eq. 11 for the fitted system; when false the solver
	// was not run (no steady state exists) and MeanJobs/MeanWait are 0.
	Stable bool
	// MeanJobs is L̂, the predicted steady-state queue length.
	MeanJobs float64
	// MeanWait is Ŵ, the predicted steady-state response time.
	MeanWait float64
	// Capacity is the fitted system's core.System.Capacity, N·µ̂·η̂/(ξ̂+η̂)
	// — the tier's predicted drain rate in jobs per second.
	Capacity float64
	// Limit is the admission backlog bound: the largest backlog that can
	// clear within the target wait at the predicted capacity.
	Limit float64
	// Backlog is the backlog observed at fit time (the fallback input for
	// Retry-After hints computed without a live backlog).
	Backlog int
}

// Decision is the outcome of one admission check.
type Decision struct {
	// Admit is false when the submission should be shed with a 429.
	Admit bool
	// RetryAfter is the model-derived drain hint for a shed submission
	// (how long until the backlog is predicted to fall back under the
	// admission limit), clamped to [1s, MaxRetryAfter]. Zero when
	// admitted.
	RetryAfter time.Duration
	// PredictedQueue is the model's steady-state L̂ (0 without a model or
	// for an unstable fit).
	PredictedQueue float64
	// ModelDerived reports whether a model snapshot backed the decision;
	// false means the controller had no data and admitted by default.
	ModelDerived bool
}

// Config assembles a Controller. Sample and Evaluate are required.
type Config struct {
	// Sample reads the modeled tier's counters; called once per refit,
	// never on the Decide hot path.
	Sample func() Flow
	// Evaluate solves one fitted system — the service engine's Evaluate,
	// so refits share the worker pool, cache and singleflight tier.
	Evaluate func(ctx context.Context, sys core.System, m core.Method) (*core.Performance, error)
	// Method selects the solver for refits (default core.Spectral).
	Method core.Method
	// Interval is the refit period (default DefaultInterval); negative
	// disables the background loop so tests drive Refit deterministically.
	Interval time.Duration
	// HalfLife is the estimators' smoothing half-life (default
	// DefaultHalfLife).
	HalfLife time.Duration
	// TargetWait is the admission SLO (default DefaultTargetWait).
	TargetWait time.Duration
	// MaxRetryAfter caps the drain hint (default DefaultMaxRetryAfter).
	MaxRetryAfter time.Duration
	// Now substitutes the clock (default time.Now).
	Now func() time.Time
	// Logger receives one line per refit outcome change (default discard).
	Logger *olog.Logger
}

// Controller runs the measure → fit → solve → shed loop. Safe for
// concurrent use: Refit runs on one goroutine, Decide and the metric
// callbacks read atomics only.
type Controller struct {
	sample        func() Flow
	evaluate      func(context.Context, core.System, core.Method) (*core.Performance, error)
	method        core.Method
	interval      time.Duration
	targetWait    time.Duration
	maxRetryAfter time.Duration
	now           func() time.Time
	log           *olog.Logger

	arr  *RateEstimator
	comp *RateEstimator
	fail *RateEstimator
	rep  *RateEstimator
	busy *Smoother
	down *Smoother

	model atomic.Pointer[Model]

	admitted    atomic.Uint64
	shed        atomic.Uint64
	refits      atomic.Uint64
	refitErrors atomic.Uint64

	// solveHist records model-solve durations once RegisterMetrics wires a
	// registry; nil until then (tests without metrics).
	solveMu   sync.Mutex
	solveHist *obs.Histogram

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New validates cfg and builds a Controller. Call Start to launch the
// background refit loop and Close to stop it; tests usually skip Start and
// call Refit directly.
func New(cfg Config) *Controller {
	if cfg.Sample == nil {
		panic("admission: Config.Sample is required")
	}
	if cfg.Evaluate == nil {
		panic("admission: Config.Evaluate is required")
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.TargetWait <= 0 {
		cfg.TargetWait = DefaultTargetWait
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = DefaultMaxRetryAfter
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = olog.Nop()
	}
	return &Controller{
		sample:        cfg.Sample,
		evaluate:      cfg.Evaluate,
		method:        cfg.Method,
		interval:      cfg.Interval,
		targetWait:    cfg.TargetWait,
		maxRetryAfter: cfg.MaxRetryAfter,
		now:           cfg.Now,
		log:           cfg.Logger,
		arr:           NewRateEstimator(cfg.HalfLife),
		comp:          NewRateEstimator(cfg.HalfLife),
		fail:          NewRateEstimator(cfg.HalfLife),
		rep:           NewRateEstimator(cfg.HalfLife),
		busy:          NewSmoother(cfg.HalfLife),
		down:          NewSmoother(cfg.HalfLife),
		stop:          make(chan struct{}),
	}
}

// Start launches the background refit loop (unless the configured interval
// is negative). Call Close to stop it.
func (c *Controller) Start() {
	if c.interval < 0 {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := c.Refit(context.Background()); err != nil {
					c.log.Warn("admission refit failed", olog.F{K: "err", V: err.Error()})
				}
			case <-c.stop:
				return
			}
		}
	}()
}

// Close stops the background refit loop. Idempotent.
func (c *Controller) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// Refit runs one measure → fit → solve pass: sample the counters, advance
// the estimators, and — when enough data exists — fit a core.System for
// the serving tier, solve it, and publish the new model snapshot. With
// insufficient data (first window, idle tier) the previous snapshot is
// kept, or none is published and Decide admits everything. A solver
// failure keeps the previous snapshot and counts a refit error.
func (c *Controller) Refit(ctx context.Context) error {
	now := c.now()
	f := c.sample()
	c.arr.Observe(now, f.Arrivals)
	c.comp.Observe(now, f.Completions)
	c.fail.Observe(now, f.Failures)
	c.rep.Observe(now, f.Repairs)
	c.busy.Observe(now, f.Busy)
	c.down.Observe(now, f.Down)

	lam, haveArr := c.arr.Rate()
	crate, haveComp := c.comp.Rate()
	if !haveArr || !haveComp || lam <= 0 {
		// First window, single sample, or a tier nobody is submitting to:
		// nothing to model, nothing to shed.
		return nil
	}
	busyAvg, _ := c.busy.Value()
	if crate <= 0 || busyAvg <= 0 {
		// Load is arriving but nothing has completed yet, so the service
		// rate is unmeasurable; keep whatever model exists rather than
		// fitting µ̂ from nothing.
		return nil
	}
	servers := f.Servers
	if servers < 1 {
		servers = 1
	}
	mu := crate / math.Min(math.Max(busyAvg, 1e-3), float64(servers))
	xi, eta := c.fitBreakdowns(servers)

	sys := core.System{
		Servers:     servers,
		ArrivalRate: lam,
		ServiceRate: mu,
		Operative:   dist.Exp(xi),
		Repair:      dist.Exp(eta),
	}
	if err := sys.Validate(); err != nil {
		c.refitErrors.Add(1)
		return fmt.Errorf("admission: fitted system invalid: %w", err)
	}
	m := &Model{
		FittedAt: now,
		System:   sys,
		Rates:    Rates{Arrival: lam, Service: mu, Failure: xi, Repair: eta},
		Capacity: sys.Capacity(),
		Backlog:  f.Backlog,
	}
	m.Limit = math.Max(m.Capacity*c.targetWait.Seconds(), 1)
	if sys.Stable() {
		start := time.Now()
		perf, err := c.evaluate(ctx, sys, c.method)
		c.observeSolve(time.Since(start))
		if err != nil {
			c.refitErrors.Add(1)
			return fmt.Errorf("admission: solving self-model: %w", err)
		}
		m.Stable = true
		m.MeanJobs = perf.MeanJobs
		m.MeanWait = perf.MeanResponse
	}
	// An unstable fit still publishes: Capacity and Limit are exactly what
	// overload shedding needs, and the missing L̂ only means the predicted
	// queue gauge reads 0 until the tier is stable again.
	c.model.Store(m)
	c.refits.Add(1)
	return nil
}

// fitBreakdowns derives per-server breakdown (ξ̂) and repair (η̂) rates
// from the measured event rates, normalised by the smoothed operative and
// broken populations. Without measured events the defaults model the tier
// as effectively reliable.
func (c *Controller) fitBreakdowns(servers int) (xi, eta float64) {
	xi, eta = DefaultFailureRate, DefaultRepairRate
	frate, haveFail := c.fail.Rate()
	rrate, haveRep := c.rep.Rate()
	if !haveFail || !haveRep || frate <= 0 || rrate <= 0 {
		return xi, eta
	}
	downAvg, _ := c.down.Value()
	up := math.Max(float64(servers)-downAvg, 1)
	xi = clampRate(frate / up)
	eta = clampRate(rrate / math.Max(downAvg, 1e-2))
	return xi, eta
}

// clampRate bounds one fitted rate to the solver-safe range.
func clampRate(r float64) float64 {
	return math.Min(math.Max(r, minFittedRate), maxFittedRate)
}

// Decide is the admission hot path: compare the live backlog against the
// current model's admission limit. It reads one atomic snapshot and never
// samples counters, takes locks or solves anything — BenchmarkAdmissionDecision
// gates it allocation-free.
func (c *Controller) Decide(backlog int) Decision {
	m := c.model.Load()
	if m == nil {
		c.admitted.Add(1)
		return Decision{Admit: true}
	}
	if float64(backlog) <= m.Limit {
		c.admitted.Add(1)
		return Decision{Admit: true, PredictedQueue: m.MeanJobs, ModelDerived: true}
	}
	c.shed.Add(1)
	return Decision{
		RetryAfter:     c.drainHint(m, backlog),
		PredictedQueue: m.MeanJobs,
		ModelDerived:   true,
	}
}

// RetryAfterSeconds returns the current model-derived Retry-After hint in
// whole seconds, computed from the backlog observed at the last refit —
// the value stamped on 429/503 rejections raised by layers that do not
// hold a live backlog (the scheduler's own gate, the drain middleware).
// Zero means "no model yet": the caller falls back to its static hint.
func (c *Controller) RetryAfterSeconds() int {
	m := c.model.Load()
	if m == nil {
		return 0
	}
	return int(math.Ceil(c.drainHint(m, m.Backlog).Seconds()))
}

// drainHint predicts how long the tier needs to drain the backlog excess
// back under the admission limit at the model's capacity, clamped to
// [1s, MaxRetryAfter].
func (c *Controller) drainHint(m *Model, backlog int) time.Duration {
	if m.Capacity <= 0 {
		return c.maxRetryAfter
	}
	excess := float64(backlog) - m.Limit
	if excess < 0 {
		excess = 0
	}
	// +1: even a backlog at the limit needs one service completion before
	// a retried submission helps, so the hint never rounds down to an
	// instant retry storm.
	d := time.Duration((excess + 1) / m.Capacity * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > c.maxRetryAfter {
		d = c.maxRetryAfter
	}
	return d
}

// Snapshot returns the current model (nil before the first successful
// refit) — read-only: snapshots are immutable once published.
func (c *Controller) Snapshot() *Model {
	return c.model.Load()
}

// MeasuredRates returns the last fitted rate quadruple for /v1/plan's
// measured mode; ok is false before the first successful refit.
func (c *Controller) MeasuredRates() (Rates, bool) {
	m := c.model.Load()
	if m == nil {
		return Rates{}, false
	}
	return m.Rates, true
}

// observeSolve records one model-solve duration when a registry is wired.
func (c *Controller) observeSolve(d time.Duration) {
	c.solveMu.Lock()
	h := c.solveHist
	c.solveMu.Unlock()
	if h != nil {
		h.Observe(d.Seconds())
	}
}

// The snapshot keys under which a node's fitted rates appear in its obs
// map (StatsResponse.Obs, ClusterResponse.Obs) — the cluster-aggregation
// contract /v1/plan's measured mode reads from peers.
const (
	MetricArrivalRate = "mus_admission_arrival_rate"
	MetricServiceRate = "mus_admission_service_rate"
	MetricFailureRate = "mus_admission_failure_rate"
	MetricRepairRate  = "mus_admission_repair_rate"
)

// RegisterMetrics registers the controller's mus_admission_* series on r.
func (c *Controller) RegisterMetrics(r *obs.Registry) {
	rates := func(pick func(Rates) float64) func() float64 {
		return func() float64 {
			m := c.model.Load()
			if m == nil {
				return 0
			}
			return pick(m.Rates)
		}
	}
	r.GaugeFunc(MetricArrivalRate,
		"Fitted arrival rate λ̂ of the serving tier's self-model, submissions per second.",
		rates(func(rt Rates) float64 { return rt.Arrival }))
	r.GaugeFunc(MetricServiceRate,
		"Fitted per-worker service rate µ̂ of the self-model, completions per second.",
		rates(func(rt Rates) float64 { return rt.Service }))
	r.GaugeFunc(MetricFailureRate,
		"Fitted per-server breakdown rate ξ̂ of the self-model, events per second.",
		rates(func(rt Rates) float64 { return rt.Failure }))
	r.GaugeFunc(MetricRepairRate,
		"Fitted per-server repair rate η̂ of the self-model, events per second.",
		rates(func(rt Rates) float64 { return rt.Repair }))
	r.GaugeFunc("mus_admission_predicted_queue_jobs",
		"Predicted steady-state queue length L̂ of the self-model (0 while unstable or unfitted).",
		func() float64 {
			m := c.model.Load()
			if m == nil {
				return 0
			}
			return m.MeanJobs
		})
	r.GaugeFunc("mus_admission_predicted_wait_seconds",
		"Predicted steady-state response time Ŵ of the self-model.",
		func() float64 {
			m := c.model.Load()
			if m == nil {
				return 0
			}
			return m.MeanWait
		})
	r.GaugeFunc("mus_admission_backlog_limit_jobs",
		"Model-derived admission bound: the largest backlog that clears within the target wait.",
		func() float64 {
			m := c.model.Load()
			if m == nil {
				return 0
			}
			return m.Limit
		})
	r.CounterFunc("mus_admission_admitted_total",
		"Submissions admitted by the admission controller.",
		c.admitted.Load)
	r.CounterFunc("mus_admission_shed_total",
		"Submissions shed by the admission controller with a model-derived Retry-After.",
		c.shed.Load)
	r.CounterFunc("mus_admission_refits_total",
		"Self-model refits that published a new snapshot.",
		c.refits.Load)
	r.CounterFunc("mus_admission_refit_errors_total",
		"Self-model refits that failed (invalid fit or solver error).",
		c.refitErrors.Load)
	r.CounterFunc("mus_admission_counter_resets_total",
		"Cumulative-counter resets survived by the rate estimators (node restarts).",
		func() uint64 {
			return c.arr.Resets() + c.comp.Resets() + c.fail.Resets() + c.rep.Resets()
		})
	c.solveMu.Lock()
	c.solveHist = r.Histogram("mus_admission_model_solve_seconds",
		"Self-model solve latency per refit, buckets in seconds.", nil)
	c.solveMu.Unlock()
}
