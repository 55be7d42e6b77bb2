package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/trace"
	"repro/internal/service"
	"repro/internal/service/jobs"
)

// server wires the evaluation engine and the job scheduler to the HTTP
// API. Every wire type lives in package api — the handlers below only
// decode, validate, dispatch and encode; all state lives in the engine
// and the scheduler, the server itself only counts requests.
//
// With a cluster router attached (-peers), the single-point handlers
// forward each request to its ring owner and the sweep handler scatters
// grids point-wise across the live membership; requests carrying
// api.HeaderForwarded already crossed their one allowed hop and are
// always served locally.
type server struct {
	eng   *service.Engine
	sched *jobs.Scheduler
	clu   *cluster.Router // nil on a standalone node
	// adm is the self-modeling admission controller (nil with -admission
	// off): it periodically fits the serving tier's own measured rates into
	// a core.System, solves it, and turns the predictions into the
	// load-shedding decision and the model-derived Retry-After hints.
	adm      *admission.Controller
	started  time.Time
	requests atomic.Uint64
	// reg is the node's metric registry: every layer registers its
	// collectors here at construction, handlers resolve their per-route
	// instruments at route-table build, and GET /metrics renders it all.
	reg *obs.Registry
	// log emits one structured line per request (and is handed to the job
	// scheduler for transition lines). Defaults to discard; main swaps in
	// the -log-level logger before building the handler.
	log *olog.Logger
	// tracer records this node's completed spans. instrument starts one
	// root span per request (continuing an incoming traceparent, minting a
	// trace otherwise); the /v1/traces handlers read it back. Constructors
	// install a default so every server traces; main swaps in the
	// flag-configured tracer before building the handler.
	tracer *trace.Tracer
	// draining flips at the start of graceful shutdown: every request from
	// then on is rejected with 503 node_unavailable + Retry-After, so load
	// balancers and cluster peers route around this node while in-flight
	// work finishes.
	draining atomic.Bool
}

// newServerJobs builds a server over an engine and an explicit scheduler
// (flag-configured in main, fake-engined or t.Cleanup-closed in tests).
// The caller owns the scheduler's lifecycle — Close it on shutdown. The
// metric registry is built (and the engine and scheduler registered on
// it) here, so every server — production or test — scrapes identically.
func newServerJobs(eng *service.Engine, sched *jobs.Scheduler) *server {
	s := &server{
		eng:     eng,
		sched:   sched,
		started: time.Now(),
		reg:     obs.NewRegistry(),
		log:     olog.Nop(),
		tracer:  trace.New(trace.Config{}),
	}
	eng.RegisterMetrics(s.reg)
	sched.RegisterMetrics(s.reg)
	obs.RegisterRuntime(s.reg, "")
	s.reg.GaugeFunc("mus_process_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.reg.GaugeFunc("mus_process_goroutines",
		"Current goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	return s
}

// newServerCluster builds a clustered server: newServerJobs plus a
// routing tier (whose counters join the registry). The caller owns the
// router's lifecycle too — Start it before serving, Close it on shutdown.
func newServerCluster(eng *service.Engine, sched *jobs.Scheduler, clu *cluster.Router) *server {
	s := newServerJobs(eng, sched)
	s.clu = clu
	clu.RegisterMetrics(s.reg)
	return s
}

// attachAdmission wires the self-modeling admission controller into the
// server: counters are sampled from the job scheduler, self-model solves
// run through the engine (sharing its worker pool and cache), and the
// controller's mus_admission_* series join the node registry. The caller
// owns the controller's lifecycle — Start it before serving, Close it on
// shutdown. Call before handler(): registration panics on a duplicate.
func (s *server) attachAdmission(cfg admission.Config) *admission.Controller {
	cfg.Sample = func() admission.Flow {
		f := s.sched.Flow()
		return admission.Flow{
			Arrivals:    float64(f.Offered),
			Completions: float64(f.Completed),
			Busy:        float64(f.Running),
			Backlog:     f.Queued + f.Running,
			Servers:     f.Workers,
		}
	}
	cfg.Evaluate = s.eng.Evaluate
	c := admission.New(cfg)
	c.RegisterMetrics(s.reg)
	s.adm = c
	return c
}

// handler builds the /v1 route table behind the middleware chain.
// Request-ID propagation wraps everything; per-route instrumentation
// (latency histogram, in-flight gauge, status-code counters, one trace
// line per request) wraps only the real API routes, so health probes,
// 404s and wrong-verb rejections never drown the traffic signal.
// /v1/healthz and the GET /metrics scrape target stay uninstrumented by
// design — load balancers and scrapers poll them continuously. Call
// handler once per server: the per-route instruments register on build,
// and re-registration panics.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+api.PathSolve, s.instrument(http.MethodPost, api.PathSolve, s.handleSolve))
	mux.HandleFunc("POST "+api.PathSweep, s.instrument(http.MethodPost, api.PathSweep, s.handleSweep))
	mux.HandleFunc("POST "+api.PathOptimize, s.instrument(http.MethodPost, api.PathOptimize, s.handleOptimize))
	mux.HandleFunc("POST "+api.PathPlan, s.instrument(http.MethodPost, api.PathPlan, s.handlePlan))
	mux.HandleFunc("POST "+api.PathSimulate, s.instrument(http.MethodPost, api.PathSimulate, s.handleSimulate))
	mux.HandleFunc("POST "+api.PathJobs, s.instrument(http.MethodPost, api.PathJobs, s.handleJobSubmit))
	mux.HandleFunc("GET "+api.PathJobs, s.instrument(http.MethodGet, api.PathJobs, s.handleJobList))
	mux.HandleFunc("GET "+api.PathJobs+"/{id}", s.instrument(http.MethodGet, api.PathJobs+"/{id}", s.handleJobStatus))
	mux.HandleFunc("GET "+api.PathJobs+"/{id}/result", s.instrument(http.MethodGet, api.PathJobs+"/{id}/result", s.handleJobResult))
	mux.HandleFunc("DELETE "+api.PathJobs+"/{id}", s.instrument(http.MethodDelete, api.PathJobs+"/{id}", s.handleJobCancel))
	mux.HandleFunc("GET "+api.PathStats, s.instrument(http.MethodGet, api.PathStats, s.handleStats))
	// The trace read endpoints stay uninstrumented (like /v1/cluster):
	// reading traces must not generate new ones, and peers gather through
	// them continuously when a trace is inspected.
	mux.HandleFunc("GET "+api.PathTraces, s.handleTraceList)
	mux.HandleFunc("GET "+api.PathTraces+"/{id}", s.handleTrace)
	mux.HandleFunc("GET "+api.PathCluster, s.handleCluster)
	mux.HandleFunc("GET "+api.PathHealthz, s.handleHealthz)
	mux.Handle("GET "+api.PathMetrics, s.reg.Handler())
	return chain(mux, withRequestID, s.withDraining)
}

// withDraining rejects new work — health probes included, so load
// balancers and peer routers stop sending traffic — once graceful
// shutdown has begun. The 503 carries the node_unavailable code and a
// Retry-After hint; in-flight requests accepted before the flag flipped
// are unaffected and drain normally. Job reads (GET under /v1/jobs) stay
// open: the drain deliberately waits for running jobs to finish, and
// that wait is only worth its budget if a polling client can still
// observe the terminal state and fetch the result before exit. GET
// /metrics stays open too: the drain window is exactly when operators
// watch the in-flight and queue-depth gauges fall.
func (s *server) withDraining(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		exempt := r.Method == http.MethodGet &&
			(r.URL.Path == api.PathJobs || strings.HasPrefix(r.URL.Path, api.PathJobs+"/") ||
				r.URL.Path == api.PathMetrics)
		if s.draining.Load() && !exempt {
			w.Header().Set("Retry-After", strconv.Itoa(api.RetryAfterDraining))
			writeJSON(w, http.StatusServiceUnavailable, api.ErrorEnvelope{
				Error:     api.NodeUnavailable("node is draining for shutdown; retry elsewhere or after a delay"),
				RequestID: requestID(r.Context()),
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// startDrain flips the server into draining mode — the HTTP gate and the
// scheduler's own submission gate in one breath. Both flips matter: a
// submission that slipped past the middleware check before the flag
// flipped must still be rejected by the scheduler, or it would be
// accepted into a process that is about to exit and (on nodes without a
// job log) silently lost.
func (s *server) startDrain() {
	s.draining.Store(true)
	s.sched.BeginDrain()
}

// forwarded reports whether the request already crossed its one allowed
// cluster hop and must be served locally.
func forwarded(r *http.Request) bool { return r.Header.Get(api.HeaderForwarded) != "" }

// shouldRoute reports whether a request enters the cluster routing tier:
// a router exists and the request has not been forwarded yet.
func (s *server) shouldRoute(r *http.Request) bool { return s.clu != nil && !forwarded(r) }

// middleware wraps a handler with one cross-cutting concern.
type middleware func(http.Handler) http.Handler

// chain composes middlewares around h; the first listed is outermost.
func chain(h http.Handler, mws ...middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// withRequestID propagates X-Request-ID: an incoming ID is reused (so
// callers can stitch their own traces), an absent one is generated, and
// either way the ID is echoed on the response and stored in the request
// context — where error envelopes, trace lines, cluster forwards (the
// SDK stamps the context ID on outgoing requests) and async job records
// all read it back, so one ID follows the request across nodes.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(api.HeaderRequestID)
		if id == "" || len(id) > 128 {
			id = newRequestID()
		}
		w.Header().Set(api.HeaderRequestID, id)
		next.ServeHTTP(w, r.WithContext(api.ContextWithRequestID(r.Context(), id)))
	})
}

// newRequestID draws a 64-bit random hex ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// requestID recovers the correlation ID stored by withRequestID.
func requestID(ctx context.Context) string {
	return api.RequestIDFrom(ctx)
}

// note is the per-request mutable slot handlers annotate (ring owner,
// job ID) so the middleware's one summary line carries routing facts only
// the handler knows. Stored by pointer in the request context.
type note struct {
	owner string // ring owner of the request's fingerprint ("" until known)
	job   string // async job ID touched by this request
}

// noteKey carries the *note slot through the request context.
type noteKey struct{}

// noteFrom recovers the note slot, or nil outside instrumented routes.
func noteFrom(ctx context.Context) *note {
	t, _ := ctx.Value(noteKey{}).(*note)
	return t
}

// setTraceOwner records the ring owner on the request's note slot.
func setTraceOwner(ctx context.Context, owner string) {
	if t := noteFrom(ctx); t != nil {
		t.owner = owner
	}
}

// setTraceJob records the async job ID on the request's note slot.
func setTraceJob(ctx context.Context, id string) {
	if t := noteFrom(ctx); t != nil {
		t.job = id
	}
}

// routeMetrics is one route's pre-resolved instrument set: the latency
// histogram and in-flight gauge are fixed at registration, while the
// per-status-code counters materialise lazily (first 404, first 499, …)
// behind a sync.Map so the steady-state path is one lock-free load.
type routeMetrics struct {
	reg           *obs.Registry
	method, route string
	duration      *obs.Histogram
	inflight      *obs.Gauge

	mu    sync.Mutex // serialises first-time counter registration only
	codes sync.Map   // int status code → *obs.Counter
}

// counterFor returns the route's request counter for one status code,
// registering the series on first sight.
func (m *routeMetrics) counterFor(code int) *obs.Counter {
	if c, ok := m.codes.Load(code); ok {
		return c.(*obs.Counter)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.codes.Load(code); ok {
		return c.(*obs.Counter)
	}
	c := m.reg.Counter("mus_http_requests_total",
		"HTTP requests served, by route, method and status code.",
		obs.L("route", m.route), obs.L("method", m.method), obs.L("code", strconv.Itoa(code)))
	m.codes.Store(code, c)
	return c
}

// statusWriter captures the response status for metrics and trace lines.
// Unwrap keeps http.NewResponseController working, so the NDJSON
// streaming paths still reach the real connection's Flush and
// SetWriteDeadline through it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.NewResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps one route's handler with the node's request
// observability: the /v1/stats request counter, the per-route latency
// histogram, in-flight gauge and status-code counters, and one
// structured trace line per request (id, route, node, owner, forwarded,
// status, duration). The instruments are resolved here, at route-table
// build — the per-request path records through held pointers and never
// touches the registry lock.
func (s *server) instrument(method, route string, h http.HandlerFunc) http.HandlerFunc {
	m := &routeMetrics{
		reg:    s.reg,
		method: method,
		route:  route,
		duration: s.reg.Histogram("mus_http_request_duration_seconds",
			"HTTP request latency by route, buckets in seconds.",
			nil, obs.L("route", route), obs.L("method", method)),
		inflight: s.reg.Gauge("mus_http_in_flight_requests",
			"Requests currently being served, by route.",
			obs.L("route", route), obs.L("method", method)),
	}
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		m.inflight.Inc()
		start := time.Now()
		tr := &note{}
		ctx := context.WithValue(r.Context(), noteKey{}, tr)
		// The root span continues an incoming trace context (W3C
		// traceparent, or the repo-native alias) and mints a new trace
		// otherwise; the span context rides r.Context() so every seam below
		// — admission, engine, store, cluster forwards — parents to it, and
		// the client SDK re-serializes it onto outgoing hops.
		parent, ok := trace.ParseTraceparent(r.Header.Get(api.HeaderTraceparent))
		if !ok {
			parent, _ = trace.ParseTraceparent(r.Header.Get(api.HeaderMusTrace))
		}
		span, ctx := s.tracer.StartRoot(ctx, "mus.http.request", parent)
		span.Set(trace.Str("route", route))
		span.Set(trace.Str("method", method))
		var traceID, spanID string
		if sc := span.Context(); sc.Valid() {
			traceID, spanID = sc.TraceID.String(), sc.SpanID.String()
			// Echo the trace ID so any caller can go straight to
			// GET /v1/traces/{id} without having minted the trace itself.
			w.Header().Set(api.HeaderMusTrace, traceID)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		elapsed := time.Since(start)
		m.inflight.Dec()
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		span.Set(trace.Int("status", int64(code)))
		if code >= http.StatusInternalServerError {
			span.FailMsg(http.StatusText(code))
		}
		span.End() // after End the span is recycled; only traceID/spanID survive
		// The latency observation carries the trace ID as its exemplar, so
		// a slow histogram bucket links straight to a retained trace.
		m.duration.ObserveWithExemplar(elapsed.Seconds(), traceID)
		m.counterFor(code).Inc()
		if !s.log.Enabled(olog.Info) {
			return
		}
		// The logger's base fields already carry the node id (main.go);
		// adding it again here would duplicate the key in every line.
		fields := []olog.F{
			{K: "id", V: requestID(r.Context())},
			{K: "route", V: route},
			{K: "method", V: method},
			{K: "status", V: code},
			{K: "duration_ms", V: float64(elapsed) / float64(time.Millisecond)},
		}
		if traceID != "" {
			fields = append(fields, olog.F{K: "trace", V: traceID}, olog.F{K: "span", V: spanID})
		}
		if tr.owner != "" {
			fields = append(fields, olog.F{K: "owner", V: tr.owner})
		}
		if tr.job != "" {
			fields = append(fields, olog.F{K: "job", V: tr.job})
		}
		if forwarded(r) {
			fields = append(fields, olog.F{K: "forwarded", V: true})
		}
		s.log.Info("request", fields...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", api.ContentTypeJSON)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response writer errors have no recovery path
}

// writeError classifies err into the wire taxonomy (client cancellations
// become 499, deadline expiry 504, typed errors keep their code, anything
// else 500) and renders the error envelope with the request ID. Every
// backpressure rejection — queue_full 429 and node_unavailable 503,
// whichever layer raised it — carries a Retry-After hint: the SDK's
// backpressure contract only retries a 429 on the server's explicit
// invitation, so a hintless 429 strands the caller. The hint is the
// admission self-model's predicted drain time when a model exists, the
// static fallback otherwise.
func (s *server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	ae := api.Classify(err)
	switch ae.Code {
	case api.CodeNodeUnavailable:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint(api.RetryAfterDraining)))
	case api.CodeQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint(api.RetryAfterQueueFull)))
	}
	writeJSON(w, ae.HTTPStatus(), api.ErrorEnvelope{Error: ae, RequestID: requestID(r.Context())})
}

// retryAfterHint picks the Retry-After value for a backpressure
// rejection: the admission controller's model-derived drain estimate
// when one is fitted, the layer's static fallback otherwise.
func (s *server) retryAfterHint(fallback int) int {
	if s.adm != nil {
		if secs := s.adm.RetryAfterSeconds(); secs > 0 {
			return secs
		}
	}
	return fallback
}

func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, r, api.InvalidArgument("body", "decode request: %v", err))
		return false
	}
	return true
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req api.SolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	sys, m, err := req.Resolve()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if !sys.Stable() {
		s.writeError(w, r, api.Unstable(sys))
		return
	}
	if s.shouldRoute(r) {
		setTraceOwner(r.Context(), s.clu.Owner(sys.Fingerprint()))
		resp, served, err := s.clu.ForwardSolve(r.Context(), sys.Fingerprint(), req)
		if served {
			if err != nil {
				s.writeError(w, r, err)
				return
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	perf, err := s.eng.Evaluate(r.Context(), sys, m)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := api.SolveResponse{
		Fingerprint:  sys.Fingerprint(),
		Method:       m.String(),
		Availability: sys.Availability(),
		Modes:        sys.Modes(),
		Stable:       true,
		Perf:         api.FromPerformance(perf),
	}
	if req.HoldingCost > 0 || req.ServerCost > 0 {
		cm := core.CostModel{HoldingCost: req.HoldingCost, ServerCost: req.ServerCost}
		c := cm.Cost(perf.MeanJobs, sys.Servers)
		resp.Cost = &c
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSweep evaluates a grid. With "Accept: application/x-ndjson" the
// response streams one api.SweepPoint per line, flushed as each point is
// solved — a 10k-point sweep starts returning in milliseconds; otherwise
// the points are buffered into one api.SweepResponse.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	systems, err := req.Systems() // validates and expands the grid
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	m, err := api.ParseMethod(req.Method) // cannot fail after Systems
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if s.shouldRoute(r) {
		s.clusterSweep(w, r, req, systems, m)
		return
	}
	jobs := make([]service.Job, len(systems))
	for i, sys := range systems {
		jobs[i] = service.Job{System: sys, Method: m}
	}
	if r.Header.Get("Accept") == api.ContentTypeNDJSON {
		s.streamSweep(w, r, req, jobs)
		return
	}
	results := s.eng.EvaluateBatch(r.Context(), jobs)
	resp := api.SweepResponse{Method: m.String(), Param: req.Param, Points: make([]api.SweepPoint, len(results))}
	for i, res := range results {
		resp.Points[i] = sweepPointOf(req, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// clusterSweep scatters a sweep grid across the cluster by per-point
// fingerprint and gathers the points back in grid order — buffered into
// one api.SweepResponse, or streamed as NDJSON under Accept:
// application/x-ndjson exactly like the single-node path. The local
// engine evaluates this node's own shard (and is the failover of last
// resort for everyone else's).
func (s *server) clusterSweep(w http.ResponseWriter, r *http.Request, req api.SweepRequest, systems []core.System, m core.Method) {
	fps := make([]string, len(systems))
	for i, sys := range systems {
		fps[i] = sys.Fingerprint()
	}
	local := func(ctx context.Context, indices []int, out func(api.SweepPoint)) error {
		sub := make([]service.Job, len(indices))
		for k, i := range indices {
			sub[k] = service.Job{System: systems[i], Method: m}
		}
		return s.eng.EvaluateStream(ctx, sub, func(res service.Result) error {
			pt := api.SweepPoint{Index: indices[res.Index], Value: req.Values[indices[res.Index]]}
			if res.Err != nil {
				pt.Error = res.Err.Error()
			} else {
				perf := api.FromPerformance(res.Perf)
				pt.Perf = &perf
			}
			out(pt)
			return nil
		})
	}
	if r.Header.Get("Accept") == api.ContentTypeNDJSON {
		// The 200 is already on the wire; mid-stream failures can only
		// truncate, exactly as in the single-node streaming path.
		_ = s.clu.Sweep(r.Context(), req, fps, ndjsonEmitter(w), local)
		return
	}
	points := make([]api.SweepPoint, 0, len(systems))
	err := s.clu.Sweep(r.Context(), req, fps, func(pt api.SweepPoint) error {
		points = append(points, pt)
		return nil
	}, local)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.SweepResponse{Method: m.String(), Param: req.Param, Points: points})
}

// handleCluster reports this node's cluster view (GET /v1/cluster):
// per-node health and routing counters from the router, plus the local
// engine's cache-affinity numbers. A standalone node answers with
// enabled=false and its local counters only.
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	resp := api.ClusterResponse{}
	if s.clu != nil {
		resp = s.clu.Stats()
	}
	resp.CacheHitRate = st.Cache.HitRate()
	resp.Evaluations = st.Evaluations
	resp.Solves = st.Solves
	resp.Obs = s.reg.Snapshot()
	writeJSON(w, http.StatusOK, resp)
}

// streamPointTimeout bounds the wait for any single streamed grid point.
// The server's WriteTimeout is one absolute deadline for the whole
// response — flushing does not extend it — so streamSweep rolls the
// write deadline forward per point instead: a sweep may stream for hours
// as long as points keep landing, while a stalled client (or one stuck
// point) still tears the connection down.
const streamPointTimeout = 5 * time.Minute

// ndjsonEmitter switches the response into NDJSON streaming mode and
// returns the per-point emit function both sweep paths (single-node and
// cluster scatter) share: each point is encoded, flushed, and rolls the
// write deadline forward so a sweep may stream past the server-wide
// WriteTimeout as long as points keep landing. Deadline errors are
// ignored so transports without deadline support still stream.
func ndjsonEmitter(w http.ResponseWriter) func(api.SweepPoint) error {
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(streamPointTimeout))
	w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	return func(pt api.SweepPoint) error {
		_ = rc.SetWriteDeadline(time.Now().Add(streamPointTimeout))
		if err := enc.Encode(pt); err != nil {
			return err
		}
		return rc.Flush()
	}
}

// streamSweep renders a sweep as NDJSON: each grid point is written and
// flushed as soon as the engine solves it, in grid order. A disconnecting
// client cancels the remaining evaluations through the request context.
func (s *server) streamSweep(w http.ResponseWriter, r *http.Request, req api.SweepRequest, jobs []service.Job) {
	emit := ndjsonEmitter(w)
	// The stream already carries a 200; mid-stream failures (client gone,
	// context cancelled) can only terminate it early.
	_ = s.eng.EvaluateStream(r.Context(), jobs, func(res service.Result) error {
		return emit(sweepPointOf(req, res))
	})
}

// sweepPointOf converts one engine result to its wire form.
func sweepPointOf(req api.SweepRequest, res service.Result) api.SweepPoint {
	pt := api.SweepPoint{Index: res.Index, Value: req.Values[res.Index]}
	if res.Err != nil {
		pt.Error = res.Err.Error()
	} else {
		perf := api.FromPerformance(res.Perf)
		pt.Perf = &perf
	}
	return pt
}

// handleOptimize answers the paper's two provisioning questions: with a
// target_response it returns the smallest N meeting the SLA (Figure 9);
// otherwise it minimises C = c₁L + c₂N over [min_servers, max_servers]
// (Figure 5).
func (s *server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req api.OptimizeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	base, m, minN, maxN, err := req.Resolve()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp, err := jobs.Optimize(r.Context(), s.eng, base, req.Objective(), minN, maxN, m)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePlan answers the provisioning questions of /v1/optimize about
// the serving tier itself (POST /v1/plan) — the planning half of the
// self-modeling loop. In request mode the caller supplies the rates; in
// measured mode ("measured": true) they come from the admission
// controller's fitted self-model, aggregated across every live cluster
// node when clustering is enabled: arrival rates sum (each node sheds
// its own offered load), per-server service, breakdown and repair rates
// average. Either way the answer comes from the same search
// (jobs.Optimize over core.Provision) that /v1/optimize, optimize jobs
// and the offline helpers run, so a plan fed the paper's §5 parameters
// agrees with Figure 5 exactly.
func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req api.PlanRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	m, minN, maxN, err := req.ResolveObjective()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp := api.PlanResponse{Source: api.PlanSourceRequest}
	var base core.System
	if req.Measured {
		rates, nodes, err := s.measuredRates(r.Context())
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		base = core.System{
			Servers:     1, // N is the decision variable
			ArrivalRate: rates.Lambda,
			ServiceRate: rates.Mu,
			Operative:   dist.Exp(rates.Xi),
			Repair:      dist.Exp(rates.Eta),
		}
		resp.Source = api.PlanSourceMeasured
		resp.Nodes = nodes
		resp.Rates = rates
	} else {
		if base, err = req.BaseSystem(); err != nil {
			s.writeError(w, r, err)
			return
		}
		resp.Rates = api.PlanRates{
			Lambda: base.ArrivalRate,
			Mu:     base.ServiceRate,
			Xi:     base.Operative.Rate(),
			Eta:    base.Repair.Rate(),
		}
	}
	minStable, err := core.MinServersForStability(base)
	if err != nil {
		s.writeError(w, r, &api.Error{Code: api.CodeUnsatisfiable, Message: "no fleet size stabilises the planned load: " + err.Error()})
		return
	}
	resp.MinStable = minStable
	resp.Availability = base.Availability()
	opt, err := jobs.Optimize(r.Context(), s.eng, base, req.Objective(), minN, maxN, m)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	resp.Objective, resp.Servers, resp.Cost, resp.Perf = opt.Objective, opt.Servers, opt.Cost, opt.Perf
	writeJSON(w, http.StatusOK, resp)
}

// measuredRates assembles the rate quadruple for a measured-mode plan:
// this node's fitted self-model, joined with every live peer's fitted
// rates read from their /v1/cluster metric snapshots (the exported
// mus_admission_* gauge keys are the wire contract). Arrival rates are
// additive — each node sees its own slice of the offered load — while
// the per-server service, breakdown and repair rates are averaged over
// the nodes that measured them.
func (s *server) measuredRates(ctx context.Context) (api.PlanRates, int, error) {
	if s.adm == nil {
		return api.PlanRates{}, 0, api.InvalidArgument("measured",
			"measured mode needs the admission controller (-admission) enabled")
	}
	local, ok := s.adm.MeasuredRates()
	if !ok {
		return api.PlanRates{}, 0, &api.Error{Code: api.CodeUnsatisfiable,
			Message: "no fitted self-model yet: the tier has not served enough traffic to measure its rates; retry after the next refit window"}
	}
	rates := api.PlanRates{Lambda: local.Arrival, Mu: local.Service, Xi: local.Failure, Eta: local.Repair}
	nodes, mus, xis, etas := 1, 1, 1, 1
	if s.clu != nil {
		for _, snap := range s.clu.GatherObs(ctx) {
			lam := snap[admission.MetricArrivalRate]
			if lam <= 0 {
				continue // peer has no fitted model yet
			}
			nodes++
			rates.Lambda += lam
			if mu := snap[admission.MetricServiceRate]; mu > 0 {
				rates.Mu += mu
				mus++
			}
			if xi := snap[admission.MetricFailureRate]; xi > 0 {
				rates.Xi += xi
				xis++
			}
			if eta := snap[admission.MetricRepairRate]; eta > 0 {
				rates.Eta += eta
				etas++
			}
		}
		rates.Mu /= float64(mus)
		rates.Xi /= float64(xis)
		rates.Eta /= float64(etas)
	}
	return rates, nodes, nil
}

// handleSimulate estimates the steady state by parallel independent
// replications with Student-t confidence intervals — the statistical
// validation companion to /v1/solve. With rel_precision set, replications
// stop as soon as the CI half-width on L is within ε of the mean (capped
// at replications); results are memoised by (fingerprint, seed, precision)
// and are bit-for-bit reproducible for a fixed request.
func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req api.SimulateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Option errors are client errors: rejecting them here gets them a 400
	// and keeps them out of the engine's simulation-failure counter.
	sys, opts, err := req.Resolve()
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if !sys.Stable() {
		ae := api.Unstable(sys)
		ae.Message += " — a simulation would never reach steady state"
		s.writeError(w, r, ae)
		return
	}
	if s.shouldRoute(r) {
		setTraceOwner(r.Context(), s.clu.Owner(sys.Fingerprint()))
		resp, served, err := s.clu.ForwardSimulate(r.Context(), sys.Fingerprint(), req)
		if served {
			if err != nil {
				s.writeError(w, r, err)
				return
			}
			writeJSON(w, http.StatusOK, resp)
			return
		}
	}
	res, err := s.eng.Simulate(r.Context(), sys, opts)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.SimulateResponse{
		Fingerprint:  sys.Fingerprint(),
		Replications: res.Replications,
		Converged:    res.Converged,
		Confidence:   res.Confidence,
		MeanQueue:    api.CI{Mean: res.MeanQueue, HalfWidth: res.MeanQueueHalfWidth},
		MeanResponse: api.CI{Mean: res.MeanResponse, HalfWidth: res.MeanResponseHalfWidth},
		Availability: api.CI{Mean: res.Availability, HalfWidth: res.AvailabilityHalfWidth},
		Completed:    res.Completed,
	})
}

// handleJobSubmit accepts an asynchronous job (POST /v1/jobs): the
// validated payload is queued and a 202 with the job's queued status
// returns immediately. A full queue answers 429 queue_full — the
// backpressure contract of the bounded scheduler. With -data-dir the
// submission is fsynced to the write-ahead log before the 202, so an
// accepted job survives a crash; with -peers, sweep jobs execute
// cluster-wide through the routing tier, sharded by environment
// fingerprint onto their ring-owner nodes.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The admission controller sheds before the scheduler's hard queue
	// bound is reached: when the self-model predicts the current backlog
	// cannot clear within the target wait, the 429 carries the predicted
	// drain time instead of letting the queue fill to its static limit
	// first. No model (first window, -admission off) admits everything —
	// the scheduler's own queue_full gate stays the backstop either way.
	if s.adm != nil {
		// The decision span lives here, not inside Decide: the controller's
		// decision path is allocation-gated by BenchmarkAdmissionDecision,
		// and a leaf span at the call site costs the request path nothing
		// extra while keeping the gate honest.
		backlog := s.sched.Backlog()
		asp := trace.StartLeaf(r.Context(), "mus.admission.decide")
		d := s.adm.Decide(backlog)
		asp.Set(trace.Int("backlog", int64(backlog)))
		asp.Set(trace.Bool("admit", d.Admit))
		if !d.Admit {
			secs := int(math.Ceil(d.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			asp.Set(trace.Int("retry_after_s", int64(secs)))
			asp.FailMsg("shed: backlog exceeds the model-derived limit")
			asp.End()
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, api.ErrorEnvelope{
				Error: &api.Error{
					Code: api.CodeQueueFull,
					Message: fmt.Sprintf(
						"admission control: backlog exceeds the model-derived limit; predicted drain %ds", secs),
				},
				RequestID: requestID(r.Context()),
			})
			return
		}
		asp.End()
	}
	st, err := s.sched.Submit(r.Context(), req)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	setTraceJob(r.Context(), st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobList reports every retained job, newest first (GET /v1/jobs)
// — after a restart with -data-dir, the history replayed from the
// write-ahead log. Exempt from the drain gate like the other job reads.
func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.JobListResponse{Jobs: s.sched.List()})
}

// handleJobStatus polls one job (GET /v1/jobs/{id}).
func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	setTraceJob(r.Context(), r.PathValue("id"))
	st, err := s.sched.Status(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult fetches a job's outcome (GET /v1/jobs/{id}/result). A
// non-terminal job answers 409 not_ready — except for sweep jobs asked
// with "Accept: application/x-ndjson", which answer 200 with the
// SweepPoint lines solved so far (possibly none), so a long sweep's
// partial results are readable mid-run.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setTraceJob(r.Context(), id)
	if r.Header.Get("Accept") == api.ContentTypeNDJSON {
		pts, st, err := s.sched.PartialSweep(id)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		w.Header().Set("Content-Type", api.ContentTypeNDJSON)
		w.Header().Set(api.HeaderJobState, st.State)
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		for _, pt := range pts {
			if err := enc.Encode(pt); err != nil {
				return // client gone; nothing to recover
			}
		}
		return
	}
	res, err := s.sched.Result(id)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleJobCancel cancels one job (DELETE /v1/jobs/{id}) and returns its
// status. Cancelation is idempotent: a terminal job just echoes its final
// state; a running job reports canceled only once the engine has released
// its in-flight evaluations, so poll until terminal.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	setTraceJob(r.Context(), r.PathValue("id"))
	st, err := s.sched.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleTraceList lists retained trace roots (GET /v1/traces), newest
// first. A clustered node merges every live peer's retained roots into
// the listing (peer gathers arrive forwarded, so they answer from their
// local index only and the fan-out stays one hop deep).
func (s *server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	roots := s.tracer.Roots(0)
	list := make([]api.TraceSummary, 0, len(roots))
	for _, ri := range roots {
		list = append(list, api.TraceSummary{
			TraceID:    ri.TraceID.String(),
			Name:       ri.Name,
			Node:       ri.Node,
			Start:      ri.Start,
			DurationMS: float64(ri.Duration) / float64(time.Millisecond),
			Error:      ri.Err,
		})
	}
	if s.shouldRoute(r) {
		list = append(list, s.clu.GatherTraceList(r.Context())...)
	}
	sort.Slice(list, func(a, b int) bool {
		if !list[a].Start.Equal(list[b].Start) {
			return list[a].Start.After(list[b].Start)
		}
		return list[a].TraceID < list[b].TraceID
	})
	writeJSON(w, http.StatusOK, api.TraceListResponse{Traces: list})
}

// handleTrace assembles one trace's span tree (GET /v1/traces/{id}): the
// local ring's spans plus — on a clustered node serving the original
// request — every live peer's, sorted by start time, with the contributing
// nodes and the orphan count (spans whose parent is in no node's buffer).
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	idStr := r.PathValue("id")
	id, ok := trace.ParseTraceID(idStr)
	if !ok {
		s.writeError(w, r, api.InvalidArgument("id", "trace ID %q: want 32 hex digits", idStr))
		return
	}
	var spans []api.TraceSpan
	for _, rec := range s.tracer.Collect(id) {
		spans = append(spans, traceSpanOf(rec))
	}
	if s.shouldRoute(r) {
		spans = append(spans, s.clu.GatherTraces(r.Context(), idStr)...)
	}
	if len(spans) == 0 {
		s.writeError(w, r, &api.Error{Code: api.CodeNotFound, Field: "id",
			Message: fmt.Sprintf("no buffered spans for trace %q (not retained, or evicted from every node's ring)", idStr)})
		return
	}
	sort.Slice(spans, func(a, b int) bool {
		if !spans[a].Start.Equal(spans[b].Start) {
			return spans[a].Start.Before(spans[b].Start)
		}
		return spans[a].SpanID < spans[b].SpanID
	})
	resp := api.TraceResponse{TraceID: idStr, Spans: spans, Orphans: orphanCount(spans)}
	seen := make(map[string]bool)
	for _, sp := range spans {
		if sp.Node != "" && !seen[sp.Node] {
			seen[sp.Node] = true
			resp.Nodes = append(resp.Nodes, sp.Node)
		}
	}
	sort.Strings(resp.Nodes)
	writeJSON(w, http.StatusOK, resp)
}

// traceSpanOf converts one buffered span record to its wire form.
func traceSpanOf(rec trace.SpanRecord) api.TraceSpan {
	sp := api.TraceSpan{
		TraceID:    rec.TraceID.String(),
		SpanID:     rec.SpanID.String(),
		Name:       rec.Name,
		Node:       rec.Node,
		Root:       rec.Root,
		Start:      rec.Start,
		DurationMS: float64(rec.Duration) / float64(time.Millisecond),
		Error:      rec.Err,
	}
	if !rec.Parent.IsZero() {
		sp.Parent = rec.Parent.String()
	}
	if rec.NAttrs > 0 {
		sp.Attrs = make(map[string]string, rec.NAttrs)
		for _, a := range rec.Attrs[:rec.NAttrs] {
			sp.Attrs[a.Key] = a.Value()
		}
	}
	return sp
}

// orphanCount counts spans whose parent is neither present in the
// assembled set nor excused by the span being a declared local root —
// zero means the tree is fully connected. Local roots are excused
// because their parent legitimately lives where no gather can reach: on
// a node killed mid-request, or in the pre-restart incarnation of a
// replayed job's submitter. A non-root span with a missing parent is a
// real hole (ring eviction, a dropped hop) and is what this counts.
func orphanCount(spans []api.TraceSpan) int {
	present := make(map[string]bool, len(spans))
	for _, sp := range spans {
		present[sp.SpanID] = true
	}
	n := 0
	for _, sp := range spans {
		if !sp.Root && sp.Parent != "" && !present[sp.Parent] {
			n++
		}
	}
	return n
}

// cacheStatsOf converts engine cache counters to their wire form.
func cacheStatsOf(c service.CacheStats) api.CacheStats {
	return api.CacheStats{
		Hits:      c.Hits,
		Misses:    c.Misses,
		Evictions: c.Evictions,
		Entries:   c.Entries,
		Capacity:  c.Capacity,
		HitRate:   c.HitRate(),
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, api.StatsResponse{
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Requests:       s.requests.Load(),
		Workers:        st.Workers,
		Evaluations:    st.Evaluations,
		Solves:         st.Solves,
		SolverErrors:   st.Errors,
		SharedInFlight: st.SharedInFlight,
		SimRuns:        st.SimRuns,
		SimErrors:      st.SimErrors,
		BatchGroups:    st.BatchGroups,
		BatchFallbacks: st.BatchFallbacks,
		WarmedEntries:  st.WarmedEntries,
		Cache:          cacheStatsOf(st.Cache),
		SimCache:       cacheStatsOf(st.SimCache),
		Jobs:           s.sched.Stats(),
		Obs:            s.reg.Snapshot(),
	})
}

// handleHealthz answers load-balancer probes: 200 with the engine's
// worker and cache configuration means "route traffic here".
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.eng.Stats()
	writeJSON(w, http.StatusOK, api.HealthResponse{
		Status:           "ok",
		Workers:          st.Workers,
		CacheCapacity:    st.Cache.Capacity,
		SimCacheCapacity: st.SimCache.Capacity,
		UptimeSeconds:    time.Since(s.started).Seconds(),
	})
}
