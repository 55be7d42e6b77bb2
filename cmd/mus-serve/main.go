// Command mus-serve is the model-evaluation daemon: it exposes the Palmer
// & Mitrani solvers over HTTP/JSON, backed by the internal/service engine,
// so dashboards, capacity planners and sweep scripts share one worker pool
// and one solver cache instead of shelling out to one-shot CLI runs.
//
//	mus-serve -addr :8350 -workers 8 -cache 16384
//
// The wire contract — request/response DTOs, the structured error
// envelope with machine-readable codes, and the NDJSON streaming scheme —
// lives in package api; package client is the matching Go SDK. Endpoints
// (see README.md for schemas):
//
//	POST /v1/solve     — steady-state performance of one configuration
//	POST /v1/sweep     — batch evaluation over a λ or N grid; with
//	                     "Accept: application/x-ndjson" each grid point
//	                     streams back as soon as it is solved
//	POST /v1/optimize  — cost-optimal N (Fig. 5) or min N for an SLA (Fig. 9)
//	POST /v1/plan      — the same provisioning questions asked about the
//	                     serving tier itself; with "measured": true the
//	                     rates come from the daemon's own fitted
//	                     self-model (cluster-aggregated under -peers)
//	POST /v1/simulate  — replicated simulation with 95% confidence intervals
//	POST /v1/jobs      — submit a sweep/optimize/simulate payload as an
//	                     asynchronous job; GET /v1/jobs lists the retained
//	                     records, GET /v1/jobs/{id} polls one,
//	                     GET /v1/jobs/{id}/result fetches the outcome (or,
//	                     for sweeps under Accept: application/x-ndjson, the
//	                     points solved so far mid-run), DELETE cancels it
//	GET  /v1/stats     — engine, worker-pool, cache and job-queue counters
//	GET  /v1/cluster   — this node's cluster view: per-node health,
//	                     ownership counts, forward/local counters
//	GET  /v1/healthz   — load-balancer readiness probe
//
// Several daemons federate into one sharded cluster with -peers (the
// shared membership list) and -node-id (this node's entry): a rendezvous
// hash ring over the system fingerprint routes each configuration to one
// owner node — forwarding single-point requests, scattering sweep grids
// (synchronous and job-submitted alike) point-wise and gathering them
// back in grid order — with health-checked deterministic failover and the
// local engine as last resort. -data-dir makes the node durable: accepted
// jobs are write-ahead-logged (fsynced before the 202, batched on
// -fsync-interval after it) and replayed at boot, and a cache snapshot
// written every -snapshot-interval warms the solver caches so a restarted
// node rejoins hot. SIGTERM drains gracefully: new requests are rejected
// with 503 node_unavailable + Retry-After while in-flight requests and
// running jobs get -drain-timeout to finish, then the process exits 0.
//
// Every response echoes an X-Request-ID header (generated when the caller
// sends none) that also appears in error envelopes, so client and server
// logs can be joined. Distribution fields default to the paper's fitted
// Sun parameters, so the smallest useful request is
//
//	curl -s localhost:8350/v1/solve -d '{"servers": 12, "lambda": 8}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/obs/olog"
	"repro/internal/obs/trace"
	"repro/internal/service"
	"repro/internal/service/jobs"
	"repro/internal/store"

	// Registered on a dedicated mux behind -pprof-addr only — never on
	// the API listener.
	"net/http/pprof"
)

// snapshotEntries caps how many cache entries (per cache, MRU-first) a
// periodic snapshot persists for warm restarts — enough to cover any
// realistic working set while keeping snapshot writes small.
const snapshotEntries = 4096

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mus-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mus-serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8350", "listen address")
		workers      = fs.Int("workers", 0, "solver worker-pool size (0 = one per CPU)")
		cache        = fs.Int("cache", service.DefaultCacheSize, "solver cache entries (negative disables)")
		jobQueue     = fs.Int("job-queue", jobs.DefaultQueueDepth, "bound on queued async jobs (full queue rejects with queue_full)")
		jobWorkers   = fs.Int("job-workers", jobs.DefaultWorkers, "concurrently executing async jobs (solver concurrency stays bounded by -workers)")
		jobTTL       = fs.Duration("job-ttl", jobs.DefaultTTL, "retention of finished async jobs before garbage collection")
		admissionOn  = fs.Bool("admission", true, "self-modeling admission control: fit the tier's measured rates into the paper's model and shed load (with model-derived Retry-After) when the backlog cannot clear in time")
		admInterval  = fs.Duration("admission-interval", admission.DefaultInterval, "admission self-model refit period")
		admTarget    = fs.Duration("admission-target-wait", admission.DefaultTargetWait, "admission SLO: shed submissions the model predicts cannot start within this wait")
		peers        = fs.String("peers", "", "cluster membership: comma-separated [id=]url entries incl. this node (empty = standalone)")
		nodeID       = fs.String("node-id", "", "this node's ID in -peers (required with -peers; defaults to the bare URL for id-less entries)")
		dataDir      = fs.String("data-dir", "", "durability directory: job write-ahead log + cache snapshot (empty = in-memory only)")
		fsyncEvery   = fs.Duration("fsync-interval", store.DefaultFsyncInterval, "write-ahead-log fsync batching period (0 = fsync every append)")
		snapEvery    = fs.Duration("snapshot-interval", 30*time.Second, "cache-snapshot period for warm restarts (needs -data-dir; 0 disables)")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown budget for in-flight requests and running jobs")
		traceBuffer  = fs.Int("trace-buffer", trace.DefaultBuffer, "completed-span ring-buffer capacity per node (negative disables tracing)")
		traceSlow    = fs.Duration("trace-slow", trace.DefaultSlow, "latency at or above which a finished trace is always retained for GET /v1/traces")
		logLevel     = fs.String("log-level", "info", "structured request/job log threshold: debug, info, warn, error or off")
		pprofAddr    = fs.String("pprof-addr", "", "serve net/http/pprof on this extra address (empty = disabled; never exposed on -addr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lvl, err := olog.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	node := *nodeID
	if node == "" {
		node = "local"
	}
	logger := olog.New(os.Stderr, lvl, olog.F{K: "node", V: node})
	eng := service.NewEngine(service.Config{Workers: *workers, CacheSize: *cache})
	// One tracer per node, built before the scheduler so the boot replay
	// and every recovered job trace through it from the first instant.
	tracer := trace.New(trace.Config{Buffer: *traceBuffer, Slow: *traceSlow, Node: node})

	// The router is built before the scheduler: durable sweep jobs execute
	// through it, so it must exist when the scheduler replays its log and
	// resumes recovered jobs.
	var clu *cluster.Router
	if *peers != "" {
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			return err
		}
		if *nodeID == "" {
			return errors.New("-peers needs -node-id naming this node's entry")
		}
		if clu, err = cluster.New(cluster.Config{SelfID: *nodeID, Nodes: nodes}); err != nil {
			return err
		}
		clu.Start()
		defer clu.Close()
	}

	// -data-dir turns on durability: a write-ahead job log (replayed into
	// the scheduler below, so acknowledged jobs survive a crash) and a
	// solver/simulation cache snapshot that warms the engine at boot.
	var jlog *store.JobLog
	var snapPath string
	writeSnapshot := func() {}
	if *dataDir != "" {
		var err error
		if jlog, err = store.OpenJobLog(*dataDir, store.Options{FsyncInterval: *fsyncEvery}); err != nil {
			return fmt.Errorf("opening job log in %s: %w", *dataDir, err)
		}
		defer jlog.Close()
		snapPath = filepath.Join(*dataDir, "snapshot.json")
		var snap service.CacheSnapshot
		switch err := store.ReadSnapshot(snapPath, &snap); {
		case err == nil:
			log.Printf("mus-serve: warmed %d cache entries from %s", eng.WarmCaches(snap), snapPath)
		case !errors.Is(err, store.ErrNoSnapshot):
			log.Printf("mus-serve: cache snapshot unreadable, starting cold: %v", err)
		}
		writeSnapshot = func() {
			if err := store.WriteSnapshot(snapPath, eng.ExportCaches(snapshotEntries)); err != nil {
				log.Printf("mus-serve: cache snapshot failed: %v", err)
			}
		}
	}

	schedCfg := jobs.Config{Engine: eng, QueueDepth: *jobQueue, Workers: *jobWorkers, TTL: *jobTTL,
		Logger: logger, Log: jlog, NodeID: node, Tracer: tracer}
	if clu != nil {
		schedCfg.Router = clu // typed-nil guard: only assign a live router
	}
	sched := jobs.New(schedCfg)
	defer sched.Close()

	var hs *server
	if clu != nil {
		hs = newServerCluster(eng, sched, clu)
	} else {
		hs = newServerJobs(eng, sched)
	}
	if jlog != nil {
		jlog.RegisterMetrics(hs.reg)
	}
	hs.log = logger
	hs.tracer = tracer
	if *admissionOn {
		adm := hs.attachAdmission(admission.Config{
			Interval:   *admInterval,
			TargetWait: *admTarget,
			Logger:     logger,
		})
		adm.Start()
		defer adm.Close()
	}
	if *pprofAddr != "" {
		// Opt-in profiling on its own listener: bind -pprof-addr to
		// localhost (or a firewalled interface) — the API port never
		// serves /debug/pprof.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("mus-serve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("mus-serve: pprof listener failed: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hs.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Buffered sweeps take a while; NDJSON streams roll their own
		// per-point write deadline past this (see streamSweep).
		WriteTimeout: 5 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// snapDone closes once no periodic snapshot can still be written, so
	// the drain's final snapshot below is the last one.
	snapDone := make(chan struct{})
	if snapPath != "" && *snapEvery > 0 {
		// Periodic cache snapshots are advisory: each one atomically
		// replaces snapshot.json, and losing the newest just means a
		// slightly colder warm-up after the next boot.
		go func() {
			defer close(snapDone)
			t := time.NewTicker(*snapEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					writeSnapshot()
				case <-ctx.Done():
					return
				}
			}
		}()
	} else {
		close(snapDone)
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("mus-serve: listening on %s (workers=%d, cache=%d, peers=%q)", *addr, eng.Workers(), *cache, *peers)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful shutdown: flip into draining (new requests — health
		// probes included — get 503 node_unavailable + Retry-After, so
		// LBs and peers route around us), then give running async jobs
		// and in-flight HTTP requests the -drain-timeout budget before
		// the deferred Close cancels whatever is left. Jobs drain FIRST,
		// while the listener still accepts connections: the drain gate
		// exempts job reads precisely so pollers can observe terminal
		// states and fetch results, which requires a port that still
		// answers while the jobs finish.
		log.Printf("mus-serve: draining (timeout %s)", *drainTimeout)
		hs.startDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := sched.Drain(shutdownCtx); err != nil {
			log.Printf("mus-serve: job drain incomplete: %v (remaining jobs will be canceled)", err)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("mus-serve: http drain incomplete: %v", err)
		}
		// One last snapshot so the caches are as warm as possible when the
		// successor process boots, written after the periodic writer has
		// stopped so a late tick cannot replace it with an older one.
		<-snapDone
		writeSnapshot()
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Print("mus-serve: drained, exiting")
		return nil
	}
}
