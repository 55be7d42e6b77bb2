// Package repro is a complete Go reproduction of J. Palmer & I. Mitrani,
// "Empirical and Analytical Evaluation of Systems with Multiple Unreliable
// Servers" (University of Newcastle CS-TR-936; DSN 2006), grown into a
// concurrent evaluation service.
//
// The library models a cluster of N parallel servers serving a Poisson
// stream from one unbounded queue, where every server alternates between
// hyperexponentially distributed operative periods and repair periods. It
// contains the wire layer, two subsystems and the numerical substrate
// beneath them:
//
//   - api — the versioned wire contract of the mus-serve daemon: every
//     request/response DTO, the structured Error taxonomy with
//     machine-readable codes, request validation, and converters to
//     internal/core — one schema shared by server, SDK, CLIs and tests;
//   - client — the Go SDK: a typed, context-aware method per endpoint,
//     retries on 5xx honouring Retry-After, errors.As-recoverable
//     *api.Error failures, NDJSON sweep streaming (SweepStream), the
//     asynchronous-job surface (SubmitJob, WaitJob, JobSweepPartial,
//     CancelJob), and client-side cluster sharding (NewCluster) that
//     sends each request straight to its ring owner;
//   - internal/core — the public model: System, exact/approximate solvers,
//     replicated simulation with confidence intervals (SimResult), cost
//     optimisation, capacity planning and canonical fingerprints;
//   - internal/service — the evaluation engine: a bounded worker pool with
//     an LRU solver cache keyed by System.Fingerprint and a separate
//     simulation cache keyed by (fingerprint, seed, precision), shared by
//     the figures package, the benchmarks and mus-serve;
//   - internal/service/jobs — the asynchronous job scheduler over the
//     engine: durable-in-memory records with a queued → running →
//     done/failed/canceled state machine, progress counters, a bounded
//     queue with queue_full backpressure, per-job cancelation, graceful
//     Drain and TTL garbage collection;
//   - internal/cluster — the multi-node tier federating N mus-serve
//     daemons into one sharded service: a rendezvous hash ring over
//     System.Fingerprint (internal/cluster/ring), a health-probed node
//     registry with up/down state, a forwarding proxy for single-point
//     requests and point-wise sweep scatter/gather with deterministic
//     failover — same fingerprint, same node, so each node's solver
//     cache holds its shard of the keyspace instead of a copy of all of
//     it;
//   - internal/qbd — the server model, from one server's description:
//     the operational modes (eq. 12), their transitions (eq. 9) and the
//     capacity that decides stability (eq. 11); and the spectral-expansion
//     solver (paper §3.1), the geometric heavy-traffic approximation
//     (§3.2), a matrix-geometric baseline and a truncated-chain oracle;
//   - internal/markov — the paper's server as that one-server description
//     (eq. 9);
//   - internal/dist, internal/stats, internal/optimize — the §2 statistics
//     (hyperexponential fitting, histograms, Kolmogorov–Smirnov) plus the
//     Student-t confidence intervals behind the replicated simulator;
//   - internal/dataset — a synthetic stand-in for the proprietary Sun
//     breakdown log;
//   - internal/sim — the discrete-event simulator: single runs (Figure 6's
//     C² = 0 point) and the parallel independent-replications engine with
//     per-replication RNG streams and relative-precision stopping;
//   - internal/figures — one experiment per paper figure, with every
//     analytical sweep routed through the evaluation engine and a
//     SimAgreement experiment checking CI coverage of the exact solution;
//   - cmd/* — CLI tools (mus-solve and mus-sim accept -server to run
//     against a remote daemon through the client SDK, and -async to route
//     large workloads through the job API) and the mus-serve HTTP daemon
//     (/v1/solve, /v1/sweep with NDJSON streaming, /v1/optimize,
//     /v1/simulate, the /v1/jobs asynchronous job API, /v1/stats,
//     /v1/cluster, /v1/healthz; -peers/-node-id federate daemons into a
//     sharded cluster, and SIGTERM drains gracefully within
//     -drain-timeout);
//     examples/* — runnable walkthroughs; tools/* — the CI documentation
//     gates.
//
// bench_test.go regenerates every figure of the evaluation as a Go
// benchmark, including BenchmarkReplications (parallel simulation
// speedup).
//
// Repository guides: ARCHITECTURE.md (package map and request data flow),
// EXPERIMENTS.md (paper-vs-measured record, simulated-vs-analytical
// agreement), ROADMAP.md (direction), README.md (usage and the full
// mus-serve API reference).
package repro
