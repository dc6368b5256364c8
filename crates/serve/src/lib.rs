//! `oov-serve`: a long-lived, sharded simulation server.
//!
//! The paper's evaluation — and every parameter study a reproduction
//! like this invites — is a large grid of (program × machine
//! configuration) simulation requests. Rerunning the harness
//! recompiles the ten-kernel suite and resimulates every point from
//! scratch each time. This crate turns the harness into a *service*:
//! a daemon that compiles each [`Scale`](oov_kernels::Scale)'s suite
//! exactly once, caches every simulation result by request
//! fingerprint, and answers many concurrent clients over a
//! dependency-free, newline-delimited JSON protocol.
//!
//! # Architecture
//!
//! ```text
//!  client ──TCP──▶ acceptor ──▶ connection thread (1 per client)
//!                                   │ parse line → Request
//!                                   │ route by request fingerprint
//!                                   ▼
//!                    ┌─────────┬─────────┬─────────┐
//!                    │ shard 0 │ shard 1 │  ... N  │   worker threads
//!                    │ result  │ result  │ result  │   (mpsc queues)
//!                    │ cache   │ cache   │ cache   │
//!                    └────┬────┴────┬────┴────┬────┘
//!                         └── suite cache (one compile per scale) ──┘
//! ```
//!
//! * **Sharding.** Each request is routed to one of N worker shards by
//!   its full request fingerprint ([`SimRequest::fingerprint`]), so
//!   identical requests always land on the same shard and its result
//!   cache needs no cross-shard coordination (each shard owns a plain
//!   `HashMap`). Routing by the machine config alone would starve
//!   shards whenever the config pool is smaller than the shard count
//!   times a few; hashing the whole request keeps the shards balanced
//!   (the `stats` snapshot reports a `shard_balance` figure so skew is
//!   visible from any client).
//! * **Observability.** Every hot surface reports into an
//!   [`oov_obs::Registry`]: per-request-type latency histograms,
//!   per-shard service-time histograms, queue-depth and in-flight
//!   gauges, and the result-cache hit/miss/eviction counters. The
//!   `metrics` request returns the whole snapshot as JSON; `client
//!   metrics` renders it as a table.
//! * **Suite memoisation.** `Suite::compile(scale)` runs at most once
//!   per scale for the life of the process, behind a lazily-populated
//!   [`cache::SuiteCache`]; the compile counters are exported over the
//!   wire so load tests can *prove* memoisation happened.
//! * **Batching.** A `sweep` request fans its points out across the
//!   shards and streams rows back **in request order** (a small
//!   reorder buffer in the connection thread), so a client renders
//!   tables incrementally while later points still simulate.
//! * **Identical results.** Shards execute
//!   [`oov_bench::machine_run`] — the same helper the experiment
//!   harness uses — so a served result is bit-identical to a direct
//!   in-process simulation (the integration tests and `loadgen
//!   --verify` assert this).
//! * **Fault tolerance.** Every job runs inside `catch_unwind` (a
//!   panicking request answers a structured error; the shard keeps
//!   serving), a per-shard supervisor respawns dead worker threads,
//!   admission control sheds load with a retriable
//!   `Response::Overloaded` once a shard queue passes its cap,
//!   requests may carry a server-enforced `deadline_ms`, and shutdown
//!   drains in-flight sweeps up to a `--drain-ms` budget. The
//!   [`chaos`] module injects all of these failures deterministically
//!   (`serve --chaos` / `loadgen --chaos`); [`Client`] ships read
//!   timeouts and a jittered exponential-backoff
//!   [`client::RetryPolicy`].
//!
//! # Binaries
//!
//! * `serve` — the daemon: `serve --addr 127.0.0.1:7540 --shards 4`
//! * `client` — one-shot and sweep modes rendering the same tables as
//!   `oov-bench`
//! * `loadgen` — K concurrent clients × M requests; writes
//!   `BENCH_serve.json` with throughput, latency percentiles and cache
//!   hit rates

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod journal;
pub mod proto;
pub mod server;

pub use chaos::ChaosConfig;
pub use client::{Client, RetryPolicy, SimError, SweepOutcome};
pub use journal::CacheLine;
pub use proto::{Request, Response, SimRequest, SimResult, StatsSnapshot};
pub use server::{PersistOptions, ServeConfig, Server, ServerHandle};
