//! `ghosts-serve` — a dependency-free estimation server.
//!
//! The paper's workload is query-shaped: a small, enumerable universe of
//! expensive-to-compute, cheap-to-cache results (stratified estimates per
//! RIR/country/prefix size over quarterly-stepped windows, §3.4/§4.3–4.4).
//! This crate turns the estimator into a long-lived process that serves
//! those queries over HTTP/1.1 on nothing but `std::net`:
//!
//! * `POST /v1/estimate` — inline contingency tables or backend
//!   window/strata requests, with a [`request`]-validated subset of
//!   `CrConfig` knobs;
//! * `GET /v1/membership/<addr>` — routed/bogon/observed lookups: one
//!   descent of the routed table's `PrefixPlane` trie for the longest
//!   match plus a single bit test of the observed union's segmented
//!   bitmap plane (`ghosts_addrplane`);
//! * `GET /healthz`, `GET /manifest`, `GET /metrics` — liveness, a
//!   `ghosts-manifest/2` document, and a text exposition of the hub's
//!   cumulative `ghosts_obs` registry, request traces folded in.
//!
//! Three mechanisms make it production-shaped (DESIGN.md §12):
//!
//! 1. **Content-addressed caching** ([`digest`], [`cache`]): requests are
//!    canonicalised and FNV-hashed; the digest keys an in-memory LRU plus
//!    an optional on-disk spill, so identical queries are byte-identical
//!    replays.
//! 2. **Single flight** ([`coalesce`]): concurrent digest-equal requests
//!    run the estimator once; waiters replay the leader's bytes.
//! 3. **Load shedding** ([`server`]): a bounded accept queue answers
//!    `503` + `Retry-After` at the door when full.
//!
//! Degraded estimates (PR 4's ladder) serve with HTTP `203` and the rung
//! in the body; handler panics (including fault-injected ones at
//! [`server::FAULT_SITE_HANDLER`]) answer `500` with a schema-valid
//! `ghosts-events` trace while the worker survives.
//!
//! PR 9 adds the **durable state plane** (DESIGN.md §16): `POST
//! /v1/observations` appends each batch's canonical payload to a
//! CRC-framed write-ahead log (`ghosts_durable`) and acks only after
//! fsync, with idempotency keys for exactly-once application, a bounded
//! ingest queue (`429` + `Retry-After`), periodic atomic checkpoints, and
//! `POST /v1/admin/drain` for a checkpoint-then-exit shutdown. Restart
//! recovery (newest valid checkpoint + WAL suffix) rebuilds the exact
//! acked state — `kill -9` at any instant loses no acknowledged batch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod client;
pub mod coalesce;
pub mod digest;
pub mod http;
pub mod ingest;
pub mod metrics;
pub mod request;
pub mod server;

pub use backend::{Backend, BackendError, InlineBackend, Membership, TableSpec};
pub use cache::{CachedResponse, EstimateCache, Lookup};
pub use ingest::{Applied, IngestStore, ObservationBatch};
pub use metrics::MetricsHub;
pub use request::EstimateRequest;
pub use server::{Server, ServerConfig, ServerHandle};
