//! # ghosts-obs
//!
//! The observability layer of the *Capturing Ghosts* reproduction:
//! deterministic tracing, metrics and run manifests for every estimation
//! entry point (DESIGN.md §10).
//!
//! The estimation pipeline is required to be **bit-deterministic** — the
//! ghost-lint `nondeterminism` rule bans wall clocks and OS randomness from
//! library code, and the parallel engine guarantees `threads = 1` and
//! `threads = N` produce identical bytes. This crate extends that guarantee
//! to introspection: with tracing enabled, the JSONL event log of a run is
//! itself byte-identical at every thread count. Three design rules make
//! that true by construction:
//!
//! 1. **Clocks are capabilities.** Library code never reads time directly;
//!    it goes through the [`Clock`] trait. [`LogicalClock`] (a monotonic
//!    event counter) is what libraries and tests use; [`wall::WallClock`]
//!    wraps a real `std::time::Instant` and may only be constructed by
//!    binaries and benches (enforced by ghost-lint's `obs-clock` rule).
//! 2. **Two lanes.** Deterministic data (spans, events, counters,
//!    [`LogLinearHist`] histograms) feeds the JSONL trace and is a pure
//!    function of the input. Runtime facts (wall-clock durations, worker
//!    counts, queue stats) go to the *volatile* lane, which only ever
//!    reaches the [`RunManifest`] — never the trace.
//! 3. **Deterministic merge.** The sink shards by span identity, every
//!    span's events are appended in program order by the single logical
//!    task that owns the span, and the flush serialises spans in path
//!    order — so thread scheduling cannot reorder a single byte.
//!
//! The no-op [`Recorder`] (the default) is a branch on an `Option`, not a
//! lock: instrumented hot paths cost nothing when tracing is off.
//!
//! ## Quick example
//!
//! ```
//! use ghosts_obs::{FieldValue, LogicalClock, Recorder};
//! use std::sync::Arc;
//!
//! let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
//! let span = rec.root("demo");
//! span.event("hello", &[("answer", FieldValue::U64(42))]);
//! rec.add("demo.events", 1);
//! let log = rec.flush();
//! assert!(log.to_jsonl().contains("\"answer\":42"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod json;
pub mod manifest;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod schema;
pub mod sketch;
pub mod wall;

pub use clock::{Clock, LogicalClock};
pub use manifest::{Record, RunManifest};
pub use profile::{StageGuard, StageProfiler, StageRow, StageTable};
pub use recorder::{EventKind, EventLog, EventRecord, FieldValue, Recorder, Scope, SpanPath};
pub use registry::{Counter, Histogram, Registry, RegistrySnapshot};
pub use ring::{EpochRing, TailClass, TailEntry, TailRing, TailStats};
pub use schema::{validate_event_line, validate_jsonl, EVENTS_SCHEMA};
pub use sketch::{LogLinearHist, RELATIVE_ERROR, SUB_BITS, SUB_BUCKETS};
pub use wall::WallClock;
