//! Shared scaffolding for the serve crate's loopback tests: a canned
//! inline backend over public address space, and a gated backend whose
//! `resolve` blocks until the test opens a latch (for single-flight and
//! shedding scenarios).

// Each test binary compiles this module separately and uses a different
// subset of it.
#![allow(dead_code)]

use ghosts_net::{AddrSet, RoutedTable};
use ghosts_serve::backend::{Backend, BackendError, Membership, TableSpec};
use ghosts_serve::{
    EstimateRequest, InlineBackend, MetricsHub, Server, ServerConfig, ServerHandle,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Three overlapping sources in 8.0.0.0/8 — enough signal for a clean
/// three-source estimate.
pub fn inline_backend() -> Arc<InlineBackend> {
    let routed = RoutedTable::from_prefixes(["8.0.0.0/8".parse().expect("prefix")]);
    let mut a = AddrSet::new();
    let mut b = AddrSet::new();
    let mut c = AddrSet::new();
    for i in 0..4000u32 {
        let addr = 0x0800_0000 + i * 7;
        if i % 2 == 0 {
            a.insert(addr);
        }
        if i % 3 != 1 {
            b.insert(addr);
        }
        if i % 5 < 3 {
            c.insert(addr);
        }
    }
    Arc::new(InlineBackend::new(routed, vec![a, b, c]))
}

/// Starts a server over [`inline_backend`] with the given worker count.
pub fn start(workers: usize) -> ServerHandle {
    start_with(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
}

/// Starts a server over [`inline_backend`] with a custom config.
pub fn start_with(config: ServerConfig) -> ServerHandle {
    Server::bind(config, inline_backend(), MetricsHub::wall()).expect("bind loopback")
}

/// The `/metrics` series name of an internal metric name: dotted (and
/// slashed) names are sanitised to `snake_case`.
pub fn series(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Reads one lifetime counter out of a `/metrics` body; the plain
/// (label-free) line is the cumulative total.
pub fn counter(metrics_text: &str, name: &str) -> u64 {
    let prefix = format!("{} ", series(name));
    metrics_text
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |v| v.parse().expect("counter value"))
}

/// A latch: `wait` blocks until `open` is called; stays open after.
pub struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    pub fn open(&self) {
        let mut open = self.open.lock().expect("gate lock");
        *open = true;
        self.cv.notify_all();
    }

    pub fn wait(&self) {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.cv.wait(open).expect("gate wait");
        }
    }
}

/// Wraps the inline backend so every `resolve` blocks on a gate and
/// counts entries — lets tests hold the estimator mid-flight.
pub struct GatedBackend {
    pub inner: Arc<InlineBackend>,
    pub gate: Arc<Gate>,
    pub entered: AtomicUsize,
}

impl GatedBackend {
    pub fn new(gate: Arc<Gate>) -> Arc<Self> {
        Arc::new(Self {
            inner: inline_backend(),
            gate,
            entered: AtomicUsize::new(0),
        })
    }
}

impl Backend for GatedBackend {
    fn resolve(&self, request: &EstimateRequest) -> Result<TableSpec, BackendError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        self.gate.wait();
        self.inner.resolve(request)
    }

    fn membership(&self, addr: u32) -> Membership {
        self.inner.membership(addr)
    }

    fn info(&self) -> Vec<(String, String)> {
        self.inner.info()
    }
}
