//! In-memory spans recorded by the harness around each call into a layer.
//!
//! A span has a name (the layer), an id (window, stratum or request
//! index), a parent, and start and end times. Spans are kept in memory and
//! written out as JSONL when the run ends. A span's self time is its
//! duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span recorder. A disabled tracer records nothing and costs one branch
/// per call, so the timed runs carry no tracing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, id: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_us = self.now_us();
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            id,
            parent,
            start_us,
            end_us: f64::NAN,
        });
        spans.len() - 1
    }

    pub fn close(&self, span: SpanId) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        self.spans.lock().expect("span list lock")[span].end_us = end_us;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(
        &self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}\n",
                s.name, s.id, s.start_us, s.end_us
            ));
        }
        std::fs::write(path, out)
    }
}

/// Self time per span: its duration minus the union of its children's
/// intervals (children may overlap when they ran on different threads).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_us));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.dur_us() - covered).max(0.0)
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        *out.entry(s.name).or_insert(0.0) += self_us / 1e6;
    }
    out
}

/// The share of `root`'s duration covered by its descendants' self time,
/// and a description of the largest uncovered gaps between its children.
pub fn coverage(spans: &[Span], root: SpanId) -> (f64, String) {
    let root_span = &spans[root];
    let self_us = self_times_us(spans)[root];
    let share = 1.0 - self_us / root_span.dur_us();
    let mut kids: Vec<&Span> = spans.iter().filter(|s| s.parent == Some(root)).collect();
    kids.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    let mut gaps: Vec<(f64, String)> = Vec::new();
    let mut prev_end = root_span.start_us;
    let mut prev_name = "start".to_string();
    for k in kids.iter().copied().chain(std::iter::once(&Span {
        name: "end",
        id: 0,
        parent: None,
        start_us: root_span.end_us,
        end_us: root_span.end_us,
    })) {
        let gap = k.start_us - prev_end;
        if gap > 0.0 {
            gaps.push((gap, format!("{prev_name} -> {}[{}]", k.name, k.id)));
        }
        if k.end_us > prev_end {
            prev_end = k.end_us;
            prev_name = format!("{}[{}]", k.name, k.id);
        }
    }
    gaps.sort_by(|a, b| b.0.total_cmp(&a.0));
    let named: Vec<String> = gaps
        .iter()
        .take(3)
        .map(|(us, at)| format!("{:.1} ms between {at}", us / 1e3))
        .collect();
    (
        share,
        format!(
            "uncovered {:.1} ms of {:.1} ms; largest gaps: {}",
            self_us / 1e3,
            root_span.dur_us() / 1e3,
            named.join("; ")
        ),
    )
}
