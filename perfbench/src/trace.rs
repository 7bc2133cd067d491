//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out when the run ends.
//!
//! A span has a name (`<layer>.<what>`), a start and an end, the span that
//! caused it, and a group id shared by every span of one seed or one job.
//! A disabled tracer records nothing and reads no clock.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub sid: u64,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// The seed or job this span belongs to.
    pub group: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Start, in nanoseconds since the origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has begun; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    sid: u64,
    name: &'static str,
    group: u64,
    parent: Option<u64>,
    start_ns: u64,
}

impl Open {
    /// The id children of this span name as their parent (`None` when the
    /// tracer is disabled).
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        (self.sid != 0).then_some(self.sid)
    }
}

/// A thread-safe span buffer shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose times count from `origin`.
    #[must_use]
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Begin a span now.
    #[must_use]
    pub fn begin(&self, name: &'static str, group: u64, parent: Option<u64>) -> Open {
        if !self.enabled {
            return Open {
                sid: 0,
                name,
                group,
                parent,
                start_ns: 0,
            };
        }
        Open {
            // Relaxed: ids only need uniqueness.
            sid: self.next.fetch_add(1, Ordering::Relaxed),
            name,
            group,
            parent,
            start_ns: self.ns(Instant::now()),
        }
    }

    /// Close `open` now.
    pub fn end(&self, open: Open) {
        if self.enabled {
            let end_ns = self.ns(Instant::now());
            self.push(Span {
                sid: open.sid,
                name: open.name,
                group: open.group,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        let open = self.begin(name, group, parent);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Record a span from instants the benchmark took anyway; returns its
    /// id for children.
    pub fn record(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        // Relaxed: ids only need uniqueness.
        let sid = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            sid,
            name,
            group,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(sid)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Every span recorded so far, ordered by id.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer poisoned").clone();
        spans.sort_by_key(|s| s.sid);
        spans
    }
}

/// Self time and span count per layer.  A span's self time is its duration
/// minus the part of it that its children cover.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut layers = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.sid)
            .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
        let entry = layers.entry(span.layer()).or_insert((0.0, 0));
        entry.0 += span.duration_ns().saturating_sub(covered) as f64 * 1e-9;
        entry.1 += 1;
    }
    layers
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// The spans as JSON lines.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"sid\":{},\"name\":\"{}\",\"group\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.sid, s.name, s.group, parent, s.start_ns, s.end_ns
        );
    }
    out
}
