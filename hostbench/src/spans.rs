//! In-memory host-time spans recorded around calls into each layer.
//!
//! A span is (layer, start, end, parent, cell id). Spans are recorded only
//! by the benchmark's own code, around public calls into the workspace's
//! crates — nothing inside the simulators is instrumented. A disarmed
//! [`Tracer`] runs the wrapped closure and records nothing, which is how
//! the untraced end-to-end runs stay free of tracing cost.
//!
//! Two views of the recorded tree:
//!
//! * [`self_times`] — a span's duration minus the part of its interval
//!   its child spans cover, summed per layer. Parallel work counts once
//!   per thread (thread-seconds).
//! * [`attributed`] — wall-clock attribution: at every instant the wall
//!   time is split evenly between the spans currently running their own
//!   code (not waiting on a child), so the per-layer figures add up to
//!   the traced run's wall time exactly, whatever the thread count.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// No parent / no cell.
pub const NONE: u32 = 0;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u32,
    /// The causing span's id, or [`NONE`].
    pub parent: u32,
    /// The layer (a crate-qualified call site, e.g. `sim.perf`).
    pub layer: &'static str,
    /// The sweep cell this span belongs to (cell index + 1), or [`NONE`].
    pub cell: u32,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<u32> = const { Cell::new(NONE) };
}

/// Records spans when armed; a transparent pass-through when not.
#[derive(Debug)]
pub struct Tracer {
    armed: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Restores the thread's current span even if the closure panics (sweep
/// cells run crash-isolated).
struct Restore(u32);

impl Drop for Restore {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.0));
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(armed: bool) -> Self {
        Tracer {
            armed,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// The innermost open span on the calling thread.
    pub fn current(&self) -> u32 {
        CURRENT.with(Cell::get)
    }

    /// Runs `f` inside a span of `layer`, parented to the calling
    /// thread's current span.
    pub fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_under(self.current(), layer, NONE, f)
    }

    /// Runs `f` inside a span of `layer` with an explicit parent and cell
    /// id — for work handed to another thread (sweep cells on workers).
    pub fn span_under<R>(
        &self,
        parent: u32,
        layer: &'static str,
        cell: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.armed {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let _restore = Restore(CURRENT.with(|c| c.replace(id)));
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .push(Span {
                id,
                parent,
                layer,
                cell,
                start,
                end,
            });
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The intervals of `span` not covered by any of its children.
fn self_intervals(span: &Span, children: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted = children.to_vec();
    sorted.sort_unstable();
    let mut out = Vec::new();
    let mut cursor = span.start;
    for (s, e) in sorted {
        let (s, e) = (s.max(span.start), e.min(span.end));
        if s > cursor {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if span.end > cursor {
        out.push((cursor, span.end));
    }
    out
}

fn children_of(spans: &[Span]) -> BTreeMap<u32, Vec<(u64, u64)>> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NONE {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    children
}

/// Per-layer self time in seconds: each span's duration minus the part
/// of its interval covered by its children (thread-seconds).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let children = children_of(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let own = (s.end - s.start) - covered(kids, s.start, s.end);
        *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Per-layer wall-clock attribution in seconds: the wall time of every
/// instant is split evenly among the spans running their own code at
/// that instant. The values sum to the wall time the spans cover.
pub fn attributed(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let children = children_of(spans);
    // (time, +1 open / -1 close, layer)
    let mut events: Vec<(u64, i32, &'static str)> = Vec::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        for (a, b) in self_intervals(s, kids) {
            events.push((a, 1, s.layer));
            events.push((b, -1, s.layer));
        }
    }
    events.sort_unstable_by_key(|&(t, d, _)| (t, d));
    let mut active: BTreeMap<&'static str, i64> = BTreeMap::new();
    let mut total_active: i64 = 0;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last = events.first().map_or(0, |e| e.0);
    for (t, delta, layer) in events {
        if t > last && total_active > 0 {
            let dt = (t - last) as f64 / 1e9;
            for (&l, &n) in &active {
                if n > 0 {
                    *out.entry(l).or_insert(0.0) += dt * n as f64 / total_active as f64;
                }
            }
        }
        last = t;
        *active.entry(layer).or_insert(0) += i64::from(delta);
        total_active += i64::from(delta);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            cell: NONE,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) has children [10,30) and [20,50) (overlapping, on
        // two threads) and [60,70); the grandchild [12,18) sits in the
        // first child.
        let spans = [
            span(1, NONE, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "a", 20, 50),
            span(4, 1, "b", 60, 70),
            span(5, 2, "c", 12, 18),
        ];
        let st = self_times(&spans);
        // root: 100 - |[10,50) ∪ [60,70)| = 100 - 50 = 50
        assert_eq!(st["root"], 50e-9);
        // a: (20 - 6) + 30 = 44
        assert_eq!(st["a"], 44e-9);
        assert_eq!(st["b"], 10e-9);
        assert_eq!(st["c"], 6e-9);
    }

    #[test]
    fn attribution_splits_parallel_time_and_sums_to_wall() {
        let spans = [
            span(1, NONE, "root", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "a", 20, 50),
            span(4, 1, "b", 60, 70),
            span(5, 2, "c", 12, 18),
        ];
        let at = attributed(&spans);
        let total: f64 = at.values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "{total}");
        // [10,12) a; [12,18) c; [18,20) a; [20,30) two a's; [30,50) a.
        assert!((at["a"] - 34e-9).abs() < 1e-15, "{at:?}");
        assert!((at["c"] - 6e-9).abs() < 1e-15);
        assert!((at["b"] - 10e-9).abs() < 1e-15);
        assert!((at["root"] - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn attribution_shares_wall_between_concurrent_layers() {
        // Two threads busy in different layers for the same 40 ns.
        let spans = [
            span(1, NONE, "root", 0, 40),
            span(2, 1, "x", 0, 40),
            span(3, 1, "y", 0, 40),
        ];
        let at = attributed(&spans);
        assert!((at["x"] - 20e-9).abs() < 1e-15);
        assert!((at["y"] - 20e-9).abs() < 1e-15);
        assert!(!at.contains_key("root") || at["root"] == 0.0);
    }

    #[test]
    fn tracer_nests_by_thread_and_disarmed_records_nothing() {
        let tr = Tracer::on();
        let v = tr.span("outer", || tr.span("inner", || 7));
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.layer == "inner").unwrap();
        let outer = spans.iter().find(|s| s.layer == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, NONE);
        assert!(outer.start <= inner.start && inner.end <= outer.end);
        assert_eq!(tr.current(), NONE, "restored after the span closes");

        let off = Tracer::off();
        assert_eq!(off.span("outer", || 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn panicking_span_restores_the_current_span() {
        let tr = Tracer::on();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tr.span("boom", || panic!("cell crashed"))
        }));
        assert!(caught.is_err());
        assert_eq!(tr.current(), NONE);
    }
}
