//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and a group: every span opened
//! while serving one request or one launch shares that request's group id.
//! Spans are recorded only while tracing is enabled (the untraced run pays
//! one atomic load per call), kept in memory, and written out when the run
//! ends. Spans may come from any thread: a span opened on a worker or
//! generator thread names its parent explicitly with [`span_under`], and
//! may overlap its siblings.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover (the union of the children, so
//! overlapping children are not counted twice).

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Id shared by every span of one request or launch.
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span, passed to other threads so their spans can name
/// it as parent.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Ctx {
    id: u64,
    group: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<Option<Ctx>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns recording on or off for subsequent spans.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The calling thread's innermost open span, if recording.
pub fn current() -> Option<Ctx> {
    CURRENT.with(Cell::get)
}

/// Runs `f` in a span that is a child of the thread's current span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_under(current(), name, f)
}

/// Runs `f` in a span that opens a new group (one request or launch), as
/// a child of the thread's current span.
pub fn group<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    group_under(current(), name, f)
}

/// [`group`] under an explicit parent (which may belong to another thread).
pub fn group_under<R>(parent: Option<Ctx>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    run_in(parent, true, |_| name, f)
}

/// Runs `f` in a span under an explicit parent (which may belong to another
/// thread).
pub fn span_under<R>(parent: Option<Ctx>, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    run_in(parent, false, |_| name, f)
}

/// Like [`span`], but the name is chosen from the result, for calls whose
/// layer is known only afterwards (a launch served by simulation, the memo
/// or the disk tier).
pub fn span_named<R>(name_of: impl FnOnce(&R) -> &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    run_in(current(), false, name_of, f)
}

fn run_in<R>(
    parent: Option<Ctx>,
    new_group: bool,
    name_of: impl FnOnce(&R) -> &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let group = match parent {
        Some(p) if !new_group => p.group,
        _ => id,
    };
    let outer = CURRENT.with(|c| c.replace(Some(Ctx { id, group })));
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    CURRENT.with(|c| c.set(outer));
    push(Span {
        id,
        parent: parent.map_or(0, |p| p.id),
        group,
        name: name_of(&r),
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    });
    r
}

/// Records an interval that was timed by the caller, as a child of
/// `parent` (for spans whose start is a schedule time, not a call).
pub fn record(parent: Option<Ctx>, name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent: parent.map_or(0, |p| p.id),
        group: parent.map_or(id, |p| p.group),
        name,
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    });
}

fn push(s: Span) {
    SPANS.lock().expect("span buffer poisoned").push(s);
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of each span, in nanoseconds, in input order.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            s.duration_ns() - covered_ns(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Summed self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Whether a span names a layer of the system (`layer.what`). Glue spans
/// without a layer prefix (a pass, an item, a request) are not layers, and
/// neither is the load generator (`gen.*`): its waits and input building
/// are the benchmark's own time.
fn is_layer(name: &str) -> bool {
    name.contains('.') && !name.starts_with("gen.")
}

/// Share of the spans named `root` covered by layer spans from any thread:
/// the part of the timed units the layer breakdown accounts for.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let layers: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| is_layer(s.name))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let (mut total, mut covered) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == root) {
        total += s.duration_ns();
        covered += covered_ns(layers.clone(), s.start_ns, s.end_ns);
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_self_time_subtracts_children() {
        // root [0,100) > a [10,40) > b [20,30); root > c [50,60)
        let spans = vec![
            sp(1, 0, "root", 0, 100),
            sp(2, 1, "apps.a", 10, 40),
            sp(3, 2, "sim.b", 20, 30),
            sp(4, 1, "item", 50, 60),
            sp(5, 1, "gen.wait", 60, 90),
        ];
        assert_eq!(self_ns(&spans), vec![30, 20, 10, 10, 30]);
        let by = self_seconds_by_name(&spans);
        assert!((by["root"] - 30e-9).abs() < 1e-15);
        // Only layer spans count as covered: "item" is glue and "gen.wait"
        // is the load generator.
        assert!((coverage(&spans, "root") - 0.3).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_from_other_threads_count_once() {
        // Two pool-thread children overlap each other and one outlives the
        // parent: the parent loses only the covered part of its interval.
        let spans = vec![
            sp(1, 0, "batch", 0, 100),
            sp(2, 1, "pool.task", 10, 70),
            sp(3, 1, "pool.task", 40, 90),
            sp(4, 1, "pool.task", 95, 130),
        ];
        let own = self_ns(&spans);
        assert_eq!(own[0], 100 - (80 + 5));
        assert_eq!(&own[1..], &[60, 50, 35]);
        // Per-layer self times may sum past the wall time when layers run in
        // parallel; coverage stays a share of the root.
        let by = self_seconds_by_name(&spans);
        assert!((by["pool.task"] - 145e-9).abs() < 1e-15);
        assert!((coverage(&spans, "batch") - 0.85).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_parents_groups_and_threads() {
        set_enabled(true);
        let _ = take();
        let mut worker_parent = None;
        group("req", || {
            worker_parent = current();
            span("inner", || ());
            std::thread::scope(|s| {
                s.spawn(|| span_under(worker_parent, "worker", || ()));
            });
        });
        span_named(|r: &u32| if *r == 1 { "one" } else { "other" }, || 1u32);
        set_enabled(false);
        span("ignored", || ());
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["inner", "worker", "req", "one"]);
        let req = &spans[2];
        assert_eq!(req.parent, 0);
        for child in &spans[..2] {
            assert_eq!(child.parent, req.id);
            assert_eq!(child.group, req.group);
        }
        assert_ne!(spans[3].group, req.group);
        assert!(req.start_ns <= spans[0].start_ns && spans[0].end_ns <= req.end_ns);
    }
}
