//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. Each span records its name, start, end, parent and
//! the round it belongs to. Spans stay in memory until the run ends and
//! are then written as JSON and as collapsed stacks (`frame;frame value`,
//! the format `mcs-obs report --flame` emits). A disabled recorder does
//! nothing beyond one branch per call, so timed runs use the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Handle of an open span; closing a disabled recorder's handle is a
/// no-op.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn begin(&self, name: &'static str, round: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        let id = inner.spans.len();
        inner.spans.push(Span {
            name,
            round,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        inner.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span` and returns its duration in ns (0 when disabled).
    pub fn end(&self, span: SpanId) -> u64 {
        let Some(id) = span.0 else { return 0 };
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let popped = inner.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut inner.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, round: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, round);
        let out = f();
        self.end(id);
        out
    }

    /// `(count, total ns)` of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + (s.end_ns - s.start_ns)))
    }

    /// Self time per stack path (`root;…;leaf`): a span's duration minus
    /// the part its children cover.
    pub fn self_times(&self, root: &str) -> BTreeMap<String, u64> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for span in &inner.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut paths: Vec<String> = Vec::with_capacity(inner.spans.len());
        let mut out = BTreeMap::new();
        for (id, span) in inner.spans.iter().enumerate() {
            // Parents always precede their children.
            let path = match span.parent {
                Some(parent) => format!("{};{}", paths[parent], span.name),
                None => format!("{root};{}", span.name),
            };
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[id]);
            *out.entry(path.clone()).or_insert(0) += own;
            paths.push(path);
        }
        out
    }

    /// Writes `<stem>.spans.json` and `<stem>.folded` under `dir`.
    pub fn write(&self, dir: &std::path::Path, stem: &str, root: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let inner = self.inner.borrow();
        let mut json = String::from("[\n");
        for (id, span) in inner.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                json,
                "{{\"id\":{id},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.round, span.start_ns, span.end_ns
            );
            json.push_str(if id + 1 < inner.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        json.push_str("]\n");
        drop(inner);
        std::fs::write(dir.join(format!("{stem}.spans.json")), json)?;
        let mut folded = String::new();
        for (path, ns) in self.self_times(root) {
            let _ = writeln!(folded, "{path} {ns}");
        }
        std::fs::write(dir.join(format!("{stem}.folded")), folded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        let outer = tracer.begin("round", 0);
        tracer.span("drain", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.end(outer);
        let times = tracer.self_times("wl");
        let (_, total) = tracer.total("round");
        let drain = times["wl;round;drain"];
        assert!(drain >= 2_000_000);
        assert_eq!(times["wl;round"] + drain, total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.begin("round", 0);
        assert_eq!(tracer.end(id), 0);
        assert!(tracer.self_times("wl").is_empty());
    }
}
