//! Structured per-request tracing: a span tree recorded by a [`Tracer`],
//! finished into an owned [`Trace`], exportable as Chrome `trace_event` JSON.
//!
//! The design point is *zero cost when disabled*: a disabled tracer is a
//! `None`, [`Tracer::span`] returns an inert guard without reading the clock
//! or converting the name, and the hot path pays two branch instructions.
//! When enabled, spans are appended to a flat `Vec` guarded by a `RefCell`;
//! the tracer is `Rc`-shared (one evaluation runs on one thread — the same
//! contract as the engine's `ExecCtl` poll counter), while the finished
//! [`Trace`] is plain owned data that crosses threads freely.
//!
//! Nesting comes from a stack of open spans: a span created while another is
//! open becomes its child.  Guards may drop out of creation order (the stack
//! self-repairs), but the intended discipline is strict RAII nesting.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One recorded span: a named, timed interval in the request's span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Human-readable stage or operator name (`request`, `candidates`,
    /// `prune_down u2`, ...).  Static stage names are borrowed, so opening
    /// a fixed-name span allocates nothing.
    pub name: Cow<'static, str>,
    /// Index of the parent span in [`Trace::spans`]; `None` for roots.
    pub parent: Option<usize>,
    /// Offset from the tracer's creation instant to the span's start.
    pub start: Duration,
    /// Span duration (zero until the guard drops).
    pub dur: Duration,
    /// Attached key/value annotations (operator estimates, row counts, ...).
    pub fields: Vec<(&'static str, String)>,
}

#[derive(Debug, Default)]
struct TraceData {
    spans: Vec<Span>,
    /// Stack of open span indices; the top is the parent of the next span.
    open: Vec<usize>,
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    data: RefCell<TraceData>,
}

/// Records a span tree for one request; cheap to clone and share across the
/// stages of one (single-threaded) evaluation.
///
/// ```
/// use gtpq_obs::Tracer;
///
/// let tracer = Tracer::enabled();
/// {
///     let request = tracer.span("request");
///     let stage = tracer.span("candidates");
///     stage.field("est_rows", 42);
///     drop(stage);
///     drop(request);
/// }
/// let trace = tracer.finish().unwrap();
/// assert_eq!(trace.spans.len(), 2);
/// assert_eq!(trace.spans[1].parent, Some(0));
/// assert!(Tracer::disabled().finish().is_none());
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<TracerInner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(
                f,
                "Tracer(enabled, {} spans)",
                inner.data.borrow().spans.len()
            ),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A no-op tracer: every [`span`](Self::span) is inert,
    /// [`finish`](Self::finish) returns `None`.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A recording tracer; its epoch (span offsets are relative to it) is
    /// the moment of this call.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Rc::new(TracerInner {
                epoch: Instant::now(),
                data: RefCell::new(TraceData {
                    // Typical request traces run a few dozen spans; reserving
                    // up front keeps span recording reallocation-free.
                    spans: Vec::with_capacity(32),
                    open: Vec::with_capacity(8),
                }),
            })),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it closes (and records its duration) when the returned
    /// guard drops.  The currently open span, if any, becomes its parent.
    ///
    /// Disabled tracers return an inert guard without converting `name` or
    /// reading the clock; enabled tracers borrow static names, so fixed-name
    /// spans allocate nothing.
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { inner: None };
        };
        let start = inner.epoch.elapsed();
        let mut data = inner.data.borrow_mut();
        let parent = data.open.last().copied();
        let idx = data.spans.len();
        data.spans.push(Span {
            name: name.into(),
            parent,
            start,
            dur: Duration::ZERO,
            fields: Vec::new(),
        });
        data.open.push(idx);
        SpanGuard {
            inner: Some((Rc::clone(inner), idx)),
        }
    }

    /// Like [`span`](Self::span) but the name is built lazily — use for
    /// `format!`ed per-operator names so a disabled tracer allocates nothing.
    pub fn span_with(&self, name: impl FnOnce() -> String) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard { inner: None };
        }
        self.span(name())
    }

    /// Snapshots the recorded spans into an owned [`Trace`] (`None` for a
    /// disabled tracer).  Open spans are closed as of now.
    ///
    /// When this is the last clone of the tracer the spans are moved out
    /// without copying; otherwise they are cloned (the recording keeps
    /// going for the remaining clones).
    pub fn finish(self) -> Option<Trace> {
        let inner = self.inner?;
        let now = inner.epoch.elapsed();
        let mut data = match Rc::try_unwrap(inner) {
            Ok(inner) => inner.data.into_inner(),
            Err(inner) => {
                let data = inner.data.borrow();
                TraceData {
                    spans: data.spans.clone(),
                    open: data.open.clone(),
                }
            }
        };
        for idx in std::mem::take(&mut data.open) {
            let span = &mut data.spans[idx];
            span.dur = now.saturating_sub(span.start);
        }
        Some(Trace { spans: data.spans })
    }
}

/// RAII guard of one open span: records the duration on drop.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard {
    inner: Option<(Rc<TracerInner>, usize)>,
}

impl SpanGuard {
    /// Attaches a key/value annotation to the span (no-op on inert guards).
    pub fn field(&self, name: &'static str, value: impl fmt::Display) {
        if let Some((inner, idx)) = &self.inner {
            inner.data.borrow_mut().spans[*idx]
                .fields
                .push((name, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((inner, idx)) = self.inner.take() {
            let now = inner.epoch.elapsed();
            let mut data = inner.data.borrow_mut();
            let span = &mut data.spans[idx];
            span.dur = now.saturating_sub(span.start);
            // Usually the top of the stack; out-of-order drops close every
            // span opened after this one (their guards record durations on
            // their own drop, parentage is already fixed).
            if let Some(pos) = data.open.iter().rposition(|&i| i == idx) {
                data.open.truncate(pos);
            }
        }
    }
}

/// A finished span tree: plain owned data, `Send`, attachable to a query
/// outcome and exportable for external viewers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// All recorded spans, in creation order (parents before children).
    pub spans: Vec<Span>,
}

impl Trace {
    /// The first root span (no parent), if any — by convention the
    /// service's `request` span.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// The first span with the given name.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The children of span `idx`, in creation order.
    pub fn children_of(&self, idx: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(idx))
    }

    /// Renders the tree as indented text (one span per line, with duration
    /// and fields) — what the CLI's `:trace` shows.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for (idx, span) in self.spans.iter().enumerate() {
            if span.parent.is_none() {
                self.render_node(idx, 0, &mut out);
            }
        }
        out
    }

    fn render_node(&self, idx: usize, depth: usize, out: &mut String) {
        use std::fmt::Write as _;
        let span = &self.spans[idx];
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(out, "{} {:?}", span.name, span.dur);
        for (k, v) in &span.fields {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
        for (child, span) in self.spans.iter().enumerate() {
            if span.parent == Some(idx) {
                self.render_node(child, depth + 1, out);
            }
        }
    }

    /// Exports the tree in Chrome `trace_event` JSON (complete `"X"` events,
    /// microsecond timestamps), loadable in `about:tracing` or Perfetto.
    ///
    /// Every event carries `name`, `ph`, `ts`, `dur`, `pid`, `tid`; span
    /// fields become the event's `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            use std::fmt::Write as _;
            if i > 0 {
                out.push(',');
            }
            let ts = span.start.as_nanos() as f64 / 1000.0;
            let dur = span.dur.as_nanos() as f64 / 1000.0;
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"gtpq\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":1",
                escape_json(&span.name)
            );
            if !span.fields.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in span.fields.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{}:{}", escape_json(k), escape_json(v));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Encodes `s` as a JSON string literal (quotes included).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let guard = tracer.span("anything");
        guard.field("k", 1);
        drop(guard);
        // Lazy names are never built.
        let _ = tracer.span_with(|| unreachable!("disabled tracer must not build names"));
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn spans_nest_by_open_stack() {
        let tracer = Tracer::enabled();
        let root = tracer.span("request");
        let a = tracer.span("a");
        drop(a);
        let b = tracer.span_with(|| "b".to_owned());
        b.field("rows", 7);
        drop(b);
        drop(root);
        let sibling = tracer.span("second_root");
        drop(sibling);
        let trace = tracer.finish().unwrap();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[2].parent, Some(0));
        assert_eq!(trace.spans[3].parent, None);
        assert_eq!(trace.spans[2].fields, vec![("rows", "7".to_owned())]);
        assert_eq!(trace.root().unwrap().name, "request");
        assert_eq!(trace.children_of(0).count(), 2);
        // Children start within the parent and end no later than it does.
        let root = &trace.spans[0];
        for child in trace.children_of(0) {
            assert!(child.start >= root.start);
            assert!(child.start + child.dur <= root.start + root.dur);
        }
    }

    #[test]
    fn out_of_order_drops_self_repair() {
        let tracer = Tracer::enabled();
        let a = tracer.span("a");
        let b = tracer.span("b");
        drop(a); // closes `a` while `b` is still open
        drop(b);
        let c = tracer.span("c");
        drop(c);
        let trace = tracer.finish().unwrap();
        assert_eq!(trace.spans[2].parent, None, "stack was repaired");
    }

    #[test]
    fn finish_closes_open_spans() {
        let tracer = Tracer::enabled();
        let _guard = tracer.span("open");
        std::thread::sleep(Duration::from_millis(1));
        let trace = tracer.finish().unwrap();
        assert!(trace.spans[0].dur >= Duration::from_millis(1));
    }

    #[test]
    fn render_tree_indents_children() {
        let tracer = Tracer::enabled();
        let root = tracer.span("request");
        drop(tracer.span("child"));
        drop(root);
        let rendered = tracer.finish().unwrap().render_tree();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].starts_with("request "));
        assert!(lines[1].starts_with("  child "));
    }

    #[test]
    fn chrome_export_has_required_keys_and_escapes() {
        let tracer = Tracer::enabled();
        let span = tracer.span("weird \"name\"\n");
        span.field("est_rows", 3);
        drop(span);
        let json = tracer.finish().unwrap().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"traceEvents\"",
            "\"name\"",
            "\"ph\":\"X\"",
            "\"ts\"",
            "\"dur\"",
            "\"pid\"",
            "\"tid\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("weird \\\"name\\\"\\n"));
        assert!(json.contains("\"args\":{\"est_rows\":\"3\"}"));
    }
}
