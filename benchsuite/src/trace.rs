//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only by the benchmark's own code (the thread that
//! drives a pass), never inside the library, so a span's duration is the
//! wall time of one public call. A layer's *self time* is its span's
//! duration minus the part its child spans cover; the root span of a pass
//! keeps as self time whatever no layer span covers (the unattributed
//! remainder).

use std::cell::RefCell;
use std::time::Instant;

use bitdissem_obs::json::Value;

/// One closed span: seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `markov.build`.
    pub name: &'static str,
    /// Start, in seconds since the tracer was created.
    pub start: f64,
    /// End, in seconds since the tracer was created.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread. A disabled tracer runs the wrapped
/// calls and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records spans.
    #[must_use]
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(false)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` and returns its result together
    /// with the span's index (`None` when disabled).
    pub fn span_indexed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            spans.push(Span { name, start, end: start, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed().as_secs_f64();
        (out, Some(idx))
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_indexed(name, f).0
    }

    /// A copy of every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of span `idx`: its duration minus the time its direct
/// children cover. Children never overlap (one thread records them), so
/// their durations add.
#[must_use]
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let children: f64 = spans.iter().filter(|s| s.parent == Some(idx)).map(Span::duration).sum();
    (spans[idx].duration() - children).max(0.0)
}

/// Summed self time of every span named `name` that lies under one of the
/// `roots` (at any depth); `0.0` when there is none.
#[must_use]
pub fn self_time_under(spans: &[Span], roots: &[usize], name: &str) -> f64 {
    // A fold from +0.0: an empty float `sum()` is -0.0.
    (0..spans.len())
        .filter(|&i| spans[i].name == name && has_ancestor(spans, i, roots))
        .map(|i| self_time(spans, i))
        .fold(0.0, |a, b| a + b)
}

fn has_ancestor(spans: &[Span], mut i: usize, roots: &[usize]) -> bool {
    loop {
        if roots.contains(&i) {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// The spans as a JSON array, for the result file.
#[must_use]
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_s".into(), Value::Num(s.start)),
                    ("end_s".into(), Value::Num(s.end)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Int(p as i128))),
                ])
            })
            .collect(),
    )
}
