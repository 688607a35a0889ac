//! In-memory span recording for the traced replay. Spans are recorded by
//! the benchmark around its calls into each layer; the library itself is
//! never instrumented.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `partition.build`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Partition count the span worked at (0 when it has none).
    pub parts: u32,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
}

impl Span {
    /// Wall-clock duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parts: u32) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            parts,
            start: self.origin.elapsed().as_secs_f64(),
            end: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let now = self.origin.elapsed().as_secs_f64();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = now;
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.total_where(|s| s.name == name)
    }

    /// Total duration of the spans matching `pick`.
    pub fn total_where(&self, pick: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| pick(s))
            .fold(0.0, |total, s| total + s.seconds())
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Time inside the spans named `root` that none of their child spans
    /// covers: wall time the layer spans leave unattributed.
    pub fn uncovered(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, s)| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(Span::seconds)
                    .sum();
                s.seconds() - children
            })
            .sum()
    }
}
