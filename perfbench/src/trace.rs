//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the program's public
//! entry points; each carries its name, start, end, parent span and the
//! job it belongs to. Nothing is written until the run ends, so the only
//! cost on the measured path is two `Instant::now()` calls and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

/// Handle of an open span, returned by [`Tracer::open`].
#[must_use = "a span must be closed"]
#[derive(Debug)]
pub struct Open(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), job: 0 }
    }

    /// Sets the job id stamped on spans opened from now on.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn close(&mut self, span: Open) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans close in LIFO order");
        self.spans[span.0].end_ns = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.open(name);
        let r = f();
        self.close(s);
        r
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed over all spans of that name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Total duration of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Writes every span as one JSON array (one object per line).
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")
    }
}
