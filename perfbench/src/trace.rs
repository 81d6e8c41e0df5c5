//! In-memory span recorder. Each span is one call into a layer, recorded
//! from the benchmark's side of the public API: name, start, end and the
//! span that caused it. Spans stay in memory while the workload runs and
//! are written out once it ends; a disabled recorder records nothing, so
//! the untraced run pays one branch per call site.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it is recorded when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of the calls it causes.
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled.then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            let end_ns = self.tracer.now_ns();
            self.tracer
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Span {
                    id: self.id,
                    parent: self.parent,
                    name: self.name,
                    start_ns: self.start_ns,
                    end_ns,
                });
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`.
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start_ns,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, parent);
        f()
    }

    /// Durations, in milliseconds, of every recorded span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .filter(|span| span.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON array (`[{"id", "parent", "name",
    /// "start_ns", "end_ns"}, …]`) to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = String::with_capacity(spans.len() * 80 + 2);
        out.push('[');
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.name, span.start_ns, span.end_ns
            ));
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let root = tracer.span("root", None);
        assert_eq!(root.id(), None);
        tracer.time("child", root.id(), || ());
        drop(root);
        assert!(tracer.durations_ms("root").is_empty());
        assert!(tracer.durations_ms("child").is_empty());
    }

    #[test]
    fn spans_keep_their_parent() {
        let tracer = Tracer::new(true);
        let root = tracer.span("root", None);
        let root_id = root.id();
        tracer.time("child", root_id, || ());
        drop(root);
        let spans = tracer.spans.lock().unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, root_id);
        assert!(child.end_ns >= child.start_ns);
    }
}
