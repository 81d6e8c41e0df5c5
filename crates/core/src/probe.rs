//! The engine's observability hook: phase events out, nothing back in.
//!
//! An [`EngineProbe`] is a listener the serving layer (or a test harness)
//! attaches to an [`Engine`](crate::engine::Engine) to hear **phase
//! events** — coarse progress marks an algorithm driver emits as it works
//! ("phase-1 sample done", "super-group 3/7 scanned"). The service crate's
//! telemetry plane implements it to build per-job timelines; the core crate
//! only defines the seam.
//!
//! The contract is deliberately one-way and read-only:
//!
//! * a probe **observes** — it receives `&str`s and must not (and cannot,
//!   through this trait) influence an answer, a ledger entry, or a verdict.
//!   With a probe attached or not, every algorithm outcome and every
//!   logical ledger is byte-identical; the service's telemetry proptest
//!   pins exactly that;
//! * emission is **cheap when unobserved** — drivers emit through
//!   [`ProbeHandle::emit`], whose detail argument is a closure that is
//!   never called (no formatting, no allocation) unless a probe is
//!   actually attached;
//! * probes are `Send + Sync` and shared by `Arc`, so one listener can
//!   hear many engines (a whole worker pool)
//!   without coordination beyond its own interior mutability.
//!
//! ```
//! use coverage_core::probe::{EngineProbe, ProbeHandle};
//! use std::sync::{Arc, Mutex};
//!
//! #[derive(Default)]
//! struct Log(Mutex<Vec<String>>);
//! impl EngineProbe for Log {
//!     fn on_phase(&self, phase: &str, detail: &str) {
//!         self.0.lock().unwrap().push(format!("{phase}: {detail}"));
//!     }
//! }
//!
//! let log = Arc::new(Log::default());
//! let probe = ProbeHandle::new(log.clone());
//! probe.emit("sample", || "labeled 120 objects".to_string());
//! // Unattached handles skip the closure entirely.
//! ProbeHandle::none().emit("sample", || unreachable!("never formatted"));
//! assert_eq!(log.0.lock().unwrap().as_slice(), ["sample: labeled 120 objects"]);
//! ```

use std::fmt;
use std::sync::Arc;

/// A listener for engine phase events. Implementations must be cheap and
/// non-blocking — they run inline on the audit's thread — and must never
/// feed information back into the run (observability is strictly
/// read-only; see the [module docs](self)).
pub trait EngineProbe: Send + Sync {
    /// One phase event: a short machine-friendly `phase` tag (e.g.
    /// `"scan_group"`) plus a human-readable `detail` line.
    fn on_phase(&self, phase: &str, detail: &str);
}

/// A cheaply cloneable, possibly-absent probe attachment.
///
/// This is what an [`Engine`](crate::engine::Engine) actually stores: the
/// default [`ProbeHandle::none`] costs one `Option` check per emission and
/// never evaluates the detail closure, so un-instrumented runs (the whole
/// core test suite, the benches' hot paths) pay nothing.
#[derive(Clone, Default)]
pub struct ProbeHandle(Option<Arc<dyn EngineProbe>>);

impl ProbeHandle {
    /// The absent probe: every [`ProbeHandle::emit`] is a no-op.
    pub fn none() -> Self {
        Self(None)
    }

    /// Wraps a listener.
    pub fn new(probe: Arc<dyn EngineProbe>) -> Self {
        Self(Some(probe))
    }

    /// Is a listener attached?
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Emits one phase event. The `detail` closure is only evaluated when
    /// a listener is attached — emission sites may format freely.
    pub fn emit(&self, phase: &str, detail: impl FnOnce() -> String) {
        if let Some(probe) = &self.0 {
            probe.on_phase(phase, &detail());
        }
    }
}

// `Arc<dyn EngineProbe>` has no `Debug`; the handle prints its presence,
// which is all an engine dump needs.
impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(_) => f.write_str("ProbeHandle(attached)"),
            None => f.write_str("ProbeHandle(none)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Recorder(Mutex<Vec<(String, String)>>);

    impl EngineProbe for Recorder {
        fn on_phase(&self, phase: &str, detail: &str) {
            self.0
                .lock()
                .unwrap()
                .push((phase.to_string(), detail.to_string()));
        }
    }

    #[test]
    fn attached_probe_hears_events_in_order() {
        let recorder = Arc::new(Recorder::default());
        let handle = ProbeHandle::new(recorder.clone());
        assert!(handle.is_attached());
        handle.emit("a", || "first".to_string());
        handle.emit("b", || "second".to_string());
        let events = recorder.0.lock().unwrap();
        assert_eq!(
            events.as_slice(),
            [
                ("a".to_string(), "first".to_string()),
                ("b".to_string(), "second".to_string())
            ]
        );
    }

    #[test]
    fn absent_probe_never_formats() {
        let handle = ProbeHandle::none();
        assert!(!handle.is_attached());
        handle.emit("x", || panic!("detail must not be evaluated"));
        // Default is the absent handle too.
        ProbeHandle::default().emit("y", || unreachable!());
    }

    #[test]
    fn clones_share_the_listener() {
        let recorder = Arc::new(Recorder::default());
        let handle = ProbeHandle::new(recorder.clone());
        let clone = handle.clone();
        clone.emit("c", || "via clone".to_string());
        assert_eq!(recorder.0.lock().unwrap().len(), 1);
        assert_eq!(format!("{handle:?}"), "ProbeHandle(attached)");
        assert_eq!(format!("{:?}", ProbeHandle::none()), "ProbeHandle(none)");
    }
}
