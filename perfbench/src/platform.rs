//! The platform layer's meter: a wrapper around any [`BatchAnswerSource`]
//! that counts and times every call into it and changes no answer. The
//! service takes ownership of its source, so the counters live behind an
//! `Arc` the benchmark keeps.

use crate::trace::Tracer;
use coverage_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls into the platform, answers it delivered and time it was busy.
#[derive(Debug, Default)]
pub struct PlatformMeter {
    calls: AtomicU64,
    answers: AtomicU64,
    busy_ns: AtomicU64,
}

impl PlatformMeter {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Point labels and set/membership verdicts delivered, summed.
    pub fn answers(&self) -> u64 {
        self.answers.load(Ordering::Relaxed)
    }

    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// `inner`, metered. Busy time and spans are recorded only when the
/// tracer is on; the call and answer counts always.
pub struct TimedSource<S> {
    inner: S,
    meter: Arc<PlatformMeter>,
    tracer: Arc<Tracer>,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S, meter: Arc<PlatformMeter>, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            meter,
            tracer,
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn metered<T>(
        &mut self,
        answers: usize,
        call: impl FnOnce(&mut S) -> Result<T, AskError>,
    ) -> Result<T, AskError> {
        self.meter.calls.fetch_add(1, Ordering::Relaxed);
        self.meter
            .answers
            .fetch_add(answers as u64, Ordering::Relaxed);
        if !self.tracer.enabled() {
            return call(&mut self.inner);
        }
        let _span = self.tracer.span("platform.call", None);
        let start = Instant::now();
        let result = call(&mut self.inner);
        self.meter
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

impl<S: AnswerSource> AnswerSource for TimedSource<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        self.metered(1, |inner| inner.try_answer_set(objects, target))
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        self.metered(1, |inner| inner.try_answer_point_labels(object))
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        self.metered(1, |inner| inner.try_answer_membership(object, target))
    }
}

impl<S: BatchAnswerSource> BatchAnswerSource for TimedSource<S> {
    fn try_answer_point_labels_batch(
        &mut self,
        objects: &[ObjectId],
    ) -> Result<Vec<Labels>, AskError> {
        self.metered(objects.len(), |inner| {
            inner.try_answer_point_labels_batch(objects)
        })
    }

    fn try_answer_sets_batch(
        &mut self,
        queries: &[(Vec<ObjectId>, Target)],
    ) -> Result<Vec<bool>, AskError> {
        self.metered(queries.len(), |inner| inner.try_answer_sets_batch(queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{platform, tenant_dataset, tenant_specs};
    use coverage_service::{AuditService, JobReport, ServiceConfig, ServiceReport};
    use crowd_sim::PlatformStats;

    /// A report's JSON with the wall-clock fields blanked: everything else
    /// (verdicts, ledgers, spend, reuse) must not depend on the wrapper.
    fn verdict_json(report: &JobReport) -> String {
        let mut report = report.clone();
        report.wall_ms = 0;
        report.phases_ms = Default::default();
        report.to_json()
    }

    fn run(wrapped: bool) -> (ServiceReport, PlatformStats) {
        let data = tenant_dataset(7, 3000);
        let mut service = AuditService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        for spec in tenant_specs(&data, 7, 18, 600, 3000) {
            service.submit(spec);
        }
        let source = platform(&data, 7);
        if wrapped {
            let tracer = Arc::new(Tracer::new(true));
            let meter = Arc::new(PlatformMeter::default());
            let timed = TimedSource::new(source, Arc::clone(&meter), tracer);
            let (report, timed) = service.run(timed);
            assert!(meter.calls() > 0 && meter.busy_ms() > 0.0);
            (report, *timed.inner().stats())
        } else {
            let (report, source) = service.run(source);
            (report, *source.stats())
        }
    }

    #[test]
    fn wrapper_changes_no_answer() {
        let (plain, plain_stats) = run(false);
        let (timed, timed_stats) = run(true);
        assert_eq!(plain.jobs.len(), 18);
        for (a, b) in plain.jobs.iter().zip(&timed.jobs) {
            assert_eq!(verdict_json(a), verdict_json(b));
        }
        assert_eq!(plain.crowd_tasks, timed.crowd_tasks);
        assert_eq!(plain_stats, timed_stats);
    }
}
