//! The budget governor: per-job and platform-wide crowd-spend caps.
//!
//! Budgets meter **crowd spend** — the residual questions that actually
//! reach the platform after the shared knowledge store has answered what it
//! can and narrowed what it half-knows — in HIT-equivalents: a set query is
//! one task (narrowed or not), point labels amortize to `1/batch` of a task
//! each. The dispatcher really does coalesce them into `batch`-image HITs,
//! even for a job alone in its round: the engine asks a batch of labels as
//! one request, and it reaches the dispatcher whole. Questions the store
//! decides from facts never get here and are free; a job can only exhaust
//! its budget with genuinely fresh crowd work.
//!
//! Set queries arrive as a set request (a lone set is a request of one;
//! a multi-group scan sends the waves of all its live runs, each set with
//! its own target, as one), and point labels as a batch. A request the caps
//! cannot afford in full is cut, not refused whole: the governor charges
//! and forwards the longest prefix both caps admit, then refuses the rest
//! with the [`BudgetSnapshot`] its first refused question would have met
//! asked alone. Nothing unaffordable is sent, and the questions that were
//! affordable are bought and kept. A request holds only questions its job
//! is certain to ask, so a cut request buys nothing the one-at-a-time job
//! would not have bought.
//!
//! Coverage algorithms ask questions through the fallible [`AnswerSource`]
//! interface, so exhaustion is *data*, not control flow: `GovernedSource`
//! refuses an over-budget question with
//! [`AskError::BudgetExhausted`] carrying a [`BudgetSnapshot`] of the spend
//! at that moment, the algorithm driver surfaces its partial result, and
//! the job runner reports the job
//! [`Exhausted`](crate::job::JobStatus::Exhausted). Nothing panics and no
//! unwinding crosses any layer.

use coverage_core::engine::{AnswerSource, Batch, LabelBatch, ObjectId, SetBatch, SetQuery};
use coverage_core::error::{AskError, BudgetSnapshot};
use coverage_core::ledger::batched_tasks;
#[cfg(test)]
use coverage_core::ledger::TaskLedger;
use coverage_core::schema::Labels;
use coverage_core::target::Target;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};

/// Budget caps, in crowd tasks (HIT-equivalents).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BudgetPolicy {
    /// Default cap per job; a job's own [`crate::job::JobSpec::budget`]
    /// overrides it. `None` means unlimited.
    pub per_job: Option<u64>,
    /// Cap on the whole service run's crowd spend. `None` means unlimited.
    pub global: Option<u64>,
}

impl BudgetPolicy {
    /// No caps.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps every job at `tasks` (unless its spec overrides).
    pub fn per_job(tasks: u64) -> Self {
        Self {
            per_job: Some(tasks),
            ..Self::default()
        }
    }

    /// Caps the whole run at `tasks`.
    pub fn global(tasks: u64) -> Self {
        Self {
            global: Some(tasks),
            ..Self::default()
        }
    }
}

/// Which cap an exhausted job ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetScope {
    /// The job's own cap.
    Job,
    /// The service-wide cap.
    Global,
}

impl BudgetScope {
    /// Maps a core-level [`BudgetSnapshot`] back to the cap it describes:
    /// the governor marks the shared (service-wide) ledger as `shared`.
    pub(crate) fn from_snapshot(snapshot: &BudgetSnapshot) -> Self {
        if snapshot.shared {
            BudgetScope::Global
        } else {
            BudgetScope::Job
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Spend {
    set_queries: u64,
    point_labels: u64,
}

/// The two kinds of crowd work a budget charges.
#[derive(Debug, Clone, Copy)]
enum Work {
    /// Set queries: one task each.
    Sets,
    /// Point labels: `batch` of them share one task.
    Points,
}

impl Spend {
    /// HIT-equivalents at the given point-batch size.
    fn tasks(&self, batch: usize) -> u64 {
        self.set_queries + batched_tasks(self.point_labels as usize, batch)
    }

    /// How many more questions of `work` fit under `cap`. A set adds one
    /// task; labels fit while their total is at most `(cap − sets) · batch`.
    fn affordable(&self, work: Work, cap: u64, batch: usize) -> u64 {
        match work {
            Work::Sets => cap.saturating_sub(self.tasks(batch)),
            Work::Points => cap
                .saturating_sub(self.set_queries)
                .saturating_mul(batch as u64)
                .saturating_sub(self.point_labels),
        }
    }

    fn add(&mut self, work: Work, count: u64) {
        match work {
            Work::Sets => self.set_queries += count,
            Work::Points => self.point_labels += count,
        }
    }
}

/// Spend shared by every job of one service run.
#[derive(Debug)]
pub(crate) struct GlobalBudget {
    cap: Option<u64>,
    batch: usize,
    spend: Mutex<Spend>,
}

impl GlobalBudget {
    pub(crate) fn new(cap: Option<u64>, batch: usize) -> Arc<Self> {
        assert!(batch > 0, "point batch must be positive");
        Arc::new(Self {
            cap,
            batch,
            spend: Mutex::new(Spend::default()),
        })
    }

    /// Total crowd tasks charged so far across all jobs.
    pub(crate) fn tasks_spent(&self) -> u64 {
        self.lock().tasks(self.batch)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spend> {
        // A job failing with `Err` never unwinds here, but a genuine panic
        // elsewhere must still not poison the shared ledger.
        self.spend.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Charges the longest prefix of `wanted` questions of `work` the cap
    /// admits. When that is short of `wanted`, the snapshot is the one the
    /// first refused question would have met asked alone.
    fn admit(&self, work: Work, wanted: u64) -> (u64, Option<BudgetSnapshot>) {
        let mut spend = self.lock();
        let Some(cap) = self.cap else {
            spend.add(work, wanted);
            return (wanted, None);
        };
        let admitted = spend.affordable(work, cap, self.batch).min(wanted);
        spend.add(work, admitted);
        let refusal = (admitted < wanted).then(|| BudgetSnapshot {
            spent: spend.tasks(self.batch),
            cap,
            shared: true,
        });
        (admitted, refusal)
    }
}

/// One job's view of the budget: its own cap plus the shared global ledger.
#[derive(Debug, Clone)]
pub(crate) struct JobBudget {
    cap: Option<u64>,
    global: Arc<GlobalBudget>,
    spend: Arc<Mutex<Spend>>,
}

impl JobBudget {
    pub(crate) fn new(cap: Option<u64>, global: Arc<GlobalBudget>) -> Self {
        Self {
            cap,
            global,
            spend: Arc::new(Mutex::new(Spend::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spend> {
        self.spend.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Crowd tasks this job has charged.
    pub(crate) fn tasks_spent(&self) -> u64 {
        self.lock().tasks(self.global.batch)
    }

    /// The job's crowd spend as a [`TaskLedger`] (point tasks amortized at
    /// the dispatcher's batch size). The job runner reports the engine's
    /// live logical ledger instead (the fallible ask path keeps the engine
    /// alive through exhaustion), so this view is for inspection only.
    #[cfg(test)]
    pub(crate) fn ledger(&self) -> TaskLedger {
        let spend = *self.lock();
        let mut ledger = TaskLedger::new();
        ledger.record_set_queries(spend.set_queries);
        ledger.record_point_work(
            spend.point_labels,
            batched_tasks(spend.point_labels as usize, self.global.batch),
        );
        ledger
    }

    /// Charges the longest prefix of `wanted` questions of `work` that both
    /// caps admit, and returns its length. When that is short of `wanted`,
    /// the `Err` is exactly what the first refused question would have met
    /// asked on its own: the job cap is checked before the global one, and
    /// the snapshot counts the admitted prefix as spent. A refused question
    /// is charged on neither ledger.
    fn admit(&self, work: Work, wanted: usize) -> (usize, Result<(), AskError>) {
        let wanted = wanted as u64;
        // Lock order is job → global; nothing takes them in reverse, and
        // the job lock is effectively uncontended (one thread runs a job).
        let mut spend = self.lock();
        let job_room = self.cap.map_or(wanted, |cap| {
            spend.affordable(work, cap, self.global.batch).min(wanted)
        });
        let (admitted, global_refusal) = self.global.admit(work, job_room);
        spend.add(work, admitted);
        // Short of `wanted` without a global refusal means the job cap bit.
        let refusal = match global_refusal {
            _ if admitted == wanted => None,
            Some(snapshot) => Some(snapshot),
            None => self.cap.map(|cap| BudgetSnapshot {
                spent: spend.tasks(self.global.batch),
                cap,
                shared: false,
            }),
        };
        (
            admitted as usize,
            refusal.map_or(Ok(()), |snapshot| Err(AskError::BudgetExhausted(snapshot))),
        )
    }

    /// Admits what it can of a `len`-question request, forwards the
    /// admitted prefix with `forward`, and refuses the rest. Questions past
    /// the prefix are never sent. An error from the forwarded prefix comes
    /// first: asked one at a time, the job would have stopped there before
    /// reaching the cap.
    fn forward_prefix<T>(
        &self,
        work: Work,
        len: usize,
        forward: impl FnOnce(usize) -> Batch<T>,
    ) -> Batch<T> {
        let (admitted, refusal) = self.admit(work, len);
        let mut batch = if admitted == 0 {
            Batch {
                slots: Vec::new(),
                error: None,
            }
        } else {
            forward(admitted)
        };
        batch.slots.resize_with(len, || None);
        batch.error = batch.error.or(refusal.err());
        batch
    }
}

/// Wraps a job's connection to the platform with budget enforcement. Sits
/// **below** the shared knowledge store, so only the residual questions the
/// store could not answer are charged.
#[derive(Debug, Clone)]
pub(crate) struct GovernedSource<S> {
    inner: S,
    budget: JobBudget,
}

impl<S> GovernedSource<S> {
    pub(crate) fn new(inner: S, budget: JobBudget) -> Self {
        Self { inner, budget }
    }
}

impl<S: AnswerSource> AnswerSource for GovernedSource<S> {
    fn try_answer_set(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
        self.try_answer_sets_many(&[(objects, target)])
            .into_result()
            .map(|answers| answers[0])
    }

    fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
        self.try_answer_point_labels_many(&[object])
            .into_result()
            .map(|labels| labels[0])
    }

    fn try_answer_membership(
        &mut self,
        object: ObjectId,
        target: &Target,
    ) -> Result<bool, AskError> {
        self.budget.admit(Work::Points, 1).1?;
        self.inner.try_answer_membership(object, target)
    }

    /// Charges and forwards the longest affordable prefix of the request
    /// as one request, then refuses the rest with the snapshot the first
    /// refused set would have met asked alone.
    fn try_answer_sets_many(&mut self, sets: &[SetQuery<'_>]) -> SetBatch {
        let inner = &mut self.inner;
        self.budget
            .forward_prefix(Work::Sets, sets.len(), |admitted| {
                inner.try_answer_sets_many(&sets[..admitted])
            })
    }

    /// Charges and forwards the longest affordable prefix of the batch as
    /// one request, then refuses the rest with the snapshot the per-object
    /// path would have reported.
    fn try_answer_point_labels_many(&mut self, objects: &[ObjectId]) -> LabelBatch {
        let inner = &mut self.inner;
        self.budget
            .forward_prefix(Work::Points, objects.len(), |admitted| {
                inner.try_answer_point_labels_many(&objects[..admitted])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::engine::{GroundTruth, PerfectSource, VecGroundTruth};
    use coverage_core::memo::MemoizedSource;
    use coverage_core::pattern::Pattern;

    fn truth(n: usize, minority: usize) -> VecGroundTruth {
        VecGroundTruth::new(
            (0..n)
                .map(|i| Labels::single(u8::from(i < minority)))
                .collect(),
        )
    }

    fn female() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    #[test]
    fn spend_amortizes_points() {
        let s = Spend {
            set_queries: 3,
            point_labels: 120,
        };
        assert_eq!(s.tasks(50), 3 + 3); // ceil(120/50) = 3
    }

    #[test]
    fn under_budget_passes_through() {
        let t = truth(100, 10);
        let global = GlobalBudget::new(Some(100), 50);
        let budget = JobBudget::new(Some(10), Arc::clone(&global));
        let mut src = GovernedSource::new(PerfectSource::new(&t), budget.clone());
        let ids = t.all_ids();
        assert!(src.try_answer_set(&ids, &female()).unwrap());
        for id in &ids[..50] {
            src.try_answer_point_labels(*id).unwrap();
        }
        assert_eq!(budget.tasks_spent(), 2); // 1 set + ceil(50/50)
        assert_eq!(global.tasks_spent(), 2);
        let ledger = budget.ledger();
        assert_eq!(ledger.set_queries(), 1);
        assert_eq!(ledger.point_labels(), 50);
        assert_eq!(ledger.total_tasks(), 2);
    }

    #[test]
    fn job_cap_refuses_with_snapshot() {
        let t = truth(10, 2);
        let global = GlobalBudget::new(None, 50);
        let budget = JobBudget::new(Some(2), global);
        let mut src = GovernedSource::new(PerfectSource::new(&t), budget.clone());
        let ids = t.all_ids();
        src.try_answer_set(&ids, &female()).unwrap();
        src.try_answer_set(&ids[..5], &female()).unwrap();
        let err = src.try_answer_set(&ids[5..], &female()).unwrap_err();
        match err {
            AskError::BudgetExhausted(snapshot) => {
                assert_eq!(snapshot.spent, 2);
                assert_eq!(snapshot.cap, 2);
                assert!(!snapshot.shared);
                assert_eq!(BudgetScope::from_snapshot(&snapshot), BudgetScope::Job);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // The refused question was not charged.
        assert_eq!(budget.tasks_spent(), 2);
    }

    /// A point batch admits the longest prefix both caps allow, forwards
    /// only that prefix, and refuses the rest with the snapshot (and the
    /// spend) that asking its labels one at a time would have produced.
    #[test]
    fn batch_admits_the_prefix_single_asks_would() {
        let t = truth(200, 20);
        let ids = t.all_ids();
        // (job cap, global cap, set queries spent first, labels asked)
        let cases = [
            (Some(2), None, 0, 120),    // the job cap bites at 100 labels
            (Some(3), Some(2), 1, 120), // the global cap bites first, at 50
            (Some(2), Some(2), 1, 120), // both bite at 50; the job cap is checked first
            (None, Some(4), 2, 60),     // room for 100: the whole batch passes
            (Some(1), None, 1, 10),     // no room at all
        ];
        for (job_cap, global_cap, sets, wanted) in cases {
            let run = |batched: bool| {
                let global = GlobalBudget::new(global_cap, 50);
                let budget = JobBudget::new(job_cap, Arc::clone(&global));
                let mut src = GovernedSource::new(
                    MemoizedSource::new(PerfectSource::new(&t)),
                    budget.clone(),
                );
                for i in 0..sets {
                    src.try_answer_set(&ids[i * 5..i * 5 + 5], &female())
                        .unwrap();
                }
                let (delivered, error) = if batched {
                    let batch = src.try_answer_point_labels_many(&ids[..wanted]);
                    assert_eq!(batch.slots.len(), wanted);
                    (batch.answered_prefix(), batch.error)
                } else {
                    let mut delivered = 0;
                    let mut error = None;
                    for id in &ids[..wanted] {
                        match src.try_answer_point_labels(*id) {
                            Ok(_) => delivered += 1,
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    (delivered, error)
                };
                let forwarded = src.inner.cache_misses() - sets as u64;
                assert_eq!(forwarded, delivered as u64, "only the prefix is sent");
                (delivered, error, budget.tasks_spent(), global.tasks_spent())
            };
            assert_eq!(
                run(true),
                run(false),
                "caps {job_cap:?}/{global_cap:?}, {sets} set(s), {wanted} label(s)"
            );
        }
    }

    /// A set wave admits the longest prefix both caps allow, forwards only
    /// that prefix, and refuses the rest with the snapshot (and the spend)
    /// that asking its sets one at a time would have produced.
    #[test]
    fn set_wave_admits_the_prefix_single_asks_would() {
        let t = truth(200, 20);
        let ids = t.all_ids();
        let female = female();
        let sets: Vec<SetQuery> = ids.chunks(5).map(|set| (set, &female)).collect();
        // (job cap, global cap, labels bought first, sets asked)
        let cases = [
            (Some(6), None, 0, 10),     // the job cap bites at 6 sets
            (Some(9), Some(5), 60, 10), // the global cap bites first, at 3
            (Some(4), Some(4), 50, 10), // both bite at 3; the job cap is checked first
            (None, Some(40), 0, 12),    // room for the whole wave
            (Some(1), None, 1, 3),      // no room at all
        ];
        for (job_cap, global_cap, labels, wanted) in cases {
            let run = |wave: bool| {
                let global = GlobalBudget::new(global_cap, 50);
                let budget = JobBudget::new(job_cap, Arc::clone(&global));
                let mut src = GovernedSource::new(
                    MemoizedSource::new(PerfectSource::new(&t)),
                    budget.clone(),
                );
                src.try_answer_point_labels_many(&ids[..labels]);
                let (delivered, error) = if wave {
                    let batch = src.try_answer_sets_many(&sets[..wanted]);
                    assert_eq!(batch.slots.len(), wanted);
                    (batch.answered_prefix(), batch.error)
                } else {
                    let mut delivered = 0;
                    let mut error = None;
                    for (objects, target) in &sets[..wanted] {
                        match src.try_answer_set(objects, target) {
                            Ok(_) => delivered += 1,
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    (delivered, error)
                };
                let forwarded = src.inner.cache_misses() - labels as u64;
                assert_eq!(forwarded, delivered as u64, "only the prefix is sent");
                (delivered, error, budget.tasks_spent(), global.tasks_spent())
            };
            assert_eq!(
                run(true),
                run(false),
                "caps {job_cap:?}/{global_cap:?}, {labels} label(s), {wanted} set(s)"
            );
        }
    }

    #[test]
    fn global_cap_spans_jobs() {
        let t = truth(10, 2);
        let global = GlobalBudget::new(Some(3), 50);
        let mut a = GovernedSource::new(
            PerfectSource::new(&t),
            JobBudget::new(None, Arc::clone(&global)),
        );
        let mut b = GovernedSource::new(
            PerfectSource::new(&t),
            JobBudget::new(None, Arc::clone(&global)),
        );
        let ids = t.all_ids();
        a.try_answer_set(&ids, &female()).unwrap();
        b.try_answer_set(&ids, &female()).unwrap();
        a.try_answer_set(&ids, &female()).unwrap();
        let err = b.try_answer_set(&ids, &female()).unwrap_err();
        match err {
            AskError::BudgetExhausted(snapshot) => {
                assert!(snapshot.shared);
                assert_eq!(snapshot.cap, 3);
                assert_eq!(BudgetScope::from_snapshot(&snapshot), BudgetScope::Global);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(global.tasks_spent(), 3);
        // The rejected question is charged on neither ledger: per-job spend
        // sums to the global bill.
        let spent_a = a.budget.tasks_spent();
        let spent_b = b.budget.tasks_spent();
        assert_eq!(spent_a, 2);
        assert_eq!(spent_b, 1, "global refusal must not charge the job");
        assert_eq!(spent_a + spent_b, global.tasks_spent());
    }
}
