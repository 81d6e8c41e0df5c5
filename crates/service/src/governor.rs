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
//! A batch the caps cannot afford in full is cut, not refused whole: the
//! governor charges and forwards the longest prefix both caps admit, then
//! refuses the rest with the [`BudgetSnapshot`] its first label would have
//! met asked alone. Nothing unaffordable is sent, and the labels that were
//! affordable are bought and kept.
//!
//! Coverage algorithms ask questions through the fallible [`AnswerSource`]
//! interface, so exhaustion is *data*, not control flow: `GovernedSource`
//! refuses an over-budget question with
//! [`AskError::BudgetExhausted`] carrying a [`BudgetSnapshot`] of the spend
//! at that moment, the algorithm driver surfaces its partial result, and
//! the job runner reports the job
//! [`Exhausted`](crate::job::JobStatus::Exhausted). Nothing panics and no
//! unwinding crosses any layer.

use coverage_core::engine::{AnswerSource, LabelBatch, ObjectId};
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

impl Spend {
    /// HIT-equivalents at the given point-batch size.
    fn tasks(&self, batch: usize) -> u64 {
        self.set_queries + batched_tasks(self.point_labels as usize, batch)
    }

    /// How many more point labels fit under `cap`: `tasks` stays within
    /// `cap` while the label total is at most `(cap − sets) · batch`.
    fn points_affordable(&self, cap: u64, batch: usize) -> u64 {
        cap.saturating_sub(self.set_queries)
            .saturating_mul(batch as u64)
            .saturating_sub(self.point_labels)
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

    /// Charges one set query to the global ledger; `Err` carries the
    /// shared-spend snapshot when the cap would be crossed.
    fn charge_set(&self) -> Result<(), BudgetSnapshot> {
        let mut spend = self.lock();
        let mut next = *spend;
        next.set_queries += 1;
        if let Some(cap) = self.cap {
            if next.tasks(self.batch) > cap {
                return Err(BudgetSnapshot {
                    spent: spend.tasks(self.batch),
                    cap,
                    shared: true,
                });
            }
        }
        *spend = next;
        Ok(())
    }

    /// Charges the longest prefix of `wanted` point labels the cap admits.
    /// When that is short of `wanted`, the snapshot is the one the first
    /// refused label would have met asked alone.
    fn admit_points(&self, wanted: u64) -> (u64, Option<BudgetSnapshot>) {
        let mut spend = self.lock();
        let Some(cap) = self.cap else {
            spend.point_labels += wanted;
            return (wanted, None);
        };
        let admitted = spend.points_affordable(cap, self.batch).min(wanted);
        spend.point_labels += admitted;
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
        for _ in 0..spend.set_queries {
            ledger.record_set_query();
        }
        ledger.record_point_work(
            spend.point_labels,
            batched_tasks(spend.point_labels as usize, self.global.batch),
        );
        ledger
    }

    /// Charges one set query to this job (and the global ledger); `Err`
    /// with [`AskError::BudgetExhausted`] when a cap would be crossed.
    fn charge_set(&self) -> Result<(), AskError> {
        // A rejected question must not count toward the job's spend on
        // either refusal path, so the local commit happens only after both
        // caps admit it. Lock order is job → global; nothing takes them in
        // reverse, and the job lock is effectively uncontended (one thread
        // runs a job).
        let mut spend = self.lock();
        let mut next = *spend;
        next.set_queries += 1;
        if let Some(cap) = self.cap {
            if next.tasks(self.global.batch) > cap {
                let snapshot = BudgetSnapshot {
                    spent: spend.tasks(self.global.batch),
                    cap,
                    shared: false,
                };
                return Err(AskError::BudgetExhausted(snapshot));
            }
        }
        self.global
            .charge_set()
            .map_err(AskError::BudgetExhausted)?;
        *spend = next;
        Ok(())
    }

    /// Charges the longest prefix of `wanted` point labels that both caps
    /// admit, and returns its length. When that is short of `wanted`, the
    /// `Err` is exactly what the first refused label would have met asked
    /// on its own: the job cap is checked before the global one, and the
    /// snapshot counts the admitted prefix as spent.
    fn admit_points(&self, wanted: usize) -> (usize, Result<(), AskError>) {
        let wanted = wanted as u64;
        let mut spend = self.lock();
        let job_room = self.cap.map_or(wanted, |cap| {
            spend.points_affordable(cap, self.global.batch).min(wanted)
        });
        let (admitted, global_refusal) = self.global.admit_points(job_room);
        spend.point_labels += admitted;
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
        self.budget.charge_set()?;
        self.inner.try_answer_set(objects, target)
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
        self.budget.admit_points(1).1?;
        self.inner.try_answer_membership(object, target)
    }

    /// Charges and forwards the longest affordable prefix as one request,
    /// then refuses the rest with the snapshot the per-object path would
    /// have reported. Labels past the prefix are never sent. An error from
    /// the forwarded prefix comes first: asked one at a time, the job
    /// would have stopped there before reaching the cap.
    fn try_answer_point_labels_many(&mut self, objects: &[ObjectId]) -> LabelBatch {
        let (admitted, refusal) = self.budget.admit_points(objects.len());
        let mut batch = if admitted == 0 {
            LabelBatch {
                labels: Vec::new(),
                error: None,
            }
        } else {
            self.inner
                .try_answer_point_labels_many(&objects[..admitted])
        };
        batch.labels.resize(objects.len(), None);
        batch.error = batch.error.or(refusal.err());
        batch
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
                    assert_eq!(batch.labels.len(), wanted);
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
