//! Task accounting and the fixed-price cost model (§2.3).
//!
//! The paper's objective is to minimize the *number of tasks* under a fixed
//! pricing model. The ledger distinguishes:
//!
//! * **set queries** — one yes/no HIT over a set of objects; always one task.
//! * **point work** — labeling individual objects. Raw labeled-object counts
//!   and charged *point tasks* are tracked separately, because the paper's
//!   HIT layout batches up to `n` images per HIT ("each HIT contained a set
//!   of … 50 images"), while the `Base-Coverage` baseline by definition puts
//!   a single object in each task.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Running totals of crowd work issued through an [`Engine`](crate::engine::Engine).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskLedger {
    set_queries: u64,
    point_tasks: u64,
    point_labels: u64,
}

impl TaskLedger {
    /// A fresh, empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one set query (one task).
    pub fn record_set_query(&mut self) {
        self.record_set_queries(1);
    }

    /// Records `count` set queries (one task each).
    pub fn record_set_queries(&mut self, count: u64) {
        self.set_queries += count;
    }

    /// Records point work: `labels` objects labeled, charged as `tasks` HITs.
    pub fn record_point_work(&mut self, labels: u64, tasks: u64) {
        self.point_labels += labels;
        self.point_tasks += tasks;
    }

    /// Number of set queries issued.
    pub fn set_queries(&self) -> u64 {
        self.set_queries
    }

    /// Number of HITs charged for point work.
    pub fn point_tasks(&self) -> u64 {
        self.point_tasks
    }

    /// Number of individual objects labeled via point work.
    pub fn point_labels(&self) -> u64 {
        self.point_labels
    }

    /// Total tasks (HITs): set queries plus charged point tasks.
    pub fn total_tasks(&self) -> u64 {
        self.set_queries + self.point_tasks
    }

    /// The work recorded since `earlier` (a snapshot of the same ledger).
    ///
    /// # Panics
    /// Panics if `earlier` is not a prefix of `self` (counters decreased).
    pub fn since(&self, earlier: &TaskLedger) -> TaskLedger {
        assert!(
            self.set_queries >= earlier.set_queries
                && self.point_tasks >= earlier.point_tasks
                && self.point_labels >= earlier.point_labels,
            "ledger snapshot is not a prefix of the current ledger"
        );
        TaskLedger {
            set_queries: self.set_queries - earlier.set_queries,
            point_tasks: self.point_tasks - earlier.point_tasks,
            point_labels: self.point_labels - earlier.point_labels,
        }
    }

    /// Adds another ledger's totals into this one.
    pub fn absorb(&mut self, other: &TaskLedger) {
        self.set_queries += other.set_queries;
        self.point_tasks += other.point_tasks;
        self.point_labels += other.point_labels;
    }
}

impl fmt::Display for TaskLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks ({} set queries, {} point tasks / {} labels)",
            self.total_tasks(),
            self.set_queries,
            self.point_tasks,
            self.point_labels
        )
    }
}

/// Dollar cost of a run — the paper's fixed-price model plus the platform's
/// service charge (Amazon charged the authors 20%: $44.10 wages, $8.82 fees).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingModel {
    /// Reward paid per task per assignment, in dollars.
    pub reward_per_task: f64,
    /// Platform fee as a fraction of wages (AMT: 0.20).
    pub fee_rate: f64,
    /// Redundancy: how many workers answer each HIT (majority vote of 3 in
    /// the paper's experiments).
    pub assignments_per_task: u32,
}

impl PricingModel {
    /// The paper's first experiment setting: $0.10/HIT, 3 assignments, 20% fee.
    pub fn amt_ten_cents() -> Self {
        Self {
            reward_per_task: 0.10,
            fee_rate: 0.20,
            assignments_per_task: 3,
        }
    }

    /// The paper's reduced-reward setting: $0.05/HIT ("interestingly, this
    /// did not discourage the workers").
    pub fn amt_five_cents() -> Self {
        Self {
            reward_per_task: 0.05,
            fee_rate: 0.20,
            assignments_per_task: 3,
        }
    }

    /// Wages paid to workers for the ledger's tasks.
    pub fn wages(&self, ledger: &TaskLedger) -> f64 {
        self.wages_for_tasks(ledger.total_tasks())
    }

    /// Platform fees on top of wages.
    pub fn fees(&self, ledger: &TaskLedger) -> f64 {
        self.wages(ledger) * self.fee_rate
    }

    /// Total cost: wages + fees.
    pub fn total_cost(&self, ledger: &TaskLedger) -> f64 {
        self.wages(ledger) + self.fees(ledger)
    }

    /// Wages for a raw task count (HIT-equivalents) — for callers that
    /// price platform-side statistics rather than an engine ledger, e.g.
    /// `crowd-sim`'s `PlatformStats::wage_tasks`.
    pub fn wages_for_tasks(&self, tasks: u64) -> f64 {
        tasks as f64 * self.reward_per_task * f64::from(self.assignments_per_task)
    }

    /// Total cost (wages + fees) for a raw task count.
    pub fn total_cost_for_tasks(&self, tasks: u64) -> f64 {
        self.wages_for_tasks(tasks) * (1.0 + self.fee_rate)
    }
}

/// Charged point tasks when `labels` objects are batched `batch` per HIT.
pub fn batched_tasks(labels: usize, batch: usize) -> u64 {
    assert!(batch > 0, "batch size must be positive");
    (labels.div_ceil(batch)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut l = TaskLedger::new();
        l.record_set_query();
        l.record_set_query();
        l.record_point_work(100, 2);
        assert_eq!(l.set_queries(), 2);
        assert_eq!(l.point_tasks(), 2);
        assert_eq!(l.point_labels(), 100);
        assert_eq!(l.total_tasks(), 4);
    }

    #[test]
    fn since_gives_delta() {
        let mut l = TaskLedger::new();
        l.record_set_query();
        let snap = l;
        l.record_set_query();
        l.record_point_work(10, 1);
        let d = l.since(&snap);
        assert_eq!(d.set_queries(), 1);
        assert_eq!(d.point_labels(), 10);
        assert_eq!(d.total_tasks(), 2);
    }

    #[test]
    #[should_panic(expected = "not a prefix")]
    fn since_rejects_unrelated_snapshot() {
        let mut big = TaskLedger::new();
        big.record_set_query();
        TaskLedger::new().since(&big);
    }

    #[test]
    fn absorb_sums() {
        let mut a = TaskLedger::new();
        a.record_set_query();
        let mut b = TaskLedger::new();
        b.record_point_work(5, 1);
        a.absorb(&b);
        assert_eq!(a.total_tasks(), 2);
        assert_eq!(a.point_labels(), 5);
    }

    #[test]
    fn batching_rounds_up() {
        assert_eq!(batched_tasks(0, 50), 0);
        assert_eq!(batched_tasks(1, 50), 1);
        assert_eq!(batched_tasks(50, 50), 1);
        assert_eq!(batched_tasks(51, 50), 2);
        assert_eq!(batched_tasks(100, 1), 100);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        batched_tasks(10, 0);
    }

    #[test]
    fn pricing_matches_paper_fee_structure() {
        // The authors paid $44.10 wages and $8.82 fees — a 20% fee rate.
        let p = PricingModel::amt_five_cents();
        let mut l = TaskLedger::new();
        for _ in 0..294 {
            l.record_set_query();
        }
        let wages = p.wages(&l);
        assert!((wages - 44.1).abs() < 1e-9);
        assert!((p.fees(&l) - 8.82).abs() < 1e-9);
        assert!((p.total_cost(&l) - 52.92).abs() < 1e-9);
    }

    #[test]
    fn display_summarizes() {
        let mut l = TaskLedger::new();
        l.record_set_query();
        l.record_point_work(3, 1);
        let s = l.to_string();
        assert!(s.contains("2 tasks"));
        assert!(s.contains("1 set queries"));
    }
}
