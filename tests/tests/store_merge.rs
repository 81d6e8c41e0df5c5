//! The anti-entropy convergence invariant (ISSUE 10 satellite).
//!
//! Fleet peers exchange [`KnowledgeStore`] deltas with no coordination:
//! rounds interleave arbitrarily, a repair round re-ships a whole store,
//! and a delta may arrive twice. Convergence therefore rests on the
//! merge being a semilattice join **for truth-consistent stores** (all
//! fleet facts derive from one ground truth, so two peers never hold
//! conflicting facts under the same key):
//!
//! * `merge(A, B) == merge(B, A)` — commutative,
//! * `merge(merge(A, B), C) == merge(A, merge(B, C))` — associative,
//! * `merge(merge(A, B), B) == merge(A, B)` and `merge(A, A) == A` —
//!   idempotent (a re-shipped delta is a no-op),
//! * `merge(A, delta_since(B, A)) == merge(A, B)` — a delta is exactly
//!   the missing facts, and `delta_since(A, A)` is empty.
//!
//! The daemon-level corollary: re-importing a store's own export moves
//! neither the fact base nor a single unit of crowd spend.

use coverage_core::prelude::*;
use coverage_service::{AuditDaemon, AuditKind, JobSpec, JobStatus, ServiceConfig};
use integration_tests::female;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random single-attribute labeling.
fn synth_truth(n_total: usize, density_pct: u64, seed: u64) -> VecGroundTruth {
    let mut labels = Vec::with_capacity(n_total);
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..n_total {
        labels.push(Labels::single(u8::from(next() % 100 < density_pct)));
    }
    VecGroundTruth::new(labels)
}

/// One fact a peer might have learned, in raw generated form (the
/// vendored proptest has no `prop_oneof`, so the interpretation lives
/// here): `is_label` picks a point label of `objects[0]`, otherwise a
/// set answer over `objects` for `female()` (negated when `flip`). All
/// facts derive from the same ground truth — the fleet's setting — so no
/// two stores ever disagree under the same key.
type RawFact = (bool, Vec<usize>, bool);

fn fact_strategy(n_total: usize) -> impl Strategy<Value = RawFact> {
    (
        proptest::bool::ANY,
        proptest::collection::vec(0..n_total, 1..6),
        proptest::bool::ANY,
    )
}

/// Replays truth-consistent facts into a fresh store, the way the engine
/// records them: a `true` set answer narrows to a single matching
/// witness, a `false` one marks every asked object a non-member.
fn store_from(facts: &[RawFact], truth: &VecGroundTruth) -> KnowledgeStore {
    let mut store = KnowledgeStore::new();
    for (is_label, objects, flip) in facts {
        if *is_label {
            let object = ObjectId(objects[0] as u32);
            store.record_labels(object, truth.labels_of(object));
        } else {
            let target = if *flip { female().negated() } else { female() };
            let objects: Vec<ObjectId> = objects.iter().map(|i| ObjectId(*i as u32)).collect();
            let answer = objects
                .iter()
                .any(|id| target.matches(&truth.labels_of(*id)));
            let residual: Vec<ObjectId> = if answer {
                objects
                    .iter()
                    .copied()
                    .filter(|id| target.matches(&truth.labels_of(*id)))
                    .take(1)
                    .collect()
            } else {
                objects.clone()
            };
            store.record_set_answer(&objects, &residual, &target, answer);
        }
    }
    store
}

fn merged(a: &KnowledgeStore, b: &KnowledgeStore) -> KnowledgeStore {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The semilattice laws, over arbitrary truth-consistent fact sets.
    #[test]
    fn merge_is_a_semilattice_join_for_truth_consistent_stores(
        density_pct in 0u64..100,
        seed in 0u64..1000,
        facts_a in proptest::collection::vec(fact_strategy(40), 0..30),
        facts_b in proptest::collection::vec(fact_strategy(40), 0..30),
        facts_c in proptest::collection::vec(fact_strategy(40), 0..30),
    ) {
        let truth = synth_truth(40, density_pct, seed);
        let a = store_from(&facts_a, &truth);
        let b = store_from(&facts_b, &truth);
        let c = store_from(&facts_c, &truth);

        // Commutative: gossip order between two peers is irrelevant.
        let ab = merged(&a, &b);
        prop_assert_eq!(&ab, &merged(&b, &a));
        // Associative: three-peer exchange converges along any spanning
        // order.
        prop_assert_eq!(merged(&ab, &c), merged(&a, &merged(&b, &c)));
        // Idempotent: a repair round re-shipping known facts is a
        // no-op, and so is self-merge.
        prop_assert_eq!(&merged(&ab, &b), &ab);
        prop_assert_eq!(merged(&a, &a), a.clone());
        // Fact counts only grow toward the union, never past it.
        prop_assert!(ab.fact_count() >= a.fact_count().max(b.fact_count()));
        prop_assert!(ab.fact_count() <= a.fact_count() + b.fact_count());
    }

    /// `delta_since` ships exactly the missing facts: merging the delta
    /// is merging the whole store, and a self-delta is empty.
    #[test]
    fn delta_since_is_exactly_the_missing_facts(
        density_pct in 0u64..100,
        seed in 0u64..1000,
        facts_a in proptest::collection::vec(fact_strategy(40), 0..30),
        facts_b in proptest::collection::vec(fact_strategy(40), 0..30),
    ) {
        let truth = synth_truth(40, density_pct, seed);
        let a = store_from(&facts_a, &truth);
        let b = store_from(&facts_b, &truth);

        prop_assert!(a.delta_since(&a).is_empty(), "a self-delta must be empty");
        let delta = b.delta_since(&a);
        prop_assert_eq!(merged(&a, &delta), merged(&a, &b));
        // The delta never re-ships a fact the baseline already holds.
        prop_assert!(delta.fact_count() <= b.fact_count());
        let converged = merged(&a, &b);
        prop_assert!(converged.delta_since(&converged).is_empty());
    }
}

/// The daemon half: re-importing a daemon's own export is a no-op on the
/// fact base *and* on spend — the `/store/export` → `/store/import`
/// round-trip (and hence a redundant whole-store repair ship) never
/// double-bills a fact.
#[test]
fn reimporting_an_export_moves_neither_facts_nor_spend() {
    let truth = Arc::new(synth_truth(600, 12, 5));
    let pool = truth.all_ids();
    let daemon = AuditDaemon::start(
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        SharedTruthSource::new(Arc::clone(&truth)),
    );
    let spec = JobSpec::new(
        "t/group",
        pool,
        AuditKind::GroupCoverage { target: female() },
    )
    .tau(25)
    .seed(3);
    let first = daemon.submit(spec.clone()).unwrap();
    daemon.drain();
    let first_report = daemon.report(first).unwrap();
    assert_eq!(first_report.status, JobStatus::Done);
    assert!(first_report.crowd_tasks > 0, "{}", first_report.to_json());

    let exported = daemon.export_store();
    daemon.import_store(&exported);
    let after = daemon.export_store();
    assert!(
        after.delta_since(&exported).is_empty() && exported.delta_since(&after).is_empty(),
        "re-import must not move the fact base"
    );

    // The re-run of the same audit over the re-imported store buys
    // nothing and reaches the same verdict.
    let second = daemon.submit(spec).unwrap();
    daemon.drain();
    let second_report = daemon.report(second).unwrap();
    assert_eq!(second_report.status, JobStatus::Done);
    assert_eq!(second_report.crowd_tasks, 0, "{}", second_report.to_json());
    assert_eq!(
        serde_json::to_string(second_report.outcome.as_ref().unwrap()).unwrap(),
        serde_json::to_string(first_report.outcome.as_ref().unwrap()).unwrap(),
    );
    daemon.shutdown().unwrap();
}
