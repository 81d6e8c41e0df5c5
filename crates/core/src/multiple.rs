//! **Multiple-Coverage** — coverage of many non-intersectional groups with
//! super-group aggregation (Algorithm 2, §4).
//!
//! Running Group-Coverage once per group wastes the information collected in
//! each run. Instead: (1) label a random sample of `c·τ` objects, which
//! usually certifies majority groups outright; (2) merge expected-tiny
//! groups into super-groups; (3) one Group-Coverage run per super-group —
//! an uncovered super-group certifies *all* its members uncovered at once,
//! while a covered super-group pays a penalty (each member must be re-run
//! individually, §4's "drawback").
//!
//! ## The interleaved scan
//!
//! Every super-group in step (3) is decided from the **phase-1 state**
//! alone — the sampled label store `L` and the residual pool — never from
//! another super-group's intermediate results (super-groups partition the
//! groups, so one super-group's witnesses can neither match nor mis-count
//! another's members). So the scan items are independent, and
//! [`multiple_coverage`] drives all of them from one loop. Each item is a
//! small state machine over resumable Group-Coverage runs:
//!
//! * a singleton runs one Group-Coverage run for its group;
//! * a multi-member super-group runs its union first;
//! * if the union is covered, every member's penalty re-run goes live at
//!   once;
//! * if the union is uncovered, the item asks its witness-label batch
//!   (when resolving members) and is done.
//!
//! Each step advances every live run on the answers it holds. An item
//! whose union just ended uncovered sends its witness labels as a request
//! of its own, so it keeps its own `⌈k/n⌉` charge. Then the next wave of
//! every live run goes out as **one** set request ([`Engine::ask_sets`]),
//! in super-group order and member order within an item. A serving layer
//! answers that request in one platform round, so a scan costs the rounds
//! of its longest run, not the sum over its items.
//!
//! Each run asks exactly the questions it would ask alone, so verdicts,
//! counts and the logical ledger are those of a scan that decides the
//! items one after another. The request order is fixed, so the crowd bill
//! of a job running alone is a fixed function of its inputs. A run whose
//! slot comes back empty stops with that error and the others go on:
//! groups decidable without the refused crowd work still land in the
//! partial report, and the reported error is the earliest super-group's.

use crate::aggregate::{aggregate, SuperGroup};
use crate::engine::{AnswerSource, Engine, ObjectId, SetQuery};
use crate::error::{try_ask, AskError, Interrupted};
use crate::group_coverage::{DncConfig, GroupCoverageRun};
use crate::ledger::TaskLedger;
use crate::pattern::Pattern;
use crate::sampling::{label_samples, LabeledStore};
use crate::target::Target;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters for [`multiple_coverage`] (and, via the intersectional
/// wrapper, Algorithm 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultipleConfig {
    /// Coverage threshold `τ`.
    pub tau: usize,
    /// Subset-size upper bound `n` for set queries.
    pub n: usize,
    /// Sample-size factor `c`: the initial point-query sample labels `c·τ`
    /// objects. The paper found `c = 2` a good choice.
    pub sample_factor: usize,
    /// Restrict super-group merges to sibling subgroups (the intersectional
    /// mode of the aggregation function).
    pub multi: bool,
    /// After an uncovered super-group run, point-label the isolated
    /// witnesses (batched) to attribute exact counts to individual members.
    /// Costs `⌈count/batch⌉` extra tasks per uncovered super-group; required
    /// for sound MUP propagation in Algorithm 3.
    pub resolve_supergroup_members: bool,
    /// Divide-and-conquer knobs passed to every Group-Coverage run.
    pub dnc: DncConfig,
}

impl Default for MultipleConfig {
    fn default() -> Self {
        Self {
            tau: 50,
            n: 50,
            sample_factor: 2,
            multi: false,
            resolve_supergroup_members: false,
            dnc: DncConfig::default(),
        }
    }
}

/// Verdict for one group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupResult {
    /// The group.
    pub group: Pattern,
    /// Is the group covered (≥ τ members)?
    pub covered: bool,
    /// Known member count: exact when `count_exact`, otherwise a lower bound.
    pub count: usize,
    /// True when `count` is the exact population of the group.
    pub count_exact: bool,
}

/// Output of [`multiple_coverage`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultipleReport {
    /// Per-group verdicts, in the order the groups were supplied.
    pub results: Vec<GroupResult>,
    /// The super-groups the aggregation heuristic formed.
    pub super_groups: Vec<SuperGroup>,
    /// Crowd work consumed by this call.
    pub tasks: TaskLedger,
}

impl MultipleReport {
    /// The verdict for `group`, if it was part of the call.
    pub fn result_for(&self, group: &Pattern) -> Option<&GroupResult> {
        self.results.iter().find(|r| &r.group == group)
    }

    /// Groups found uncovered.
    pub fn uncovered(&self) -> Vec<&GroupResult> {
        self.results.iter().filter(|r| !r.covered).collect()
    }
}

/// Runs **Multiple-Coverage** (Algorithm 2) over `pool` for `groups`
/// (mutually disjoint subgroups, e.g. all values of one attribute).
///
/// # Panics
/// Panics when `groups` is empty or `cfg.n == 0`.
///
/// # Errors
/// When the ask path fails, the [`Interrupted`] error carries a partial
/// [`MultipleReport`]: the verdicts of every group fully decided (in caller
/// order), the super-groups formed, and the tasks spent. A group whose scan
/// item hit the failure is *not* included — a partial verdict would not be
/// sound — but the scan keeps going, so groups decidable without the
/// refused crowd work (e.g. certified by the phase-1 sample alone) still
/// appear; the first failing item's error is the one reported.
///
/// # Example
///
/// ```
/// use coverage_core::prelude::*;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// // One 4-valued race attribute; group 3 has only 12 members.
/// let mut labels = Vec::new();
/// for i in 0..2000u32 {
///     labels.push(Labels::single(match i % 100 {
///         0..=84 => 0,
///         85..=94 => 1,
///         _ => 2,
///     }));
/// }
/// labels.extend(std::iter::repeat(Labels::single(3)).take(12));
/// let truth = VecGroundTruth::new(labels);
/// let groups: Vec<Pattern> = (0..4).map(|v| Pattern::single(1, 0, v)).collect();
///
/// let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let report = multiple_coverage(
///     &mut engine, &truth.all_ids(), &groups,
///     &MultipleConfig { tau: 50, ..MultipleConfig::default() }, &mut rng,
/// ).unwrap();
/// assert!(report.results[0].covered);                 // the 85% majority
/// assert!(!report.result_for(&groups[3]).unwrap().covered); // 12 < 50
/// ```
pub fn multiple_coverage<S: AnswerSource, R: Rng + ?Sized>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    groups: &[Pattern],
    cfg: &MultipleConfig,
    rng: &mut R,
) -> Result<MultipleReport, Interrupted<MultipleReport>> {
    let phase1 = phase_one(engine, pool, groups, cfg, rng)?;
    let (results, first_error) = scan(engine, &phase1, cfg);
    finish_scan(engine, groups, phase1, results, first_error)
}

/// Step (3): drives every scan item from one loop (see the module docs)
/// and collects the decided verdicts, in super-group order, and the
/// earliest super-group's error.
fn scan<S: AnswerSource>(
    engine: &mut Engine<S>,
    phase1: &PhaseOne,
    cfg: &MultipleConfig,
) -> (Vec<GroupResult>, Option<AskError>) {
    let mut items: Vec<Item> = phase1
        .super_groups
        .iter()
        .map(|sg| Item::new(sg, phase1, cfg))
        .collect();
    loop {
        for item in &mut items {
            item.advance(engine, phase1, cfg);
        }
        let runs: Vec<&mut GroupCoverageRun> = items.iter_mut().flat_map(Item::waiting).collect();
        if runs.is_empty() {
            break;
        }
        let sets: Vec<SetQuery> = runs
            .iter()
            .flat_map(|run| {
                let target = run.target();
                run.wave().map(move |objects| (objects, target))
            })
            .collect();
        let batch = engine.ask_sets(&sets);
        let mut slots = &batch.slots[..];
        for run in runs {
            let (wave, rest) = slots.split_at(run.wave().len());
            run.deliver(wave, batch.error.as_ref());
            slots = rest;
        }
    }
    let mut results = Vec::new();
    let mut first_error = None;
    for item in items {
        let Item::Done(item) = item else {
            unreachable!("the scan ends once no item waits")
        };
        results.extend(item.results);
        first_error = first_error.or(item.error);
    }
    (results, first_error)
}

/// Everything steps (1)–(2) produce: the labeled sample `L`, the residual
/// pool, the super-groups, and the ledger snapshot taken before any work.
struct PhaseOne {
    labeled: LabeledStore,
    pool: Vec<ObjectId>,
    super_groups: Vec<SuperGroup>,
    before: TaskLedger,
}

/// Steps (1)–(2) of Algorithm 2, sequential on the caller's engine (the
/// sample consumes the RNG; everything after is RNG-free).
#[allow(clippy::result_large_err)] // the Err carries the partial report by design
fn phase_one<S: AnswerSource, R: Rng + ?Sized>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    groups: &[Pattern],
    cfg: &MultipleConfig,
    rng: &mut R,
) -> Result<PhaseOne, Interrupted<MultipleReport>> {
    assert!(!groups.is_empty(), "need at least one group");
    let before = engine.ledger_snapshot();
    let n_total = pool.len();
    let mut pool: Vec<ObjectId> = pool.to_vec();

    // Line 1: obtain c·τ random labels.
    let labeled = try_ask!(
        label_samples(engine, &mut pool, cfg.sample_factor * cfg.tau, rng),
        partial_report(
            groups,
            Vec::new(),
            Vec::new(),
            engine.ledger().since(&before)
        )
    );

    // Line 2: form the super-groups.
    let super_groups = aggregate(&labeled, n_total, cfg.tau, groups, cfg.multi);
    engine.probe().emit("phase1", || {
        format!(
            "sampled {} labels; {} group(s) aggregated into {} super-group(s)",
            labeled.len(),
            groups.len(),
            super_groups.len()
        )
    });
    Ok(PhaseOne {
        labeled,
        pool,
        super_groups,
        before,
    })
}

/// Orders the collected verdicts and wraps up the report (`Ok` when every
/// item succeeded, `Err(Interrupted)` carrying the partial otherwise).
#[allow(clippy::result_large_err)] // the Err carries the partial report by design
fn finish_scan<S: AnswerSource>(
    engine: &Engine<S>,
    groups: &[Pattern],
    phase1: PhaseOne,
    mut results: Vec<GroupResult>,
    first_error: Option<AskError>,
) -> Result<MultipleReport, Interrupted<MultipleReport>> {
    sort_by_caller_order(&mut results, groups);
    let report = MultipleReport {
        results,
        super_groups: phase1.super_groups,
        tasks: engine.ledger().since(&phase1.before),
    };
    // One event per super-group, emitted in super-group order once the
    // whole scan is decided.
    if engine.probe().is_attached() {
        let total = report.super_groups.len();
        for (index, sg) in report.super_groups.iter().enumerate() {
            let decided = report
                .results
                .iter()
                .filter(|r| sg.members.contains(&r.group))
                .count();
            engine.probe().emit("scan_group", || {
                format!(
                    "super-group {}/{total}: {} member group(s), {decided} decided",
                    index + 1,
                    sg.members.len()
                )
            });
        }
    }
    match first_error {
        None => Ok(report),
        Some(error) => Err(Interrupted {
            error,
            partial: report,
        }),
    }
}

/// One scan item's outcome: the verdicts it decided, and the first error it
/// ran into (undecided groups are simply absent — a partial verdict would
/// not be sound).
#[derive(Debug)]
struct ScanItem {
    results: Vec<GroupResult>,
    error: Option<AskError>,
}

/// One super-group's decision (lines 3–13 of Algorithm 2) as a state
/// machine over resumable Group-Coverage runs. It reads the shared sample
/// `L` and pool but owns every intermediate it produces, so items advance
/// side by side without changing any verdict.
#[derive(Debug)]
enum Item<'p> {
    /// Lines 5-6: a multi-member super-group searches its union with the
    /// residual threshold.
    Union {
        sg: &'p SuperGroup,
        run: GroupCoverageRun<'p>,
    },
    /// Member checks, in member order: a singleton's one check, or a
    /// covered union's penalty re-runs.
    Checks(Vec<Check<'p>>),
    /// Decided.
    Done(ScanItem),
}

impl<'p> Item<'p> {
    fn new(sg: &'p SuperGroup, phase1: &'p PhaseOne, cfg: &MultipleConfig) -> Self {
        if sg.is_singleton() {
            return Item::Checks(vec![Check::new(sg.members[0], phase1, cfg)]);
        }
        let sample_total: usize = sg
            .members
            .iter()
            .map(|g| phase1.labeled.count(&Target::group(*g)))
            .sum();
        let mut dnc = cfg.dnc.clone();
        dnc.collect_witnesses = cfg.resolve_supergroup_members;
        Item::Union {
            sg,
            run: GroupCoverageRun::new(
                &phase1.pool,
                sg.target(),
                cfg.tau.saturating_sub(sample_total),
                cfg.n,
                &dnc,
            ),
        }
    }

    /// Advances the item on the answers its runs hold, until every live
    /// run waits for a wave or the item is decided. An uncovered union's
    /// witness labels are asked here, as a request of their own.
    fn advance<S: AnswerSource>(
        &mut self,
        engine: &mut Engine<S>,
        phase1: &'p PhaseOne,
        cfg: &MultipleConfig,
    ) {
        if let Item::Union { sg, run } = self {
            let sg = *sg;
            let Some(result) = run.advance() else {
                return;
            };
            *self = match result {
                Err(interrupted) => Item::Done(ScanItem {
                    results: Vec::new(),
                    error: Some(interrupted.error),
                }),
                // Lines 8-12: penalty — the union is covered, so nothing is
                // known about individual members; every member re-runs. A
                // member whose re-run fails stays undecided, but cheaper
                // siblings (e.g. certified by the sample) are still decided.
                Ok(out) if out.covered => Item::Checks(
                    sg.members
                        .iter()
                        .map(|g| Check::new(*g, phase1, cfg))
                        .collect(),
                ),
                Ok(out) => Item::Done(uncovered_union(
                    engine,
                    &phase1.labeled,
                    sg,
                    &out.witnesses,
                    cfg,
                )),
            };
        }
        if let Item::Checks(checks) = self {
            for check in checks.iter_mut() {
                check.advance();
            }
            if checks
                .iter()
                .all(|check| matches!(check, Check::Decided(_)))
            {
                let mut item = ScanItem {
                    results: Vec::new(),
                    error: None,
                };
                for check in checks.drain(..) {
                    match check {
                        Check::Decided(Ok(result)) => item.results.push(result),
                        Check::Decided(Err(error)) => {
                            item.error = item.error.or(Some(error));
                        }
                        Check::Running { .. } => unreachable!("every check is decided"),
                    }
                }
                *self = Item::Done(item);
            }
        }
    }

    /// The item's runs that wait for a wave, in member order.
    fn waiting(&mut self) -> Vec<&mut GroupCoverageRun<'p>> {
        match self {
            Item::Union { run, .. } => vec![run],
            Item::Checks(checks) => checks
                .iter_mut()
                .filter_map(|check| match check {
                    Check::Running { run, .. } => Some(&mut **run),
                    Check::Decided(_) => None,
                })
                .collect(),
            Item::Done(_) => Vec::new(),
        }
    }
}

/// Lines 7 / 10-12 of Algorithm 2: one group's check, crediting the
/// sample. An `Err` verdict means the group stays undecided — no partial
/// verdict exists.
#[derive(Debug)]
enum Check<'p> {
    /// Group-Coverage with the residual threshold is deciding the group.
    Running {
        group: Pattern,
        sample_count: usize,
        run: Box<GroupCoverageRun<'p>>,
    },
    Decided(Result<GroupResult, AskError>),
}

impl<'p> Check<'p> {
    fn new(group: Pattern, phase1: &'p PhaseOne, cfg: &MultipleConfig) -> Self {
        let target = Target::group(group);
        let sample_count = phase1.labeled.count(&target);
        let tau_prime = cfg.tau.saturating_sub(sample_count);
        if tau_prime == 0 {
            return Check::Decided(Ok(GroupResult {
                group,
                covered: true,
                count: sample_count,
                count_exact: false,
            }));
        }
        Check::Running {
            group,
            sample_count,
            run: Box::new(GroupCoverageRun::new(
                &phase1.pool,
                target,
                tau_prime,
                cfg.n,
                &cfg.dnc,
            )),
        }
    }

    fn advance(&mut self) {
        let Check::Running {
            group,
            sample_count,
            run,
        } = self
        else {
            return;
        };
        let Some(result) = run.advance() else {
            return;
        };
        *self = Check::Decided(
            result
                .map(|out| GroupResult {
                    group: *group,
                    covered: out.covered,
                    count: *sample_count + out.count,
                    count_exact: !out.covered,
                })
                .map_err(|interrupted| interrupted.error),
        );
    }
}

/// Line 13: the union is uncovered, so every member is uncovered. With
/// member resolution on, the witnesses are *all* union members remaining
/// in the pool, and one batched point pass labels them to attribute exact
/// counts.
fn uncovered_union<S: AnswerSource>(
    engine: &mut Engine<S>,
    labeled: &LabeledStore,
    sg: &SuperGroup,
    witnesses: &[ObjectId],
    cfg: &MultipleConfig,
) -> ScanItem {
    let witness_labels = if cfg.resolve_supergroup_members && !witnesses.is_empty() {
        match engine.ask_point_labels_batched(witnesses) {
            Ok(labels) => labels,
            Err(error) => {
                return ScanItem {
                    results: Vec::new(),
                    error: Some(error),
                }
            }
        }
    } else {
        Vec::new()
    };
    let results = sg
        .members
        .iter()
        .map(|g| {
            let target = Target::group(*g);
            // The sample's members plus this union's freshly-labeled
            // witnesses (witnesses come from the pool, so the two sets are
            // disjoint).
            let known = labeled.count(&target)
                + witness_labels.iter().filter(|l| target.matches(l)).count();
            GroupResult {
                group: *g,
                covered: false,
                count: known,
                count_exact: cfg.resolve_supergroup_members,
            }
        })
        .collect();
    ScanItem {
        results,
        error: None,
    }
}

/// Orders verdicts by the caller's group order (undecided groups absent).
fn sort_by_caller_order(results: &mut [GroupResult], groups: &[Pattern]) {
    results.sort_by_key(|r| {
        groups
            .iter()
            .position(|g| g == &r.group)
            .unwrap_or(usize::MAX)
    });
}

/// Builds the partial [`MultipleReport`] surfaced when the run is cut.
fn partial_report(
    groups: &[Pattern],
    mut results: Vec<GroupResult>,
    super_groups: Vec<SuperGroup>,
    tasks: TaskLedger,
) -> MultipleReport {
    sort_by_caller_order(&mut results, groups);
    MultipleReport {
        results,
        super_groups,
        tasks,
    }
}

/// The sequential scan the interleaved one replaced: each item decided in
/// turn, each Group-Coverage run through [`group_coverage`] with one
/// request per wave. Kept as the oracle the interleaved scan is tested
/// against; also returns how many items asked a set query.
#[cfg(test)]
#[allow(clippy::result_large_err)] // the Err carries the partial report by design
pub(crate) fn multiple_coverage_sequential<S: AnswerSource, R: Rng + ?Sized>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    groups: &[Pattern],
    cfg: &MultipleConfig,
    rng: &mut R,
) -> (Result<MultipleReport, Interrupted<MultipleReport>>, usize) {
    use crate::group_coverage::group_coverage;

    fn check_single_group<S: AnswerSource>(
        engine: &mut Engine<S>,
        phase1: &PhaseOne,
        group: &Pattern,
        cfg: &MultipleConfig,
    ) -> Result<GroupResult, AskError> {
        let target = Target::group(*group);
        let sample_count = phase1.labeled.count(&target);
        let tau_prime = cfg.tau.saturating_sub(sample_count);
        if tau_prime == 0 {
            return Ok(GroupResult {
                group: *group,
                covered: true,
                count: sample_count,
                count_exact: false,
            });
        }
        let out = group_coverage(engine, &phase1.pool, &target, tau_prime, cfg.n, &cfg.dnc)
            .map_err(|i| i.error)?;
        Ok(GroupResult {
            group: *group,
            covered: out.covered,
            count: sample_count + out.count,
            count_exact: !out.covered,
        })
    }

    fn scan_super_group<S: AnswerSource>(
        engine: &mut Engine<S>,
        phase1: &PhaseOne,
        sg: &SuperGroup,
        cfg: &MultipleConfig,
    ) -> ScanItem {
        if sg.is_singleton() {
            return match check_single_group(engine, phase1, &sg.members[0], cfg) {
                Ok(result) => ScanItem {
                    results: vec![result],
                    error: None,
                },
                Err(error) => ScanItem {
                    results: Vec::new(),
                    error: Some(error),
                },
            };
        }
        let sample_total: usize = sg
            .members
            .iter()
            .map(|g| phase1.labeled.count(&Target::group(*g)))
            .sum();
        let mut dnc = cfg.dnc.clone();
        dnc.collect_witnesses = cfg.resolve_supergroup_members;
        let tau_prime = cfg.tau.saturating_sub(sample_total);
        let out = match group_coverage(engine, &phase1.pool, &sg.target(), tau_prime, cfg.n, &dnc) {
            Ok(out) => out,
            Err(interrupted) => {
                return ScanItem {
                    results: Vec::new(),
                    error: Some(interrupted.error),
                }
            }
        };
        if !out.covered {
            return uncovered_union(engine, &phase1.labeled, sg, &out.witnesses, cfg);
        }
        let mut item = ScanItem {
            results: Vec::new(),
            error: None,
        };
        for g in &sg.members {
            match check_single_group(engine, phase1, g, cfg) {
                Ok(result) => item.results.push(result),
                Err(error) => item.error = item.error.or(Some(error)),
            }
        }
        item
    }

    let phase1 = match phase_one(engine, pool, groups, cfg, rng) {
        Ok(phase1) => phase1,
        Err(interrupted) => return (Err(interrupted), 0),
    };
    let mut results = Vec::new();
    let mut first_error = None;
    let mut asking = 0;
    for sg in &phase1.super_groups {
        let before = engine.ledger().set_queries();
        let item = scan_super_group(engine, &phase1, sg, cfg);
        asking += usize::from(engine.ledger().set_queries() > before);
        results.extend(item.results);
        first_error = first_error.or(item.error);
    }
    (
        finish_scan(engine, groups, phase1, results, first_error),
        asking,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{Batch, GroundTruth, LabelBatch, SetBatch};
    use crate::engine::{PerfectSource, VecGroundTruth};
    use crate::group_coverage::group_coverage;
    use crate::schema::Labels;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Dataset over one attribute with `counts[v]` objects of value `v`,
    /// deterministically interleaved.
    fn truth_1d(counts: &[usize]) -> VecGroundTruth {
        let total: usize = counts.iter().sum();
        let mut remaining: Vec<usize> = counts.to_vec();
        let mut labels = Vec::with_capacity(total);
        // Round-robin interleave so groups are spread through the pool.
        loop {
            let mut progressed = false;
            for (v, r) in remaining.iter_mut().enumerate() {
                if *r > 0 {
                    labels.push(Labels::single(v as u8));
                    *r -= 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        VecGroundTruth::new(labels)
    }

    fn groups_1d(card: usize) -> Vec<Pattern> {
        (0..card).map(|v| Pattern::single(1, 0, v as u8)).collect()
    }

    fn run(
        truth: &VecGroundTruth,
        card: usize,
        cfg: &MultipleConfig,
        seed: u64,
    ) -> (MultipleReport, u64) {
        let mut engine = Engine::with_point_batch(PerfectSource::new(truth), cfg.n);
        let mut rng = SmallRng::seed_from_u64(seed);
        let report = multiple_coverage(
            &mut engine,
            &truth.all_ids(),
            &groups_1d(card),
            cfg,
            &mut rng,
        )
        .unwrap();
        let total = engine.ledger().total_tasks();
        (report, total)
    }

    #[test]
    fn verdicts_match_ground_truth() {
        // τ = 50: groups of sizes 900, 60, 30, 10 ⇒ covered, covered,
        // uncovered, uncovered.
        let truth = truth_1d(&[900, 60, 30, 10]);
        let cfg = MultipleConfig::default();
        for seed in 0..5 {
            let (report, _) = run(&truth, 4, &cfg, seed);
            let covered: Vec<bool> = report.results.iter().map(|r| r.covered).collect();
            assert_eq!(covered, vec![true, true, false, false], "seed {seed}");
        }
    }

    #[test]
    fn uncovered_counts_without_resolution_are_lower_bounds() {
        let truth = truth_1d(&[900, 30, 10]);
        let cfg = MultipleConfig::default();
        let (report, _) = run(&truth, 3, &cfg, 3);
        for r in report.uncovered() {
            assert!(!r.count_exact || r.count <= 40);
        }
    }

    #[test]
    fn resolution_gives_exact_member_counts() {
        let truth = truth_1d(&[950, 20, 12]);
        let cfg = MultipleConfig {
            resolve_supergroup_members: true,
            ..MultipleConfig::default()
        };
        for seed in 0..5 {
            let (report, _) = run(&truth, 3, &cfg, seed);
            let r1 = report.result_for(&Pattern::single(1, 0, 1)).unwrap();
            let r2 = report.result_for(&Pattern::single(1, 0, 2)).unwrap();
            assert!(!r1.covered && !r2.covered);
            assert!(r1.count_exact && r2.count_exact, "seed {seed}");
            assert_eq!(r1.count, 20, "seed {seed}");
            assert_eq!(r2.count, 12, "seed {seed}");
        }
    }

    #[test]
    fn effective_case_beats_brute_force() {
        // Table 3 "effective 1": three tiny uncovered minorities whose union
        // is still uncovered ⇒ one shared run replaces three scans.
        let truth = truth_1d(&[9960, 15, 15, 10]);
        let cfg = MultipleConfig::default();
        let (report, multi_tasks) = run(&truth, 4, &cfg, 11);
        assert!(report.results[0].covered);
        assert!(!report.results[1].covered);

        // Brute force: Group-Coverage per group on the full pool.
        let mut engine = Engine::with_point_batch(PerfectSource::new(&truth), 50);
        for g in groups_1d(4) {
            group_coverage(
                &mut engine,
                &truth.all_ids(),
                &Target::group(g),
                50,
                50,
                &DncConfig::default(),
            )
            .unwrap();
        }
        let brute_tasks = engine.ledger().total_tasks();
        assert!(
            multi_tasks < brute_tasks,
            "aggregated {multi_tasks} should beat brute {brute_tasks}"
        );
    }

    #[test]
    fn adversarial_case_pays_penalty_but_stays_correct() {
        // Table 3 "adversarial": three uncovered minorities whose union IS
        // covered ⇒ the super-group run certifies nothing and each member
        // re-runs. Verdicts must still be right.
        let truth = truth_1d(&[9880, 40, 40, 40]);
        let cfg = MultipleConfig::default();
        let (report, _) = run(&truth, 4, &cfg, 5);
        let covered: Vec<bool> = report.results.iter().map(|r| r.covered).collect();
        assert_eq!(covered, vec![true, false, false, false]);
        for r in report.uncovered() {
            assert_eq!(r.count, 40);
            assert!(r.count_exact);
        }
    }

    #[test]
    fn sample_alone_can_certify_majorities() {
        // With c·τ = 100 samples over a 99%-majority dataset, the majority
        // group should usually be certified by the sample credit alone
        // (τ' = 0 ⇒ no extra Group-Coverage work for it).
        let truth = truth_1d(&[5000, 8]);
        let cfg = MultipleConfig::default();
        let (report, _) = run(&truth, 2, &cfg, 2);
        let maj = report.result_for(&Pattern::single(1, 0, 0)).unwrap();
        assert!(maj.covered);
    }

    #[test]
    fn small_pool_smaller_than_sample() {
        let truth = truth_1d(&[30, 5]);
        let cfg = MultipleConfig {
            tau: 10,
            ..MultipleConfig::default()
        };
        let (report, _) = run(&truth, 2, &cfg, 9);
        assert!(report.results[0].covered);
        assert!(!report.results[1].covered);
        assert_eq!(report.results[1].count, 5);
    }

    #[test]
    fn report_preserves_group_order() {
        let truth = truth_1d(&[100, 200, 300]);
        let cfg = MultipleConfig {
            tau: 50,
            ..MultipleConfig::default()
        };
        let (report, _) = run(&truth, 3, &cfg, 1);
        let order: Vec<Pattern> = report.results.iter().map(|r| r.group).collect();
        assert_eq!(order, groups_1d(3));
    }

    /// A perfect oracle that logs every set query it answers, with its
    /// target, and counts the requests it receives; it refuses every set
    /// past the first `allow`.
    pub(crate) struct QuestionLog<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        pub(crate) asked: Vec<(Vec<ObjectId>, String)>,
        pub(crate) requests: usize,
        allow: usize,
    }

    impl<'a> QuestionLog<'a> {
        pub(crate) fn new(truth: &'a VecGroundTruth) -> Self {
            Self::capped(truth, usize::MAX)
        }

        pub(crate) fn capped(truth: &'a VecGroundTruth, allow: usize) -> Self {
            Self {
                inner: PerfectSource::new(truth),
                asked: Vec::new(),
                requests: 0,
                allow,
            }
        }

        /// The asked `(set, target)` questions as a sorted multiset.
        pub(crate) fn multiset(&self) -> Vec<(Vec<ObjectId>, String)> {
            let mut asked = self.asked.clone();
            asked.sort_unstable();
            asked
        }
    }

    impl AnswerSource for QuestionLog<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            if self.asked.len() == self.allow {
                return Err(AskError::SourceFailed("cap".into()));
            }
            self.asked.push((objects.to_vec(), target.to_string()));
            self.inner.try_answer_set(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }

        fn try_answer_point_labels_many(&mut self, objects: &[ObjectId]) -> LabelBatch {
            self.requests += 1;
            self.inner.try_answer_point_labels_many(objects)
        }

        fn try_answer_sets_many(&mut self, sets: &[SetQuery<'_>]) -> SetBatch {
            self.requests += 1;
            Batch::one_at_a_time(sets, |(objects, target)| {
                self.try_answer_set(objects, target)
            })
        }
    }

    /// Deterministic pseudo-random counts: `cells` groups, the first a
    /// majority, the rest drawn below `max_minority`.
    fn random_counts(cells: usize, max_minority: usize, seed: u64) -> Vec<usize> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let mut counts = vec![600];
        for _ in 1..cells {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            counts.push((state >> 33) as usize % max_minority);
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The interleaved scan decides exactly what the sequential scan
        /// decides: the same report JSON, the same ledger and the same
        /// multiset of asked `(set, target)` questions, with resolution on
        /// and off and with sibling-only (intersectional) aggregation on and
        /// off. It never takes more requests, and takes fewer as soon as two
        /// items ask a set query.
        #[test]
        fn prop_interleaved_scan_matches_the_sequential_scan(
            cells in 2usize..9,
            max_minority in 1usize..90,
            tau in 5usize..70,
            n in 1usize..60,
            seed in 0u64..10_000,
            resolve in proptest::bool::ANY,
            multi in proptest::bool::ANY,
        ) {
            let truth = truth_1d(&random_counts(cells, max_minority, seed));
            let cfg = MultipleConfig {
                tau,
                n,
                multi,
                resolve_supergroup_members: resolve,
                ..MultipleConfig::default()
            };
            let groups = groups_1d(cells);
            let pool = truth.all_ids();

            let mut engine = Engine::with_point_batch(QuestionLog::new(&truth), n);
            let mut rng = SmallRng::seed_from_u64(seed);
            let interleaved = multiple_coverage(&mut engine, &pool, &groups, &cfg, &mut rng).unwrap();

            let mut oracle = Engine::with_point_batch(QuestionLog::new(&truth), n);
            let mut rng = SmallRng::seed_from_u64(seed);
            let (sequential, asking) =
                multiple_coverage_sequential(&mut oracle, &pool, &groups, &cfg, &mut rng);
            let sequential = sequential.unwrap();

            prop_assert_eq!(
                serde_json::to_string(&interleaved).unwrap(),
                serde_json::to_string(&sequential).unwrap()
            );
            prop_assert_eq!(engine.ledger(), oracle.ledger());
            prop_assert_eq!(engine.source().multiset(), oracle.source().multiset());
            let (requests, oracle_requests) = (engine.source().requests, oracle.source().requests);
            prop_assert!(requests <= oracle_requests);
            if asking >= 2 {
                prop_assert!(requests < oracle_requests, "{requests} vs {oracle_requests}");
            }
        }
    }

    /// A scan cut part-way reports the earliest failing item's error, and
    /// every verdict it does report is the uncut run's.
    #[test]
    fn a_cut_scan_keeps_only_sound_verdicts() {
        let truth = truth_1d(&[900, 60, 30, 25, 10, 40]);
        let cfg = MultipleConfig {
            resolve_supergroup_members: true,
            ..MultipleConfig::default()
        };
        let pool = truth.all_ids();
        let (full, _) = run(&truth, 6, &cfg, 42);
        let full_sets = {
            let mut engine = Engine::with_point_batch(QuestionLog::new(&truth), cfg.n);
            let mut rng = SmallRng::seed_from_u64(42);
            multiple_coverage(&mut engine, &pool, &groups_1d(6), &cfg, &mut rng).unwrap();
            engine.ledger().set_queries() as usize
        };
        for allow in [0, 1, full_sets / 3, full_sets / 2, full_sets - 1] {
            let mut engine = Engine::with_point_batch(QuestionLog::capped(&truth, allow), cfg.n);
            let mut rng = SmallRng::seed_from_u64(42);
            let cut = multiple_coverage(&mut engine, &pool, &groups_1d(6), &cfg, &mut rng)
                .expect_err("the cap cuts the scan");
            assert_eq!(cut.error, AskError::SourceFailed("cap".into()));
            assert_eq!(engine.ledger().set_queries() as usize, allow);
            for result in &cut.partial.results {
                assert_eq!(
                    Some(result),
                    full.result_for(&result.group),
                    "allow {allow}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn empty_groups_panics() {
        let truth = truth_1d(&[10, 10]);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = multiple_coverage(
            &mut engine,
            &truth.all_ids(),
            &[],
            &MultipleConfig::default(),
            &mut rng,
        );
    }
}
