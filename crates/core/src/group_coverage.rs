//! **Group-Coverage** — the paper's core divide-and-conquer algorithm
//! (Algorithm 1, §3.1).
//!
//! Given an unlabeled pool and a target group `g`, decide whether the pool
//! contains at least `τ` members of `g`, using *set queries* ("does this set
//! contain at least one member of g?"). The algorithm belongs to the group
//! testing family:
//!
//! * a **no** answer prunes the whole set — for uncovered groups, large
//!   chunks of the dataset disappear after one task;
//! * a **yes** answer forces a split, but because explored sets are
//!   disjoint, the number of *yes* leaves lower-bounds `|g ∩ pool|`; the run
//!   stops as soon as that lower bound reaches `τ`.
//!
//! Cost: `Θ(N/n + τ·log n)` tasks in the worst case, which is only an
//! additive `Θ(τ·log n)` above the trivial `N/n` lower bound (§3.2).
//!
//! ## Set-query waves
//!
//! The driver processes one node at a time, exactly as Algorithm 1 does,
//! but it does not *ask* one set at a time. When it needs an answer it
//! does not hold, it asks a **wave**: every set query in the frontier that
//! the one-at-a-time run is certain to ask next, as one request
//! ([`Engine::ask_sets`]). The run itself asks nothing: it is a resumable
//! state machine that hands the wave out and takes the answers back, so
//! [`group_coverage`] drives one run on an engine and the multi-group scan
//! of [`multiple`](mod@crate::multiple) drives all its runs from one loop.
//! The wave walks the frontier in pop order, starting with the node about
//! to be asked:
//!
//! * every root and the first-popped child of each sibling pair joins;
//! * a second-popped child joins only if its sibling is known to have said
//!   *yes* — after a known *no* the sibling substitution (line 12) answers
//!   it for free, and an unknown sibling leaves it out of this wave;
//! * the walk stops before any entry the run might stop ahead of: `cnt`
//!   plus the increments still possible ahead of the entry must stay below
//!   `τ`. Under BFS each root and each second-popped child ahead adds at
//!   most one. Under the DFS ablation a node's whole subtree runs before
//!   the rest of the stack, so each entry ahead adds at most its length
//!   (the members it could hold); one per entry would under-count there.
//!   An entry whose answer a wave already delivered as *no* adds nothing.
//!
//! So a wave holds only questions the one-at-a-time run asks, each once,
//! and a run with no failures asks exactly the same set queries and
//! returns the same outcome and ledger, under BFS and DFS. Answers are
//! consumed in the driver's own order; when it reaches a slot a failed
//! wave did not deliver, it stops with that wave's error and asks nothing
//! again. The answers must not depend on when a question is asked (a
//! perfect oracle, a per-question-seeded crowd); a stream-seeded crowd
//! draws its noise in call order, so a wave's order can move its answers.

use crate::engine::{AnswerSource, Engine, ObjectId, SetQuery};
#[cfg(test)]
use crate::error::try_ask;
use crate::error::{require_positive_n, AskError, Interrupted};
use crate::target::Target;
use crate::tree::{Arena, Frontier, Held, Node, Waves, NO_NODE};
use serde::{Deserialize, Serialize};

/// Frontier discipline for the execution tree.
///
/// The paper processes nodes breadth-first. The depth-first variant is kept
/// for the ablation study (`cvg-bench`): it reaches singletons sooner, which
/// changes *which* witnesses are found first but not correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Traversal {
    /// Breadth-first (the paper's FIFO queue).
    #[default]
    Bfs,
    /// Depth-first (LIFO stack) — ablation only.
    Dfs,
}

/// Tuning knobs for [`group_coverage`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DncConfig {
    /// Frontier discipline; the paper uses BFS.
    pub traversal: Traversal,
    /// When true, record every *yes* singleton in
    /// [`GroupCoverageOutcome::witnesses`]. For a run that ends *uncovered*
    /// the witnesses are exactly the members of `g` in the pool — the
    /// intersectional algorithm uses this to resolve super-group counts.
    pub collect_witnesses: bool,
}

impl DncConfig {
    /// Config that records witnesses.
    pub fn with_witnesses() -> Self {
        Self {
            collect_witnesses: true,
            ..Self::default()
        }
    }
}

/// Result of one [`group_coverage`] run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupCoverageOutcome {
    /// True when the pool contains at least `τ` members of the target.
    pub covered: bool,
    /// The lower bound `cnt` maintained by the algorithm. When
    /// `covered == false` this is the **exact** member count (Lemma 3.1 /
    /// §3.3.2); when covered it equals `τ` (the stop threshold).
    pub count: usize,
    /// Set queries issued by this run.
    pub set_queries: u64,
    /// *Yes* singletons observed (only filled when
    /// [`DncConfig::collect_witnesses`] is set). For uncovered runs these
    /// are all members of the target in the pool.
    pub witnesses: Vec<ObjectId>,
}

/// Runs **Group-Coverage** (Algorithm 1) over `pool` for `target`.
///
/// * `tau` — coverage threshold; `tau == 0` trivially returns covered.
/// * `n` — subset-size upper bound for set queries (the paper's default: 50).
///
/// # Panics
/// Panics when `n == 0`.
///
/// # Errors
/// When the ask path fails mid-run, the [`Interrupted`] error carries the
/// partial outcome: the lower bound `cnt` proven so far, the set queries
/// already spent and the witnesses already isolated.
///
/// # Example
///
/// The paper's running example (Figure 4): sixteen images, five of which are
/// triangles (positions 4, 7, 12, 13, 15), `τ = 3`, a single tree `n = 16`.
/// The algorithm stops after exactly seven queries.
///
/// ```
/// use coverage_core::prelude::*;
///
/// let tri = [4u32, 7, 12, 13, 15];
/// let labels: Vec<Labels> = (0..16)
///     .map(|i| Labels::single(u8::from(tri.contains(&i))))
///     .collect();
/// let truth = VecGroundTruth::new(labels);
/// let mut engine = Engine::new(PerfectSource::new(&truth));
/// let out = group_coverage(
///     &mut engine,
///     &truth.all_ids(),
///     &Target::group(Pattern::parse("1").unwrap()),
///     3,
///     16,
///     &DncConfig::default(),
/// ).unwrap();
/// assert!(out.covered);
/// assert_eq!(out.set_queries, 7);
/// ```
pub fn group_coverage<S: AnswerSource>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    target: &Target,
    tau: usize,
    n: usize,
    config: &DncConfig,
) -> Result<GroupCoverageOutcome, Interrupted<GroupCoverageOutcome>> {
    let mut run = GroupCoverageRun::new(pool, target.clone(), tau, n, config);
    loop {
        if let Some(result) = run.advance() {
            return result;
        }
        let sets: Vec<SetQuery> = run.wave().map(|objects| (objects, target)).collect();
        let batch = engine.ask_sets(&sets);
        run.deliver(&batch.slots, batch.error.as_ref());
    }
}

/// How a [`GroupCoverageRun`] ended: its outcome, or the error that cut it
/// with the partial outcome.
pub(crate) type RunResult = Result<GroupCoverageOutcome, Interrupted<GroupCoverageOutcome>>;

/// One Group-Coverage run as a resumable state machine, asking nothing
/// itself.
///
/// [`advance`](Self::advance) runs Algorithm 1 on the answers the run
/// holds. When it reaches a node it holds no answer for, it stops and
/// hands out that node's certain wave ([`wave`](Self::wave)); whoever
/// drives it asks the wave and hands the answers back
/// ([`deliver`](Self::deliver)). [`group_coverage`] drives one run on an
/// engine; the multi-group scan of [`crate::multiple`] drives many at
/// once and sends all their waves as one request.
#[derive(Debug)]
pub(crate) struct GroupCoverageRun<'p> {
    pool: &'p [ObjectId],
    target: Target,
    tau: usize,
    config: DncConfig,
    arena: Arena,
    frontier: Frontier,
    /// The paper's lower bound `cnt`.
    cnt: usize,
    waves: Waves,
    witnesses: Vec<ObjectId>,
    /// Sets the run's waves delivered, consumed or not.
    set_queries: u64,
    /// The popped node the run waits on, if any.
    head: Option<u32>,
    /// The wave asked for `head`, in pop order.
    wave: Vec<u32>,
}

impl<'p> GroupCoverageRun<'p> {
    /// A run of Algorithm 1 over `pool` for `target` that has asked
    /// nothing yet.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub(crate) fn new(
        pool: &'p [ObjectId],
        target: Target,
        tau: usize,
        n: usize,
        config: &DncConfig,
    ) -> Self {
        require_positive_n(n);
        let mut arena = Arena::default();
        let mut frontier = match config.traversal {
            Traversal::Bfs => Frontier::fifo(),
            Traversal::Dfs => Frontier::lifo(),
        };
        // Lines 2-3: partition the pool into ⌈N/n⌉ root sets. With τ = 0
        // there are none: the run is covered before it asks anything.
        if tau > 0 {
            arena = Arena::with_capacity(2 * pool.len().div_ceil(n));
            for start in (0..pool.len()).step_by(n) {
                let end = (start + n).min(pool.len());
                frontier.push(arena.push(Node::root(start as u32, end as u32)));
            }
        }
        Self {
            pool,
            target,
            tau,
            config: config.clone(),
            arena,
            frontier,
            cnt: 0,
            waves: Waves::default(),
            witnesses: Vec::new(),
            set_queries: 0,
            head: None,
            wave: Vec::new(),
        }
    }

    /// The target every set of the run asks about.
    pub(crate) fn target(&self) -> &Target {
        &self.target
    }

    /// Runs Algorithm 1 (line 4's main loop) on the answers the run holds.
    /// Returns how the run ended, or `None` when it needs the answers to
    /// [`wave`](Self::wave) first. Once it has returned a result the run
    /// is spent.
    pub(crate) fn advance(&mut self) -> Option<RunResult> {
        loop {
            let id = match self.head.take() {
                Some(id) => id,
                None => match self.frontier.pop(&self.arena.removed) {
                    Some(id) => id,
                    // Line 21: frontier exhausted below threshold —
                    // uncovered, `cnt` exact (or τ = 0: covered).
                    None => return Some(Ok(self.outcome(self.cnt >= self.tau))),
                },
            };
            let held = self.arena.nodes[id as usize].held;
            if held == Held::Unasked {
                self.wave = certain_wave(
                    &self.arena,
                    &self.frontier,
                    id,
                    self.cnt,
                    self.tau,
                    self.config.traversal,
                );
                self.head = Some(id);
                return None;
            }
            let answer = match self.waves.answer(held) {
                Ok(answer) => answer,
                Err(error) => {
                    return Some(Err(Interrupted {
                        error,
                        partial: self.outcome(false),
                    }))
                }
            };
            if self.settle(id, answer) {
                return Some(Ok(self.outcome(true)));
            }
        }
    }

    /// The sets of the wave the run waits for, in order.
    pub(crate) fn wave(&self) -> impl ExactSizeIterator<Item = &'p [ObjectId]> + '_ {
        let pool = self.pool;
        self.wave.iter().map(move |&id| {
            let node = self.arena.nodes[id as usize];
            &pool[node.b as usize..node.e as usize]
        })
    }

    /// Hands the run what its wave's request delivered: one slot per set
    /// of [`wave`](Self::wave), in order, and the error that left any slot
    /// empty. Every delivered set counts as one of the run's set queries,
    /// whether the run gets to consume it or not.
    pub(crate) fn deliver(&mut self, slots: &[Option<bool>], error: Option<&AskError>) {
        debug_assert_eq!(slots.len(), self.wave.len(), "one slot per wave set");
        self.set_queries += slots.iter().filter(|slot| slot.is_some()).count() as u64;
        let held = self.waves.record(slots, error);
        for (&id, held) in self.wave.iter().zip(held) {
            self.arena.nodes[id as usize].held = held;
        }
        self.wave.clear();
    }

    /// Lines 5-20 for node `id` answered `answer`; true as soon as the
    /// lower bound proves coverage (line 16).
    fn settle(&mut self, mut id: u32, mut answer: bool) -> bool {
        let arena = &mut self.arena;
        loop {
            arena.nodes[id as usize].done = true;
            let node = arena.nodes[id as usize];
            if node.is_root() {
                if !answer {
                    return false; // line 9: prune the whole root set
                }
                self.cnt += 1;
            } else if !answer {
                // Lines 11-13.
                let sib = node.sibling;
                debug_assert_ne!(sib, NO_NODE);
                if arena.nodes[sib as usize].done {
                    // The sibling already answered yes earlier; nothing new.
                    return false;
                }
                // The sibling substitution of line 12: after a *no* at one
                // child, the other child of a *yes* parent must contain a
                // member, so it is consumed from the frontier and processed
                // as a *yes* without issuing a task.
                arena.removed[sib as usize] = true;
                id = sib;
                answer = true;
                continue;
            } else {
                // Lines 14-15: both-children-yes raises the lower bound.
                let parent = node.parent as usize;
                if arena.nodes[parent].checked {
                    self.cnt += 1;
                } else {
                    arena.nodes[parent].checked = true;
                }
            }
            if self.config.collect_witnesses && node.len() == 1 {
                self.witnesses.push(self.pool[node.b as usize]);
            }
            // Line 16: stop as soon as the lower bound proves coverage.
            if self.cnt >= self.tau {
                return true;
            }
            // Lines 17-20: split yes-sets larger than one.
            if node.len() > 1 {
                let (left, right) = arena.split(id);
                self.frontier.push(left);
                self.frontier.push(right);
            }
            return false;
        }
    }

    /// The run's outcome so far; takes the witnesses, so the run is spent.
    fn outcome(&mut self, covered: bool) -> GroupCoverageOutcome {
        GroupCoverageOutcome {
            covered,
            count: self.cnt,
            set_queries: self.set_queries,
            witnesses: std::mem::take(&mut self.witnesses),
        }
    }
}

/// The wave headed by `head`, the node just popped: `head` plus every
/// unasked frontier entry the one-at-a-time run is certain to ask (see the
/// module docs for the rule), in pop order.
fn certain_wave(
    arena: &Arena,
    frontier: &Frontier,
    head: u32,
    cnt: usize,
    tau: usize,
    traversal: Traversal,
) -> Vec<u32> {
    let node = |id: u32| &arena.nodes[id as usize];
    // A child pair is pushed left then right: BFS pops the left one (the
    // lower id) first, DFS the right one.
    let pops_second = |id: u32| {
        let sibling = node(id).sibling;
        match traversal {
            Traversal::Bfs => id > sibling,
            Traversal::Dfs => id < sibling,
        }
    };
    // The most `cnt` can grow between popping `id` and popping the next
    // entry. A first-popped child adds nothing under BFS: a yes only marks
    // its parent, a no hands over to its sibling, which adds nothing either.
    // An answer already held as *no* adds nothing under either traversal.
    let increments = |id: u32| match (node(id).held, traversal) {
        (Held::Answer(false), _) => 0,
        (_, Traversal::Bfs) => usize::from(node(id).is_root() || pops_second(id)),
        (_, Traversal::Dfs) => node(id).len() as usize,
    };
    let mut wave = vec![head];
    let mut ahead = increments(head);
    for id in frontier.pending(&arena.removed) {
        if cnt + ahead >= tau {
            break;
        }
        match node(id).held {
            // The run stops with that wave's error when it gets there.
            Held::Failed(_) => break,
            Held::Answer(_) => {}
            Held::Unasked => {
                let sibling = node(id).sibling;
                // A pending second-popped child whose sibling is done: the
                // sibling said yes (a no would have substituted this one).
                let certain = node(id).is_root()
                    || !pops_second(id)
                    || node(sibling).done
                    || node(sibling).held == Held::Answer(true);
                if certain {
                    wave.push(id);
                }
            }
        }
        ahead += increments(id);
    }
    wave
}

/// The one-at-a-time loop the wave driver replaced: every set query is its
/// own request. Kept as the oracle the wave driver is tested against.
#[cfg(test)]
pub(crate) fn group_coverage_one_at_a_time<S: AnswerSource>(
    engine: &mut Engine<S>,
    pool: &[ObjectId],
    target: &Target,
    tau: usize,
    n: usize,
    config: &DncConfig,
) -> Result<GroupCoverageOutcome, Interrupted<GroupCoverageOutcome>> {
    require_positive_n(n);
    let before = engine.ledger_snapshot();
    let mut witnesses = Vec::new();
    if tau == 0 || pool.is_empty() {
        return Ok(GroupCoverageOutcome {
            covered: tau == 0,
            count: 0,
            set_queries: 0,
            witnesses,
        });
    }
    let mut arena = Arena::with_capacity(2 * pool.len().div_ceil(n));
    let mut frontier = match config.traversal {
        Traversal::Bfs => Frontier::fifo(),
        Traversal::Dfs => Frontier::lifo(),
    };
    for start in (0..pool.len()).step_by(n) {
        let end = (start + n).min(pool.len());
        frontier.push(arena.push(Node::root(start as u32, end as u32)));
    }
    let mut cnt = 0usize;
    while let Some(first) = frontier.pop(&arena.removed) {
        let mut id = first;
        let mut known_yes = false;
        loop {
            let node = arena.nodes[id as usize];
            let ans = known_yes
                || try_ask!(
                    engine.ask_set(&pool[node.b as usize..node.e as usize], target),
                    GroupCoverageOutcome {
                        covered: false,
                        count: cnt,
                        set_queries: engine.ledger().since(&before).set_queries(),
                        witnesses,
                    }
                );
            arena.nodes[id as usize].done = true;
            if node.is_root() {
                if !ans {
                    break;
                }
                cnt += 1;
            } else if !ans {
                let sib = node.sibling;
                if arena.nodes[sib as usize].done {
                    break;
                }
                arena.removed[sib as usize] = true;
                id = sib;
                known_yes = true;
                continue;
            } else {
                let parent = node.parent as usize;
                if arena.nodes[parent].checked {
                    cnt += 1;
                } else {
                    arena.nodes[parent].checked = true;
                }
            }
            let node = arena.nodes[id as usize];
            if config.collect_witnesses && node.len() == 1 {
                witnesses.push(pool[node.b as usize]);
            }
            if cnt >= tau {
                return Ok(GroupCoverageOutcome {
                    covered: true,
                    count: cnt,
                    set_queries: engine.ledger().since(&before).set_queries(),
                    witnesses,
                });
            }
            if node.len() > 1 {
                let (left, right) = arena.split(id);
                frontier.push(left);
                frontier.push(right);
            }
            break;
        }
    }
    Ok(GroupCoverageOutcome {
        covered: false,
        count: cnt,
        set_queries: engine.ledger().since(&before).set_queries(),
        witnesses,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{Batch, GroundTruth, SetBatch};
    use crate::engine::{PerfectSource, VecGroundTruth};
    use crate::error::AskError;
    use crate::ledger::TaskLedger;
    use crate::pattern::Pattern;
    use crate::schema::Labels;
    use proptest::prelude::*;

    fn truth_from_positions(n: usize, positives: &[usize]) -> VecGroundTruth {
        let labels = (0..n)
            .map(|i| Labels::single(u8::from(positives.contains(&i))))
            .collect();
        VecGroundTruth::new(labels)
    }

    fn minority() -> Target {
        Target::group(Pattern::parse("1").unwrap())
    }

    fn run(
        truth: &VecGroundTruth,
        tau: usize,
        n: usize,
        config: &DncConfig,
    ) -> GroupCoverageOutcome {
        let mut engine = Engine::new(PerfectSource::new(truth));
        group_coverage(&mut engine, &truth.all_ids(), &minority(), tau, n, config).unwrap()
    }

    /// The paper's running example, Figure 4: 7 queries, covered at τ = 3.
    #[test]
    fn paper_running_example() {
        let truth = truth_from_positions(16, &[4, 7, 12, 13, 15]);
        let out = run(&truth, 3, 16, &DncConfig::default());
        assert!(out.covered);
        assert_eq!(out.count, 3);
        assert_eq!(out.set_queries, 7);
    }

    /// §3.2 Case I: every set query answers yes ⇒ exactly 2τ − 1 tasks.
    #[test]
    fn case_one_all_yes_costs_two_tau_minus_one() {
        for tau in [1usize, 2, 3, 5, 8] {
            let truth = truth_from_positions(64, &(0..64).collect::<Vec<_>>());
            let out = run(&truth, tau, 64, &DncConfig::default());
            assert!(out.covered);
            assert_eq!(
                out.set_queries,
                (2 * tau - 1) as u64,
                "tau={tau}: dense positives should cost 2τ−1 tasks"
            );
        }
    }

    /// §3.2 Case II: exactly one member ⇒ Θ(log n) tasks
    /// (2·log2(n) + 1 with the sibling substitution saving none on this
    /// adversarial placement at index 0).
    #[test]
    fn case_two_single_member_costs_logarithmic() {
        let n = 1024usize;
        let truth = truth_from_positions(n, &[0]);
        let out = run(&truth, 2, n, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 1);
        let log = (n as f64).log2();
        assert!(
            (out.set_queries as f64) <= 2.0 * log + 1.0,
            "{} tasks exceeds 2·log2({n})+1",
            out.set_queries
        );
        assert!((out.set_queries as f64) >= log);
    }

    #[test]
    fn covered_stops_early() {
        // 500 positives at the front; τ = 5 must not scan the whole pool.
        let truth = truth_from_positions(10_000, &(0..500).collect::<Vec<_>>());
        let out = run(&truth, 5, 50, &DncConfig::default());
        assert!(out.covered);
        assert_eq!(out.count, 5);
        assert!(out.set_queries < 50);
    }

    #[test]
    fn uncovered_returns_exact_count() {
        let positives = [3usize, 77, 131, 255, 256, 400, 999];
        let truth = truth_from_positions(1000, &positives);
        let out = run(&truth, 50, 50, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, positives.len());
    }

    #[test]
    fn exact_threshold_boundary() {
        // Exactly τ members ⇒ covered; τ−1 members ⇒ uncovered.
        let positives: Vec<usize> = (0..50).map(|i| i * 17).collect();
        let truth = truth_from_positions(1000, &positives);
        let covered = run(&truth, 50, 50, &DncConfig::default());
        assert!(covered.covered);
        let uncovered = run(&truth, 51, 50, &DncConfig::default());
        assert!(!uncovered.covered);
        assert_eq!(uncovered.count, 50);
    }

    #[test]
    fn empty_pool_uncovered_unless_tau_zero() {
        let truth = truth_from_positions(0, &[]);
        let out = run(&truth, 1, 50, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.set_queries, 0);
        let out = run(&truth, 0, 50, &DncConfig::default());
        assert!(out.covered);
    }

    #[test]
    fn tau_zero_is_free() {
        let truth = truth_from_positions(100, &[1]);
        let out = run(&truth, 0, 50, &DncConfig::default());
        assert!(out.covered);
        assert_eq!(out.set_queries, 0);
    }

    #[test]
    fn n_one_degenerates_to_point_scan() {
        let truth = truth_from_positions(20, &[4, 9]);
        let out = run(&truth, 5, 1, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 2);
        assert_eq!(out.set_queries, 20); // every root is a singleton
    }

    #[test]
    fn n_larger_than_pool_is_one_tree() {
        let truth = truth_from_positions(10, &[0, 5]);
        let out = run(&truth, 3, 1_000, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 2);
    }

    #[test]
    fn no_members_costs_only_roots() {
        let truth = truth_from_positions(500, &[]);
        let out = run(&truth, 50, 50, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, 0);
        assert_eq!(out.set_queries, 10); // 500/50 root queries, all pruned
    }

    #[test]
    fn witnesses_are_exact_members_when_uncovered() {
        let positives = [3usize, 77, 131, 255];
        let truth = truth_from_positions(400, &positives);
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let out = group_coverage(
            &mut engine,
            &truth.all_ids(),
            &minority(),
            50,
            50,
            &DncConfig::with_witnesses(),
        )
        .unwrap();
        assert!(!out.covered);
        let mut got: Vec<usize> = out.witnesses.iter().map(|o| o.index()).collect();
        got.sort_unstable();
        assert_eq!(got, positives);
    }

    #[test]
    fn dfs_traversal_is_correct_too() {
        let positives: Vec<usize> = (0..30).map(|i| i * 31).collect();
        let truth = truth_from_positions(1000, &positives);
        let cfg = DncConfig {
            traversal: Traversal::Dfs,
            collect_witnesses: false,
        };
        let covered = run(&truth, 30, 50, &cfg);
        assert!(covered.covered);
        let uncovered = run(&truth, 31, 50, &cfg);
        assert!(!uncovered.covered);
        assert_eq!(uncovered.count, 30);
    }

    #[test]
    fn works_on_sub_pool() {
        // The algorithm must respect an arbitrary pool, not the whole truth.
        let truth = truth_from_positions(100, &(0..50).collect::<Vec<_>>());
        let mut engine = Engine::new(PerfectSource::new(&truth));
        let pool: Vec<_> = (50u32..100).map(crate::engine::ObjectId).collect();
        let out = group_coverage(
            &mut engine,
            &pool,
            &minority(),
            1,
            10,
            &DncConfig::default(),
        )
        .unwrap();
        assert!(!out.covered); // no positives in the second half
        assert_eq!(out.count, 0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_n_panics() {
        let truth = truth_from_positions(4, &[]);
        run(&truth, 1, 0, &DncConfig::default());
    }

    /// The paper's tightness argument (§3.2): with τ−1 members uniformly
    /// spread, cost approaches the Θ(τ·log(n/τ)) adversarial bound but
    /// never exceeds the N/n + 2·τ·log2(n) envelope.
    #[test]
    fn adversarial_spread_stays_within_bound() {
        let n_total = 4096usize;
        let tau = 32usize;
        let positives: Vec<usize> = (0..tau - 1).map(|i| i * (n_total / tau)).collect();
        let truth = truth_from_positions(n_total, &positives);
        let out = run(&truth, tau, n_total, &DncConfig::default());
        assert!(!out.covered);
        assert_eq!(out.count, tau - 1);
        let bound = 1.0 + 2.0 * (tau as f64) * (n_total as f64).log2();
        assert!(
            (out.set_queries as f64) <= bound,
            "{} > {bound}",
            out.set_queries
        );
    }

    /// A perfect oracle that logs every set it answers and every request
    /// it receives, and refuses every set past the first `allow`.
    pub(crate) struct AskLog<'a> {
        inner: PerfectSource<'a, VecGroundTruth>,
        pub(crate) asked: Vec<Vec<ObjectId>>,
        pub(crate) requests: usize,
        allow: usize,
    }

    impl<'a> AskLog<'a> {
        pub(crate) fn new(truth: &'a VecGroundTruth) -> Self {
            Self::capped(truth, usize::MAX)
        }

        fn capped(truth: &'a VecGroundTruth, allow: usize) -> Self {
            Self {
                inner: PerfectSource::new(truth),
                asked: Vec::new(),
                requests: 0,
                allow,
            }
        }
    }

    impl AskLog<'_> {
        fn answer(&mut self, objects: &[ObjectId], target: &Target) -> Result<bool, AskError> {
            if self.asked.len() == self.allow {
                return Err(AskError::SourceFailed("cap".into()));
            }
            self.asked.push(objects.to_vec());
            self.inner.try_answer_set(objects, target)
        }
    }

    impl AnswerSource for AskLog<'_> {
        fn try_answer_set(
            &mut self,
            objects: &[ObjectId],
            target: &Target,
        ) -> Result<bool, AskError> {
            self.requests += 1;
            self.answer(objects, target)
        }

        fn try_answer_point_labels(&mut self, object: ObjectId) -> Result<Labels, AskError> {
            self.inner.try_answer_point_labels(object)
        }

        fn try_answer_sets_many(&mut self, sets: &[SetQuery<'_>]) -> SetBatch {
            self.requests += 1;
            Batch::one_at_a_time(sets, |(objects, target)| self.answer(objects, target))
        }
    }

    type Run = (
        Result<GroupCoverageOutcome, Interrupted<GroupCoverageOutcome>>,
        TaskLedger,
        Vec<Vec<ObjectId>>,
        usize,
    );

    /// Runs the wave driver and the one-at-a-time oracle on the same input;
    /// the asked sets come back sorted.
    fn both_drivers(
        truth: &VecGroundTruth,
        tau: usize,
        n: usize,
        config: &DncConfig,
        allow: usize,
    ) -> (Run, Run) {
        let pool = truth.all_ids();
        let run = |waves: bool| -> Run {
            let mut engine = Engine::new(AskLog::capped(truth, allow));
            let out = if waves {
                group_coverage(&mut engine, &pool, &minority(), tau, n, config)
            } else {
                group_coverage_one_at_a_time(&mut engine, &pool, &minority(), tau, n, config)
            };
            let ledger = *engine.ledger();
            let source = engine.into_source();
            let mut asked = source.asked;
            asked.sort_unstable();
            (out, ledger, asked, source.requests)
        };
        (run(true), run(false))
    }

    /// Figure 4 with waves: the same seven queries, in fewer requests.
    #[test]
    fn running_example_asks_the_same_queries_in_waves() {
        let truth = truth_from_positions(16, &[4, 7, 12, 13, 15]);
        let ((out, ledger, asked, requests), (oracle, oracle_ledger, oracle_asked, _)) =
            both_drivers(&truth, 3, 16, &DncConfig::default(), usize::MAX);
        assert_eq!(out, oracle);
        assert_eq!(ledger, oracle_ledger);
        assert_eq!(asked, oracle_asked);
        assert_eq!(oracle_ledger.set_queries(), 7);
        assert!(requests < 7, "{requests} requests for 7 queries");
    }

    /// With no coverage in sight every root is certain: one wave asks them
    /// all, and each later BFS level is one or two more.
    #[test]
    fn roots_go_out_as_one_wave() {
        let truth = truth_from_positions(1000, &[]);
        let mut engine = Engine::new(AskLog::new(&truth));
        let out = group_coverage(
            &mut engine,
            &truth.all_ids(),
            &minority(),
            50,
            50,
            &DncConfig::default(),
        )
        .unwrap();
        assert_eq!(out.set_queries, 20);
        assert_eq!(engine.source().requests, 1);
    }

    /// A wave cut short: the driver uses what arrived, stops with the
    /// wave's error at the first slot it did not get, and meters every
    /// delivered set, consumed or not.
    #[test]
    fn driver_stops_at_the_first_undelivered_slot() {
        let positives: Vec<usize> = (0..1000).step_by(37).collect();
        let truth = truth_from_positions(1000, &positives);
        let (waves, oracle) = both_drivers(&truth, 50, 50, &DncConfig::with_witnesses(), 12);
        let (out, ledger, asked, _) = waves;
        let cut = out.unwrap_err();
        assert_eq!(cut.error, AskError::SourceFailed("cap".into()));
        assert_eq!(ledger.set_queries(), 12);
        assert_eq!(cut.partial.set_queries, 12);
        assert_eq!(asked.len(), 12);
        let full = run(&truth, 50, 50, &DncConfig::with_witnesses());
        assert!(full.witnesses.starts_with(&cut.partial.witnesses));
        assert!(cut.partial.count <= oracle.0.unwrap_err().partial.count.max(full.count));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The wave driver asks exactly the set queries the one-at-a-time
        /// driver asks, and returns the same outcome and ledger, under BFS
        /// and DFS, with witnesses on and off; n = 1, τ equal to the member
        /// count and dense pools included.
        #[test]
        fn prop_waves_match_the_one_at_a_time_driver(
            n_total in 1usize..1500,
            density in 0.0f64..1.0,
            dense in proptest::bool::ANY,
            tau in 1usize..200,
            tau_is_members in proptest::bool::ANY,
            n in 1usize..300,
            n_is_one in proptest::bool::ANY,
            seed in 0u64..10_000,
            dfs in proptest::bool::ANY,
            collect_witnesses in proptest::bool::ANY,
        ) {
            let density = if dense { density } else { density / 10.0 };
            let mut positives = Vec::new();
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
            for i in 0..n_total {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if ((state >> 33) as f64 / (1u64 << 31) as f64) < density {
                    positives.push(i);
                }
            }
            let tau = if tau_is_members { positives.len().max(1) } else { tau };
            let n = if n_is_one { 1 } else { n };
            let truth = truth_from_positions(n_total, &positives);
            let config = DncConfig {
                traversal: if dfs { Traversal::Dfs } else { Traversal::Bfs },
                collect_witnesses,
            };
            let (waves, oracle) = both_drivers(&truth, tau, n, &config, usize::MAX);
            prop_assert_eq!(&waves.0, &oracle.0);
            prop_assert_eq!(waves.1, oracle.1);
            prop_assert_eq!(&waves.2, &oracle.2);
            prop_assert!(waves.3 <= oracle.3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Correctness (Lemma 3.1) on arbitrary compositions, both orders.
        #[test]
        fn prop_correct_decision(
            n_total in 1usize..600,
            density in 0.0f64..0.3,
            tau in 1usize..60,
            n in 1usize..100,
            seed in 0u64..1000,
            dfs in proptest::bool::ANY,
        ) {
            // Deterministic pseudo-random positive placement.
            let mut positives = Vec::new();
            let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
            for i in 0..n_total {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if ((state >> 33) as f64 / (1u64 << 31) as f64) < density {
                    positives.push(i);
                }
            }
            let truth = truth_from_positions(n_total, &positives);
            let cfg = DncConfig {
                traversal: if dfs { Traversal::Dfs } else { Traversal::Bfs },
                collect_witnesses: true,
            };
            let out = run(&truth, tau, n, &cfg);
            prop_assert_eq!(out.covered, positives.len() >= tau);
            if !out.covered {
                prop_assert_eq!(out.count, positives.len());
                let mut got: Vec<usize> = out.witnesses.iter().map(|o| o.index()).collect();
                got.sort_unstable();
                prop_assert_eq!(got, positives);
            } else {
                prop_assert!(out.count >= tau);
            }
        }

        /// Task count never exceeds the explicit worst-case envelope
        /// ⌈N/n⌉ + 2·τ·(log2(n)+1).
        #[test]
        fn prop_cost_within_envelope(
            n_total in 1usize..2000,
            positives_every in 1usize..50,
            tau in 1usize..40,
            n in 2usize..128,
        ) {
            let positives: Vec<usize> = (0..n_total).step_by(positives_every).collect();
            let truth = truth_from_positions(n_total, &positives);
            let out = run(&truth, tau, n, &DncConfig::default());
            let roots = n_total.div_ceil(n) as f64;
            let yes_leaves = (positives.len().min(tau)) as f64;
            let envelope = roots + 2.0 * yes_leaves * ((n as f64).log2() + 1.0);
            prop_assert!(
                (out.set_queries as f64) <= envelope,
                "tasks {} exceed envelope {envelope} (N={n_total}, n={n}, tau={tau})",
                out.set_queries
            );
        }
    }
}
