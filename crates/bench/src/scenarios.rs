//! The multi-group experiment settings of the paper's Table 3, plus the
//! compositions behind Figures 7e–7h.
//!
//! All scenarios use `N = 10 000`, `τ = 50`, `n = 50` (the paper's §6.5.2
//! defaults). Compositions are chosen so the *expected* aggregation
//! behaviour matches each setting's description:
//!
//! | setting | description (Table 3) |
//! |---|---|
//! | effective 1 | 3 uncovered minorities; their aggregated super-group is uncovered |
//! | effective 2 | 3 covered minorities |
//! | ineffective | 2 uncovered and one covered minority |
//! | adversarial | 3 uncovered minorities; their aggregated super-group is covered |

use coverage_core::engine::ObjectId;
use coverage_core::pattern::Pattern;
use coverage_core::schema::{Attribute, AttributeSchema};
use coverage_core::target::Target;
use coverage_service::{AuditKind, JobSpec};
use serde::{Deserialize, Serialize};

/// A named multi-group composition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scenario {
    /// Setting name as printed in the paper.
    pub name: &'static str,
    /// Table 3 description.
    pub description: &'static str,
    /// Per-group counts (group 0 is the majority).
    pub counts: Vec<usize>,
}

impl Scenario {
    /// Total objects.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

const N: usize = 10_000;

fn fill_majority(mut minorities: Vec<usize>) -> Vec<usize> {
    let used: usize = minorities.iter().sum();
    let mut counts = vec![N - used];
    counts.append(&mut minorities);
    counts
}

/// The four Table 3 settings for one attribute with `σ = 4` groups
/// (Figure 7e).
pub fn table3_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "effective 1",
            description: "3 uncovered minorities; aggregated super-group uncovered",
            counts: fill_majority(vec![15, 15, 10]),
        },
        Scenario {
            name: "effective 2",
            description: "3 covered minorities",
            counts: fill_majority(vec![150, 120, 100]),
        },
        Scenario {
            name: "ineffective",
            description: "2 uncovered and one covered minority",
            // The covered minority sits just above τ, so the 100-point
            // sample usually misses it and the heuristic wrongly merges it
            // with the tiny groups — the union then turns out covered and
            // every member is re-run (the paper's ineffectiveness case).
            counts: fill_majority(vec![20, 20, 55]),
        },
        Scenario {
            name: "adversarial",
            description: "3 uncovered minorities; aggregated super-group covered",
            counts: fill_majority(vec![40, 40, 40]),
        },
    ]
}

/// Effective-style compositions for varying cardinality `σ` (Figure 7g):
/// one majority plus `σ − 1` uncovered minorities whose *total* stays
/// below τ, so a single merged super-group certifies all of them at once
/// regardless of σ — that is what makes the gap to brute force widen.
pub fn varying_cardinality_scenario(sigma: usize) -> Scenario {
    assert!(sigma >= 2, "need at least two groups");
    let per_minority = 48 / (sigma - 1);
    Scenario {
        name: "effective",
        description: "σ−1 uncovered minorities, union uncovered",
        counts: fill_majority(vec![per_minority; sigma - 1]),
    }
}

/// The four Table 3 settings over three binary attributes — 8
/// fully-specified cells, ordered like `schema.full_groups()`
/// (Figure 7f). With binary attributes, sibling super-groups are pairs.
pub fn intersectional_scenarios_2x2x2() -> Vec<Scenario> {
    // Cell order: 000,001,010,011,100,101,110,111.
    let spread = |tiny: [usize; 4]| -> Vec<usize> {
        let moderate = 500usize;
        let used: usize = 3 * moderate + tiny.iter().sum::<usize>();
        vec![
            N - used,
            moderate,
            tiny[0],
            tiny[1],
            moderate,
            moderate,
            tiny[2],
            tiny[3],
        ]
    };
    vec![
        Scenario {
            name: "effective 1",
            description: "uncovered sibling cells; merged unions uncovered",
            counts: spread([12, 12, 10, 10]),
        },
        Scenario {
            name: "effective 2",
            description: "covered minorities",
            counts: spread([100, 100, 100, 100]),
        },
        Scenario {
            name: "ineffective",
            description: "uncovered cells next to covered siblings",
            counts: spread([20, 120, 20, 120]),
        },
        Scenario {
            name: "adversarial",
            description: "uncovered cells whose sibling unions are covered",
            counts: spread([40, 40, 40, 40]),
        },
    ]
}

/// Composition over 2 attributes with cardinalities (2, 4) — 8 cells,
/// matched to the 2×2×2 "effective 1" totals (Figure 7h compares the two).
pub fn intersectional_scenario_2x4() -> Scenario {
    Scenario {
        name: "effective 1 (2×4)",
        description: "uncovered sibling cells; merged unions uncovered",
        counts: vec![N - 1544, 500, 12, 12, 500, 500, 10, 10],
    }
}

/// The high-arity schema of the `giant_audit` scale-out scenario:
/// gender (2) × race (4) × age (3) — 24 fully-specified cells, 60 lattice
/// patterns. Arity is what blows up Intersectional-Coverage, so this is
/// the regime where the interleaved super-group scan has to earn its keep.
pub fn giant_audit_schema() -> AttributeSchema {
    AttributeSchema::new(vec![
        Attribute::binary("gender", "male", "female").expect("attribute"),
        Attribute::new("race", ["white", "black", "hispanic", "asian"]).expect("attribute"),
        Attribute::new("age", ["child", "adult", "senior"]).expect("attribute"),
    ])
    .expect("schema")
}

/// Cell counts for the `giant_audit` tenant, in `full_groups()` order.
///
/// The composition is chosen so the super-group scan fans out into many
/// independent work items at `τ = 50`: a few large cells the `c·τ` sample
/// certifies nearly for free, a band of moderate cells that each need
/// their own Group-Coverage run (singleton super-groups, whose waves
/// share rounds), and tiny sibling cells that merge into uncovered super-groups
/// whose members get exact counts via witness resolution.
pub fn giant_audit_counts() -> Vec<usize> {
    vec![
        // male: white, black, hispanic, asian × child, adult, senior
        700, 90, 75, // white
        110, 18, 85, // black
        95, 12, 70, // hispanic
        80, 10, 65, // asian
        // female
        650, 100, 80, // white
        105, 15, 90, // black
        85, 8, 75, // hispanic
        70, 14, 60, // asian
    ]
}

/// A mixed multi-tenant workload for the `coverage-service` benchmarks and
/// tours: `jobs` audit jobs over one shared pool, cycling through all five
/// algorithms with overlapping targets so the service's shared cache has
/// real cross-job reuse to exploit.
///
/// Assumes a single-binary-attribute pool (value `1` = the minority under
/// audit), as produced by `dataset_sim::binary_dataset`.
///
/// # Panics
/// Panics when the pool is empty or `jobs == 0`.
pub fn service_mixed_workload(pool: &[ObjectId], jobs: usize, tau: usize) -> Vec<JobSpec> {
    assert!(
        !pool.is_empty() && jobs > 0,
        "need a pool and at least one job"
    );
    let minority = Target::group(Pattern::parse("1").expect("pattern"));
    let schema = AttributeSchema::single_binary("attr", "majority", "minority");
    (0..jobs)
        .map(|i| {
            let kind = match i % 5 {
                0 => AuditKind::GroupCoverage {
                    target: minority.clone(),
                },
                1 => AuditKind::MultipleCoverage {
                    groups: vec![
                        Pattern::parse("0").expect("pattern"),
                        Pattern::parse("1").expect("pattern"),
                    ],
                },
                2 => AuditKind::IntersectionalCoverage {
                    schema: schema.clone(),
                },
                // Base coverage scans one point HIT per object: keep its
                // slice short so it does not dominate the workload.
                3 => AuditKind::BaseCoverage {
                    target: minority.clone(),
                },
                _ => AuditKind::ClassifierCoverage {
                    target: minority.clone(),
                    predicted: pool[..(pool.len() / 10).max(1)].to_vec(),
                },
            };
            let job_pool = if matches!(kind, AuditKind::BaseCoverage { .. }) {
                pool[..(pool.len() / 4).max(1)].to_vec()
            } else {
                pool.to_vec()
            };
            JobSpec::new(format!("tenant-{i}"), job_pool, kind)
                .tau(tau + (i % 3) * 10)
                .seed(1000 + i as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_n() {
        for s in table3_scenarios() {
            assert_eq!(s.total(), N, "{}", s.name);
        }
        for s in intersectional_scenarios_2x2x2() {
            assert_eq!(s.total(), N, "{}", s.name);
        }
    }

    #[test]
    fn effective1_matches_table3_semantics() {
        let s = &table3_scenarios()[0];
        let tau = 50;
        let minorities = &s.counts[1..];
        assert!(minorities.iter().all(|c| *c < tau), "all uncovered");
        assert!(minorities.iter().sum::<usize>() < tau, "union uncovered");
    }

    #[test]
    fn adversarial_matches_table3_semantics() {
        let s = &table3_scenarios()[3];
        let tau = 50;
        let minorities = &s.counts[1..];
        assert!(minorities.iter().all(|c| *c < tau), "all uncovered");
        assert!(minorities.iter().sum::<usize>() >= tau, "union covered");
    }

    #[test]
    fn varying_cardinality_shapes() {
        for sigma in 3..=6 {
            let s = varying_cardinality_scenario(sigma);
            assert_eq!(s.counts.len(), sigma);
            assert_eq!(s.total(), N);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn sigma_one_panics() {
        varying_cardinality_scenario(1);
    }

    #[test]
    fn intersectional_2x4_total_matches_2x2x2() {
        assert_eq!(intersectional_scenario_2x4().total(), N);
    }

    #[test]
    fn service_workload_cycles_algorithms() {
        let pool: Vec<ObjectId> = (0..1000).map(ObjectId).collect();
        let jobs = service_mixed_workload(&pool, 8, 50);
        assert_eq!(jobs.len(), 8);
        let algorithms: std::collections::HashSet<&str> =
            jobs.iter().map(|j| j.kind.name()).collect();
        assert_eq!(algorithms.len(), 5, "all five algorithms appear");
        for job in &jobs {
            assert!(!job.pool.is_empty());
            assert!(job.tau >= 50);
        }
        // Base-coverage jobs get the short slice.
        let base = jobs
            .iter()
            .find(|j| j.kind.name() == "base_coverage")
            .unwrap();
        assert_eq!(base.pool.len(), 250);
    }
}
