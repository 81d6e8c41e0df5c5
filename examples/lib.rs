//! Shared helpers for the runnable examples.
//!
//! The real content lives in the sibling binaries:
//!
//! * `quickstart` — one group, one dataset, a perfect oracle: the minimal
//!   end-to-end use of `group_coverage`.
//! * `dataset_audit` — a full intersectional audit (gender × race) of a
//!   simulated face-image dataset, reporting MUPs.
//! * `classifier_assisted` — using a pre-trained (simulated) gender
//!   classifier to cut the crowd bill, on the paper's Table 2 settings.
//! * `crowd_platform_tour` — the crowdsourcing substrate itself: worker
//!   pools, quality control regimes, truth inference, and what they do to
//!   answer quality.
//! * `budgeted_audit` — budget caps and graceful `Exhausted` outcomes.
//! * `concurrent_audits` — nine tenants share one platform through the
//!   scoped service: latency overlap + cross-job reuse wins.
//! * `giant_audit` — one high-arity audit whose interleaved scan shares
//!   dispatcher rounds, across store shard counts.
//! * `daemon_audit` — the long-lived daemon behind its HTTP/JSON API:
//!   prioritized submissions, live statuses, a mid-run cancellation and a
//!   byte-identity check against the scoped run.
//!
//! Run any of them with `cargo run -p cvg-examples --bin <name>`.

/// Formats a dollar amount for example output.
pub fn dollars(x: f64) -> String {
    format!("${x:.2}")
}

/// Formats a percentage for example output.
pub fn percent(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting_helpers() {
        assert_eq!(super::dollars(1.234), "$1.23");
        assert_eq!(super::percent(0.0136), "1.36%");
    }
}
