//! Golden output of the paper experiments.
//!
//! Runs the six experiment binaries (`table1`, `table2`, `fig6`, `fig7`,
//! `fig7_multi`, `ablations`) and compares each one's stdout byte for byte
//! with its file under `tests/golden/`. Every number they print is a
//! seeded function of the code, so a change that moves a crowd bill, a
//! verdict or a table cell shows here as a failed comparison.
//!
//! The only run-dependent text is the path in each `wrote <path>` line; it
//! is normalized to `wrote <results>/<file>`. There is no bless switch: to
//! regenerate a file, run its binary by hand and review the diff, e.g.
//!
//! ```text
//! cargo run -q -p cvg-bench --bin table1 \
//!     | sed 's|^wrote .*/|wrote <results>/|' > crates/bench/tests/golden/table1.txt
//! ```

use std::path::Path;
use std::process::Command;

/// Runs `exe` with its results directory in a fresh temp dir and returns
/// its stdout with the `wrote` paths normalized.
fn normalized_stdout(name: &str, exe: &str) -> String {
    let dir = std::env::temp_dir().join(format!("cvg-paper-golden-{}-{name}", std::process::id()));
    let output = Command::new(exe)
        .env("CVG_RESULTS_DIR", &dir)
        .output()
        .unwrap_or_else(|e| panic!("{name} does not start: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        output.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    stdout
        .split_inclusive('\n')
        .map(|line| match line.strip_prefix("wrote ") {
            Some(path) => {
                let file = Path::new(path.trim_end())
                    .file_name()
                    .expect("a written path names a file");
                let end = &line[line.trim_end().len()..];
                format!("wrote <results>/{}{end}", file.to_string_lossy())
            }
            None => line.to_string(),
        })
        .collect()
}

fn check(name: &str, exe: &str, golden: &str) {
    let got = normalized_stdout(name, exe);
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "{name} output differs from tests/golden/{name}.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            got.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}

#[test]
fn table1_matches_golden() {
    check(
        "table1",
        env!("CARGO_BIN_EXE_table1"),
        include_str!("golden/table1.txt"),
    );
}

#[test]
fn table2_matches_golden() {
    check(
        "table2",
        env!("CARGO_BIN_EXE_table2"),
        include_str!("golden/table2.txt"),
    );
}

#[test]
fn fig6_matches_golden() {
    check(
        "fig6",
        env!("CARGO_BIN_EXE_fig6"),
        include_str!("golden/fig6.txt"),
    );
}

#[test]
fn fig7_matches_golden() {
    check(
        "fig7",
        env!("CARGO_BIN_EXE_fig7"),
        include_str!("golden/fig7.txt"),
    );
}

#[test]
fn fig7_multi_matches_golden() {
    check(
        "fig7_multi",
        env!("CARGO_BIN_EXE_fig7_multi"),
        include_str!("golden/fig7_multi.txt"),
    );
}

#[test]
fn ablations_matches_golden() {
    check(
        "ablations",
        env!("CARGO_BIN_EXE_ablations"),
        include_str!("golden/ablations.txt"),
    );
}
