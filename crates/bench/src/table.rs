//! Minimal aligned-table printing and CSV output for the experiment
//! binaries.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Collects rows and prints them as an aligned text table; optionally
/// writes CSV next to the repository's `results/` directory.
#[derive(Debug, Clone)]
pub struct TablePrinter {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Starts a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (stringifies anything displayable).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders the aligned table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV into `results/<name>.csv`.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect();
            writeln!(f, "{}", escaped.join(","))?;
        }
        Ok(path)
    }
}

/// The `results/` directory, resolved at run time: `CVG_RESULTS_DIR` if
/// set, else `results/` under the workspace root above the current
/// directory (see [`workspace_root`]), else under the current directory.
/// Benches run from their package directory and examples from wherever
/// `cargo run` was called, so both land in the root of the tree they run
/// in, never in the tree the binary was built from.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CVG_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    workspace_root(&cwd).unwrap_or(cwd).join("results")
}

/// The nearest directory at or above `start` whose `Cargo.toml` has a
/// `[workspace]` table.
pub fn workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|manifest| manifest.lines().any(|line| line.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TablePrinter::new("demo", &["name", "tasks"]);
        t.row(vec!["Group-Coverage".into(), "74".into()]);
        t.row(vec!["Base".into(), "342".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("Group-Coverage  74"));
        assert!(s.contains("Base            342"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = TablePrinter::new("demo", &["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn workspace_root_is_the_nearest_workspace_manifest() {
        let root = std::env::temp_dir().join(format!("cvg-ws-{}", std::process::id()));
        let member = root.join("crates").join("bench");
        let deep = member.join("src").join("bin");
        fs::create_dir_all(&deep).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/bench\"]\n\n[workspace.package]\n",
        )
        .unwrap();
        // A member manifest (even one naming workspace keys) is skipped.
        fs::write(
            member.join("Cargo.toml"),
            "[package]\nname = \"b\"\nversion.workspace = true\n",
        )
        .unwrap();
        assert_eq!(workspace_root(&deep).as_deref(), Some(root.as_path()));
        assert_eq!(workspace_root(&member).as_deref(), Some(root.as_path()));
        assert_eq!(workspace_root(&root).as_deref(), Some(root.as_path()));
        // A nested standalone package with its own empty `[workspace]`
        // table is a root of its own.
        let nested = root.join("perf");
        fs::create_dir_all(&nested).unwrap();
        fs::write(
            nested.join("Cargo.toml"),
            "[package]\nname = \"p\"\n\n[workspace]\n",
        )
        .unwrap();
        assert_eq!(workspace_root(&nested).as_deref(), Some(nested.as_path()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn csv_escapes_commas() {
        let dir = std::env::temp_dir().join(format!("cvg-test-{}", std::process::id()));
        std::env::set_var("CVG_RESULTS_DIR", &dir);
        let mut t = TablePrinter::new("demo", &["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let path = t.write_csv("escape_test").unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"x,y\",plain"));
        std::env::remove_var("CVG_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
