//! Fixed-width table rendering and the one output path of the figures
//! (`emit`): table to stdout, `--json` and `--snapshot` files.

use crate::json::ToJson;
use crate::stream::operator_error;
use crate::HarnessOpts;
use std::io::Write;

/// A simple text table.
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have as many cells as the header).
    pub(crate) fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render the table as an aligned string.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// One column of a figure table: its header and the cell it renders from a
/// row, side by side.
pub(crate) type Column<R> = (&'static str, fn(&R) -> String);

/// Print `text` and a newline to stdout. A stdout that cannot take it (a
/// full disk behind a redirect) is an operator error naming `what` was being
/// written, not `println!`'s panic.
pub fn print_stdout(what: &str, text: &str) {
    write_stdout(&mut std::io::stdout().lock(), what, text).unwrap_or_else(|e| operator_error(&e));
}

/// [`print_stdout`] into `out`, which is stdout outside the short-write
/// tests; the error names what was being written.
pub(crate) fn write_stdout(out: &mut impl Write, what: &str, text: &str) -> Result<(), String> {
    writeln!(out, "{text}")
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing {what} to stdout: {e}"))
}

/// Print one table of a figure to stdout: the title line, then one line per
/// row with the given columns, through [`print_stdout`].
pub(crate) fn print_table<R>(title: &str, columns: &[Column<R>], rows: &[R]) {
    let header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
    let mut table = Table::new(&header);
    for row in rows {
        table.row(columns.iter().map(|(_, cell)| cell(row)).collect());
    }
    print_stdout("the table", &format!("{title}\n{}", table.render()));
}

/// Emit a finished figure: [`print_table`] its table, then write `payload`
/// to the `--json` file and — wrapped with the figure `tag`, tier and seed,
/// the shape `fig trajectory diff` compares across commits — to the
/// `--snapshot` file, whichever were requested. An unwritable path is an
/// operator error (exit 2), not a panic after the sweep has finished.
pub(crate) fn emit<R>(
    opts: &HarnessOpts,
    tag: &str,
    title: &str,
    columns: &[Column<R>],
    rows: &[R],
    payload: &dyn ToJson,
) {
    print_table(title, columns, rows);
    let write = |path: &String, contents: String| {
        std::fs::write(path, contents)
            .unwrap_or_else(|e| operator_error(&format!("writing {path}: {e}")));
        eprintln!("wrote {path}");
    };
    if let Some(path) = &opts.json {
        write(path, payload.to_json());
    }
    if let Some(path) = &opts.snapshot {
        let mut out = String::from("{\"fig\":");
        tag.write_json(&mut out);
        out.push_str(",\"tier\":");
        opts.scale.name().write_json(&mut out);
        out.push_str(",\"seed\":");
        opts.seed.write_json(&mut out);
        out.push_str(",\"payload\":");
        payload.write_json(&mut out);
        out.push('}');
        write(path, out);
    }
}

/// Format a float with two decimals.
pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a virtual-time value (nanoseconds) as seconds with three decimals.
pub(crate) fn secs(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2.50".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_row_width() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(secs(2_500_000_000), "2.500");
    }
}
