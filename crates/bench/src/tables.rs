//! Plain-text / markdown / JSON table rendering for the experiment harness.

use lap_obs::Json;
use std::fmt;
use std::time::Duration;

/// One table cell: a typed value that renders as text and exports as a
/// JSON number wherever it is one.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// An exact count (`1420`).
    Count(u64),
    /// A measured number printed with `decimals` places and its [`Unit`].
    Fixed {
        /// The value, in the unit shown (a percent cell holds `42.0` for `42%`).
        value: f64,
        /// Decimal places in the rendering.
        decimals: usize,
        /// Suffix and sign convention.
        unit: Unit,
    },
    /// A wall-clock time (`12.30µs`); exported in seconds.
    Duration(Duration),
    /// Free text (labels, verdicts); exported as a string.
    Text(String),
    /// Not applicable: renders as `-`, exported as `null`.
    Blank,
}

/// How a [`Cell::Fixed`] value is suffixed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// A bare number (`0.42`).
    Plain,
    /// A ratio (`2.50x`).
    Ratio,
    /// A percentage (`42%`).
    Percent,
    /// A signed relative change in percent (`+7.4%`, `-1.0%`).
    Change,
}

impl Cell {
    /// A bare number with `decimals` places.
    pub fn fixed(value: f64, decimals: usize) -> Cell {
        Cell::Fixed {
            value,
            decimals,
            unit: Unit::Plain,
        }
    }

    /// A ratio, rendered `{value}x`.
    pub fn ratio(value: f64, decimals: usize) -> Cell {
        Cell::Fixed {
            value,
            decimals,
            unit: Unit::Ratio,
        }
    }

    /// `part / whole` as a percentage.
    pub fn percent(part: f64, whole: f64, decimals: usize) -> Cell {
        Cell::Fixed {
            value: 100.0 * part / whole,
            decimals,
            unit: Unit::Percent,
        }
    }

    /// The relative change `value / base - 1` as a signed percentage.
    pub fn change(value: f64, base: f64) -> Cell {
        Cell::Fixed {
            value: (value / base - 1.0) * 100.0,
            decimals: 1,
            unit: Unit::Change,
        }
    }

    /// The cell as JSON: numbers for counts, fixed-point values and
    /// durations (seconds), a string for text, `null` for blanks.
    fn to_json(&self) -> Json {
        match self {
            Cell::Count(n) => Json::num(*n),
            Cell::Fixed { value, .. } => Json::Num(*value),
            Cell::Duration(d) => Json::Num(d.as_secs_f64()),
            Cell::Text(s) => Json::str(s),
            Cell::Blank => Json::Null,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Fixed {
                value,
                decimals,
                unit,
            } => match unit {
                Unit::Plain => write!(f, "{value:.decimals$}"),
                Unit::Ratio => write!(f, "{value:.decimals$}x"),
                Unit::Percent => write!(f, "{value:.decimals$}%"),
                Unit::Change => write!(f, "{value:+.decimals$}%"),
            },
            Cell::Duration(d) => f.write_str(&fmt_duration(*d)),
            Cell::Text(s) => f.write_str(s),
            Cell::Blank => f.write_str("-"),
        }
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Count(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Count(n as u64)
    }
}

impl From<Duration> for Cell {
    fn from(d: Duration) -> Cell {
        Cell::Duration(d)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_owned())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<bool> for Cell {
    fn from(b: bool) -> Cell {
        Cell::Text(b.to_string())
    }
}

/// A rendered experiment table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id + short title, e.g. `"E2 — ANSWERABLE scaling"`.
    pub title: String,
    /// One line of context (workload, parameters, the paper claim).
    pub caption: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (each row must match `columns.len()`).
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, caption: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            caption: caption.into(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    fn rendered_rows(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect()
    }

    /// Renders as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n{}\n\n", self.title, self.caption));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.columns.iter().map(|_| "---|").collect::<String>()
        ));
        for row in self.rendered_rows() {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders as a machine-readable [`Json`] value (the `lap-obs` writer;
    /// the workspace has no serde): `{id, title, caption, columns, rows}`,
    /// every cell as [`Cell::to_json`].
    fn to_json(&self, id: &str) -> Json {
        Json::obj([
            ("id", Json::str(id)),
            ("title", Json::str(&self.title)),
            ("caption", Json::str(&self.caption)),
            (
                "columns",
                Json::Arr(self.columns.iter().map(Json::str).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(Cell::to_json).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Bundles rendered tables, each with its experiment id, into one
/// exportable document: `{"tables": [{id, title, caption, columns, rows}, …]}`.
pub fn tables_to_json(tables: &[(&str, Table)]) -> Json {
    Json::obj([(
        "tables",
        Json::Arr(tables.iter().map(|(id, t)| t.to_json(id)).collect()),
    )])
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        writeln!(f, "  {}", self.caption)?;
        let rows = self.rendered_rows();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "  ")?;
            for (w, cell) in widths.iter().zip(cells.iter()) {
                write!(f, "{cell:<w$}  ", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.columns)?;
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &rule)?;
        for row in &rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a duration compactly (`12.3µs`, `4.56ms`, `1.23s`).
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Runs `f` repeatedly and returns the median wall time over `iters`
/// executions (with one warmup).
pub fn time_median(iters: usize, mut f: impl FnMut()) -> Duration {
    f(); // warmup
    let mut samples: Vec<Duration> = (0..iters.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Table {
        let mut t = Table::new(
            "E0 — demo",
            "a caption",
            &["n", "time", "share", "speedup", "note"],
        );
        t.row(vec![
            8usize.into(),
            Duration::from_nanos(1_200).into(),
            Cell::percent(1.0, 3.0, 0),
            Cell::ratio(2.5, 2),
            Cell::Blank,
        ]);
        t.row(vec![
            16usize.into(),
            Duration::from_nanos(4_900).into(),
            Cell::change(1.074, 1.0),
            Cell::fixed(0.5, 1),
            "ok".into(),
        ]);
        t
    }

    #[test]
    fn renders_text_and_markdown() {
        let t = demo();
        let text = t.to_string();
        assert!(text.contains("E0 — demo"));
        assert!(text.contains("16"));
        let md = t.to_markdown();
        assert!(md.starts_with("### E0 — demo"));
        assert!(md.contains("| 8 | 1.20µs | 33% | 2.50x | - |"), "{md}");
        assert!(md.contains("| 16 | 4.90µs | +7.4% | 0.5 | ok |"), "{md}");
    }

    #[test]
    fn json_export_round_trips() {
        let doc = tables_to_json(&[("e0", demo())]);
        let parsed = lap_obs::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc, "numbers must survive the round trip exactly");
        let tables = parsed.get("tables").and_then(Json::as_arr).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].get("id").and_then(Json::as_str), Some("e0"));
        assert_eq!(
            tables[0].get("title").and_then(Json::as_str),
            Some("E0 — demo")
        );
        let rows = tables[0].get("rows").and_then(Json::as_arr).unwrap();
        let first = rows[0].as_arr().unwrap();
        assert_eq!(first[0].as_u64(), Some(8));
        assert_eq!(first[1].as_f64(), Some(1.2e-6));
        assert_eq!(first[3].as_f64(), Some(2.5));
        assert_eq!(first[4], Json::Null);
        assert_eq!(rows[1].as_arr().unwrap()[4].as_str(), Some("ok"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new("t", "c", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn median_timing_is_positive() {
        let d = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d > Duration::ZERO);
    }
}
