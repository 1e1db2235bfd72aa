//! Experiment output: printable tables + JSON-serializable series.

use crate::json::JsonValue;
use std::fmt::Write as _;

/// A named (x, y) series, e.g. one strategy's accuracy-over-time curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label, e.g. `"haccs-P(y)"`.
    pub name: String,
    /// Axis label for x, e.g. `"time_s"`.
    pub x_label: String,
    /// Axis label for y, e.g. `"accuracy"`.
    pub y_label: String,
    /// The data points.
    pub points: Vec<(f64, f64)>,
}

/// A printable table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableBlock {
    /// Caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (stringified by the producer).
    pub rows: Vec<Vec<String>>,
}

impl TableBlock {
    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let hdr: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "| {} |", hdr.join(" | "));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect();
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }
}

/// The full output of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id (`"fig5a"`, `"tab3"`, ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Curves (time-accuracy etc.).
    pub series: Vec<Series>,
    /// Summary tables (TTA readouts etc.).
    pub tables: Vec<TableBlock>,
    /// Free-form observations recorded by the harness.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// An empty report shell.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            series: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Renders the report (tables + notes; series are summarized).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}\n", self.id, self.title);
        for t in &self.tables {
            let _ = writeln!(out, "{}", t.render());
        }
        for s in &self.series {
            let last = s.points.last().map(|p| format!("final {}={:.4}", s.y_label, p.1));
            let _ = writeln!(
                out,
                "series `{}`: {} points ({})",
                s.name,
                s.points.len(),
                last.unwrap_or_else(|| "empty".into())
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    fn to_value(&self) -> JsonValue {
        let series = self
            .series
            .iter()
            .map(|s| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(s.name.clone())),
                    ("x_label".into(), JsonValue::Str(s.x_label.clone())),
                    ("y_label".into(), JsonValue::Str(s.y_label.clone())),
                    (
                        "points".into(),
                        JsonValue::Arr(
                            s.points
                                .iter()
                                .map(|&(x, y)| {
                                    JsonValue::Arr(vec![JsonValue::Num(x), JsonValue::Num(y)])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let tables = self
            .tables
            .iter()
            .map(|t| {
                let strs = |v: &[String]| {
                    JsonValue::Arr(v.iter().map(|s| JsonValue::Str(s.clone())).collect())
                };
                JsonValue::Obj(vec![
                    ("title".into(), JsonValue::Str(t.title.clone())),
                    ("headers".into(), strs(&t.headers)),
                    ("rows".into(), JsonValue::Arr(t.rows.iter().map(|r| strs(r)).collect())),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("id".into(), JsonValue::Str(self.id.clone())),
            ("title".into(), JsonValue::Str(self.title.clone())),
            ("series".into(), JsonValue::Arr(series)),
            ("tables".into(), JsonValue::Arr(tables)),
            (
                "notes".into(),
                JsonValue::Arr(self.notes.iter().map(|n| JsonValue::Str(n.clone())).collect()),
            ),
        ])
    }

    /// Writes `<dir>/<id>.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = TableBlock {
            title: "demo".into(),
            headers: vec!["strategy".into(), "tta".into()],
            rows: vec![
                vec!["random".into(), "120.5".into()],
                vec!["haccs-P(y)".into(), "80.1".into()],
            ],
        };
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("| strategy   | tta   |"));
        assert!(r.contains("| haccs-P(y) | 80.1  |"));
    }

    #[test]
    fn report_json_names_every_field() {
        let mut r = ExperimentReport::new("fig5a", "TTA");
        r.series.push(Series {
            name: "random".into(),
            x_label: "time_s".into(),
            y_label: "accuracy".into(),
            points: vec![(10.0, 0.5)],
        });
        r.notes.push("hello".into());
        let json = r.to_json();
        for line in [
            r#""id": "fig5a","#,
            r#""title": "TTA","#,
            r#""name": "random","#,
            r#""x_label": "time_s","#,
            r#""y_label": "accuracy","#,
            r#""tables": [],"#,
            r#""hello""#,
        ] {
            assert!(json.lines().any(|l| l.trim() == line), "{line} missing from {json}");
        }
    }

    #[test]
    fn save_writes_file() {
        let dir = std::env::temp_dir().join("haccs-report-test");
        let r = ExperimentReport::new("x", "y");
        let path = r.save(&dir).unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn render_mentions_series() {
        let mut r = ExperimentReport::new("id", "title");
        r.series.push(Series {
            name: "s".into(),
            x_label: "x".into(),
            y_label: "acc".into(),
            points: vec![(1.0, 0.5)],
        });
        assert!(r.render().contains("final acc=0.5000"));
    }
}
