//! Plain-text table rendering for the regenerated paper artifacts.

use std::fmt::Write as _;

/// A column-aligned text table (Table I, Fig. 6 summaries, ablations).
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells);
        self
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", c, w = widths[i]);
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// An x-axis series plot rendered as text (Figs. 4–5: throughput vs nodes,
/// one column per scheduler).
#[derive(Clone, Debug)]
pub struct SeriesTable {
    pub title: String,
    pub x_label: String,
    pub series_labels: Vec<String>,
    /// (x, y per series)
    pub points: Vec<(u64, Vec<f64>)>,
}

impl SeriesTable {
    pub fn new<S: Into<String>>(title: S, x_label: S, series_labels: Vec<S>) -> Self {
        SeriesTable {
            title: title.into(),
            x_label: x_label.into(),
            series_labels: series_labels.into_iter().map(Into::into).collect(),
            points: Vec::new(),
        }
    }

    pub fn point(&mut self, x: u64, ys: Vec<f64>) -> &mut Self {
        assert_eq!(ys.len(), self.series_labels.len());
        self.points.push((x, ys));
        self
    }

    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            std::iter::once(self.x_label.clone())
                .chain(self.series_labels.iter().cloned())
                .collect(),
        );
        for (x, ys) in &self.points {
            let mut row = vec![x.to_string()];
            row.extend(ys.iter().map(|y| format!("{y:.2}")));
            t.row(row);
        }
        format!("{}\n{}", self.title, t.render())
    }

    /// The y values of one series by label.
    pub fn series(&self, label: &str) -> Vec<f64> {
        let idx = self
            .series_labels
            .iter()
            .position(|l| l == label)
            .unwrap_or_else(|| panic!("no series {label}"));
        self.points.iter().map(|(_, ys)| ys[idx]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(vec!["Bench", "RTS", "TFA"]);
        t.row(vec!["Vacation", "25.6%", "55.5%"]);
        t.row(vec!["DHT", "12.8%", "31.3%"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Bench"));
        assert!(lines[2].starts_with("Vacation"));
        // Columns aligned: "RTS" column starts at same offset everywhere.
        let col = lines[0].find("RTS").unwrap();
        assert_eq!(&lines[2][col..col + 5], "25.6%");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn series_table() {
        let mut s = SeriesTable::new("Bank low", "nodes", vec!["RTS", "TFA"]);
        s.point(10, vec![30.0, 20.0]);
        s.point(20, vec![28.0, 17.0]);
        assert_eq!(s.series("RTS"), vec![30.0, 28.0]);
        let text = s.render();
        assert!(text.contains("Bank low"));
        assert!(text.contains("28.00"));
    }
}
