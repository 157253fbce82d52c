//! EXPERIMENTS.md quotes two committed tables, Table I and Fig. 6, cell for
//! cell. Each quoted number must equal the one in the row of the same
//! benchmark in `paper_results/`, so a regenerated table cannot leave the
//! prose describing an older run.

use std::path::Path;

/// One table row: the benchmark, then its numbers as written, units dropped.
type Row = (String, Vec<String>);

fn read(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn number(cell: &str) -> String {
    cell.trim_end_matches(['%', '×', 'x']).to_string()
}

/// The body rows of the first Markdown table after `marker` in the section
/// headed `section`.
fn quoted(doc: &str, section: &str, marker: &str) -> Vec<Row> {
    let section = doc
        .find(section)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md lacks {section:?}"));
    let from = section
        + doc[section..]
            .find(marker)
            .unwrap_or_else(|| panic!("EXPERIMENTS.md lacks {marker:?}"));
    doc[from..]
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|l| {
            let mut cells = l.trim_matches('|').split('|').map(str::trim);
            let name = cells.next().expect("a benchmark cell").to_string();
            (name, cells.map(number).collect())
        })
        .collect()
}

/// The body rows of a `paper_results/` table: the lines from its dashed
/// rule to the next blank line. Benchmark names hold no digit; each number
/// starts with one.
fn committed(text: &str) -> Vec<Row> {
    text.lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .map(|l| {
            let at = l
                .find(|c: char| c.is_ascii_digit())
                .unwrap_or_else(|| panic!("no number in {l:?}"));
            let numbers = l[at..].split_whitespace().map(number).collect();
            (l[..at].trim().to_string(), numbers)
        })
        .collect()
}

fn assert_in_sync(section: &str, results: &str) {
    let doc = quoted(&read("EXPERIMENTS.md"), section, "Measured");
    let committed = committed(&read(results));
    assert_eq!(committed.len(), 6, "{results}: one row per benchmark");
    assert!(committed.iter().all(|(_, cells)| cells.len() == 4));
    assert_eq!(
        doc, committed,
        "EXPERIMENTS.md {section:?} against {results}"
    );
}

#[test]
fn table_i_quotes_the_committed_run() {
    assert_in_sync("## Table I", "paper_results/table1_abort_rate.txt");
}

#[test]
fn figure_6_quotes_the_committed_run() {
    assert_in_sync("## Figure 6", "paper_results/fig6_speedup.txt");
}
