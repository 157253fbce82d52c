//! Backoff ablations (DESIGN.md AB2).
//!
//! Two design choices the paper leaves implicit are swept here:
//!
//! 1. the **queue-deadline slack** RTS applies to the assigned backoff
//!    (§IV-B notes *"anticipating an exact execution time is too
//!    optimistic; an assigned backoff time may expire before the
//!    transaction can obtain an object"* — slack trades queue-timeout
//!    aborts against dead waiting time);
//! 2. the **base backoff** of the TFA+Backoff baseline (how generous the
//!    competitor is tuned).

use super::Scale;
use crate::runner::{run_cells, Cell};
use crate::table::TextTable;
use dstm_benchmarks::Benchmark;
use dstm_sim::SimDuration;
use rts_core::SchedulerKind;

/// Results of both ablations.
#[derive(Clone, Debug)]
pub struct BackoffAblation {
    /// (slack percent, throughput, queue-timeout aborts).
    pub slack: Vec<(u64, f64, u64)>,
    /// (backoff base ms, TFA+Backoff throughput).
    pub base: Vec<(u64, f64)>,
}

/// Sweep on Bank at high contention.
pub fn run(scale: &Scale, workers: Option<usize>) -> BackoffAblation {
    let nodes = *scale.node_counts.last().unwrap_or(&20).min(&20);
    let slack_percents = [100u64, 150, 200, 300];
    let bases_ms = [5u64, 10, 20, 40];

    let mut cells = Vec::new();
    for &pc in &slack_percents {
        let mut c = Cell::new(Benchmark::Bank, SchedulerKind::Rts, nodes, 0.1)
            .with_txns(scale.txns_per_node);
        c.dstm.queue_deadline_percent = pc;
        cells.push(c);
    }
    for &ms in &bases_ms {
        let mut c = Cell::new(Benchmark::Bank, SchedulerKind::TfaBackoff, nodes, 0.1)
            .with_txns(scale.txns_per_node);
        c.dstm.backoff_base = SimDuration::from_millis(ms);
        cells.push(c);
    }
    let results = run_cells(cells, workers);

    let (slack_runs, base_runs) = results.split_at(slack_percents.len());
    let slack = slack_percents
        .iter()
        .zip(slack_runs)
        .map(|(&pc, r)| (pc, r.throughput(), r.metrics.merged.aborts_queue_timeout))
        .collect();
    let base = bases_ms
        .iter()
        .zip(base_runs)
        .map(|(&ms, r)| (ms, r.throughput()))
        .collect();
    BackoffAblation { slack, base }
}

pub fn render(a: &BackoffAblation) -> String {
    let mut t1 = TextTable::new(vec!["deadline slack %", "throughput", "queue timeouts"]);
    for (pc, y, to) in &a.slack {
        t1.row(vec![pc.to_string(), format!("{y:.2}"), to.to_string()]);
    }
    let mut t2 = TextTable::new(vec!["TFA+Backoff base (ms)", "throughput"]);
    for (ms, y) in &a.base {
        t2.row(vec![ms.to_string(), format!("{y:.2}")]);
    }
    format!(
        "RTS queue-deadline slack (Bank, high contention)\n{}\nTFA+Backoff base backoff (Bank, high contention)\n{}",
        t1.render(),
        t2.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_ablation() {
        let a = run(&Scale::smoke(), Some(1));
        assert_eq!(a.slack.len(), 4);
        assert_eq!(a.base.len(), 4);
        assert!(a.slack.iter().all(|(_, y, _)| *y > 0.0));
        assert!(a.base.iter().all(|(_, y)| *y > 0.0));
        assert!(render(&a).contains("deadline slack"));
    }
}
