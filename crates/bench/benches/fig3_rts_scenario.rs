//! Regenerates **Figure 3** — the RTS scheduling scenario: under the same
//! collision pattern conflicting parents are enqueued and handed the object
//! on release; consecutive read requesters are served simultaneously.

use dstm_bench::settings;
use dstm_harness::experiments::scenarios;
use rts_core::SchedulerKind;

fn main() {
    let settings = settings();
    let writers = scenarios::run_collision(SchedulerKind::Rts, 6, 0);
    let readers = scenarios::run_collision(SchedulerKind::Rts, 1, 3);
    let mut out = scenarios::render(
        "Figure 3(a) — RTS scenario: six writers, one object",
        &writers,
    );
    out.push('\n');
    out.push_str(&scenarios::render(
        "Figure 3(b) — RTS scenario: one writer + three readers (read fan-out)",
        &readers,
    ));
    out.push_str(
        "\nExpected: enqueued > 0 and queue_served > 0 under RTS (parents parked,\n\
         object handed down the queue); readers served concurrently in (b).\n",
    );
    settings.emit("fig3_rts_scenario", &out);
}
