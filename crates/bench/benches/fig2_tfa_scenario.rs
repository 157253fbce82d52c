//! Regenerates **Figure 2** — the TFA abort anatomy: six transactions race
//! for one object; the committer's validation aborts both the transactions
//! that requested earlier (their versions go stale) and the ones that
//! request during the validation window.

use dstm_bench::settings;
use dstm_harness::experiments::scenarios;
use rts_core::SchedulerKind;

fn main() {
    let settings = settings();
    let r = scenarios::run_collision(SchedulerKind::Tfa, 6, 0);
    let mut out = scenarios::render(
        "Figure 2 — TFA scenario: six writers, one object, no scheduler",
        &r,
    );
    out.push_str(
        "\nExpected anatomy: scheduler(lock-busy) aborts > 0 AND validation aborts > 0;\n\
         all six transactions eventually commit and the counter serializes to 6.\n",
    );
    settings.emit("fig2_tfa_scenario", &out);
}
