//! `parse_reproducer` reads files a person may have edited or truncated:
//! whatever the bytes, it answers `Ok` or `Err` and never panics, and every
//! spec it accepts is one the flags of `dstm-verify fuzz` accept too — so
//! `replay` never runs what `fuzz` would have refused.

use dstm_sim::{Perturb, Schedule};
use dstm_verify::{parse_reproducer, reproducer_text, EpisodeSpec};
use proptest::prelude::*;
use rts_core::SchedulerKind;

/// Lines a hand edit or a truncation leaves behind: every directive, with
/// counts at and past the edges, and a few that mean nothing.
const SPLICES: &[&str] = &[
    "nodes 0",
    "nodes 1",
    "nodes 16777216",
    "nodes 16777217",
    "nodes 3000000000",
    "nodes 18446744073709551616",
    "nodes -1",
    "txns 0",
    "txns 1",
    "txns 99999999999999999999",
    "seed",
    "seed 0",
    "seed 18446744073709551615",
    "delay 1",
    "delay 18446744073709551615 18446744073709551615",
    "tieswap 0 0",
    "tieswap 7",
    "cache maybe",
    "telemetry on",
    "telemetry off",
    "benchmark bnak",
    "scheduler rts",
    "scheduler",
    "# comment",
    "",
    "nodes\t4",
    "é ü \u{0}",
];

/// A reproducer as `fuzz` writes it, for a spec and schedule built from
/// `picks`.
fn written(picks: &[u64]) -> String {
    let at = |i: usize| picks.get(i).copied().unwrap_or(0);
    let spec = EpisodeSpec {
        scheduler: [
            SchedulerKind::Tfa,
            SchedulerKind::TfaBackoff,
            SchedulerKind::Rts,
        ][at(0) as usize % 3],
        nodes: 1 + at(1) as usize % 8,
        txns: 1 + at(2) as usize % 5,
        cache: at(3) % 2 == 0,
        ..EpisodeSpec::default()
    };
    let schedule = Schedule {
        seed: at(5),
        perturbations: picks
            .iter()
            .skip(6)
            .map(|&p| {
                if p % 2 == 0 {
                    Perturb::Delay {
                        push_step: p % 97,
                        extra_ns: p,
                    }
                } else {
                    Perturb::TieSwap {
                        pop_step: p % 89,
                        rank: p % 5,
                    }
                }
            })
            .collect(),
    };
    reproducer_text(&spec, &schedule)
}

/// `text` with each edit applied: cut at a byte, drop a byte, overwrite a
/// byte, insert a line from [`SPLICES`] before a line, or put one in a
/// line's place.
fn edited(text: &str, edits: &[(u64, u8, u8)]) -> String {
    let mut text = text.to_string();
    for &(at, op, b) in edits {
        let splice = SPLICES[b as usize % SPLICES.len()];
        if op % 5 >= 3 {
            let mut lines: Vec<&str> = text.lines().collect();
            let k = (at as usize) % (lines.len() + 1);
            if op % 5 == 3 || k == lines.len() {
                lines.insert(k, splice);
            } else {
                lines[k] = splice;
            }
            text = lines.join("\n");
            continue;
        }
        let mut bytes = text.into_bytes();
        let i = (at as usize) % (bytes.len() + 1);
        match op % 5 {
            0 => bytes.truncate(i),
            1 if i < bytes.len() => {
                bytes.remove(i);
            }
            _ if i < bytes.len() => bytes[i] = b,
            _ => {}
        }
        text = String::from_utf8_lossy(&bytes).into_owned();
    }
    text
}

/// The property: an answer, not a panic, and nothing `fuzz` would refuse.
fn parses_or_refuses(text: &str) -> Result<(), TestCaseError> {
    if let Ok((spec, _)) = parse_reproducer(text) {
        prop_assert!(
            spec.validate().is_ok(),
            "accepted {spec:?}, which the flags refuse, from {text:?}"
        );
    }
    Ok(())
}

/// Reproducers written while the epoch sampler could be turned off carry a
/// `telemetry` line. `on` describes every episode and still replays; `off`
/// names one no episode runs any more, and is refused like any bad value.
#[test]
fn a_telemetry_line_is_read_as_before_or_refused() {
    let schedule = Schedule {
        seed: 7,
        perturbations: Vec::new(),
    };
    let text = reproducer_text(&EpisodeSpec::default(), &schedule);
    let with = |line: &str| text.replacen("cache on\n", &format!("cache on\n{line}\n"), 1);
    assert_eq!(
        parse_reproducer(&with("telemetry on")),
        Ok((EpisodeSpec::default(), schedule))
    );
    assert_eq!(
        parse_reproducer(&with("telemetry off")),
        Err("line 7: bad telemetry flag: `off`".to_string())
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn an_arbitrary_blob_is_parsed_or_refused(
        bytes in proptest::collection::vec(0u8..=255, 0..160),
    ) {
        parses_or_refuses(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn an_edited_reproducer_is_parsed_or_refused(
        picks in proptest::collection::vec(0u64..1_000_000, 0..12),
        edits in proptest::collection::vec((0u64..4_096, 0u8..=255, 0u8..=255), 0..6),
    ) {
        parses_or_refuses(&edited(&written(&picks), &edits))?;
    }

    #[test]
    fn a_written_reproducer_parses_back(
        picks in proptest::collection::vec(0u64..1_000_000, 0..12),
    ) {
        let text = written(&picks);
        prop_assert!(parse_reproducer(&text).is_ok(), "{text}");
        parses_or_refuses(&text)?;
    }
}
