//! Custom workload: implement [`TxProgram`] by hand and run it on the
//! D-STM — a tiny replicated "leaderboard" where each transaction reads a
//! player's score in a closed-nested child, then bumps the global top score
//! at parent level if the player beat it.
//!
//! Demonstrates the public API a downstream user targets: resumable
//! transaction programs and their retry checkpoints, object payloads, and
//! system assembly.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use closed_nesting_dstm::prelude::*;

pub const TOP_SCORE: ObjectId = ObjectId(1);
const PLAYER_BASE: u64 = 100;
const PLAYERS: u64 = 12;

pub fn player_oid(i: u64) -> ObjectId {
    ObjectId(PLAYER_BASE + i)
}

/// One "report a new score" transaction.
#[derive(Clone)]
pub struct ReportScore {
    player: u64,
    new_score: i64,
    st: St,
    seen_player_score: i64,
    seen_top: i64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum St {
    Begin,
    ChildOpened,
    GotPlayer,
    PlayerWritten,
    ChildClosed,
    GotTop,
    TopWritten,
    Done,
}

impl ReportScore {
    pub fn new(player: u64, new_score: i64) -> Self {
        ReportScore {
            player,
            new_score,
            st: St::Begin,
            seen_player_score: 0,
            seen_top: 0,
        }
    }
}

impl TxProgram for ReportScore {
    fn kind(&self) -> TxKind {
        TxKind(100)
    }

    fn label(&self) -> &'static str {
        "report-score"
    }

    fn clone_box(&self) -> BoxedProgram {
        Box::new(self.clone())
    }

    /// How the executor retries this program without copying it. It asks
    /// only before the first step (`Begin`) and right behind the
    /// `OpenNested` (`ChildOpened`), and both scores are read again before
    /// they are used on the way from either — so which of the two states it
    /// was is the whole checkpoint. (Leave the pair out and the program
    /// still retries correctly, from a `clone_box` per nesting level.)
    fn checkpoint(&self) -> Option<ProgramCheckpoint> {
        Some(ProgramCheckpoint {
            pc: u64::from(self.st == St::ChildOpened),
            regs: [0; 3],
        })
    }

    /// A conflict inside the child rewinds to `ChildOpened` and replays the
    /// child alone; one at parent level rewinds to `Begin`.
    fn rewind(&mut self, to: &ProgramCheckpoint) {
        self.st = if to.pc == 1 {
            St::ChildOpened
        } else {
            St::Begin
        };
    }

    fn step(&mut self, input: StepInput<'_>) -> StepOutput {
        match self.st {
            St::Begin => {
                // Update the player's record inside a closed-nested child:
                // if it conflicts, only the child retries.
                self.st = St::ChildOpened;
                StepOutput::OpenNested(TxKind(101))
            }
            St::ChildOpened => {
                self.st = St::GotPlayer;
                StepOutput::Acquire(player_oid(self.player), AccessMode::Write)
            }
            St::GotPlayer => {
                let StepInput::Value(Payload::Scalar(s)) = input else {
                    panic!("player record must be a scalar")
                };
                self.seen_player_score = *s;
                self.st = St::PlayerWritten;
                StepOutput::WriteLocal(
                    player_oid(self.player),
                    Payload::Scalar(self.new_score.max(self.seen_player_score)),
                )
            }
            St::PlayerWritten => {
                self.st = St::ChildClosed;
                StepOutput::CloseNested
            }
            St::ChildClosed => {
                // Parent-level: check the global top score.
                self.st = St::GotTop;
                StepOutput::Acquire(TOP_SCORE, AccessMode::Write)
            }
            St::GotTop => {
                let StepInput::Value(Payload::Scalar(top)) = input else {
                    panic!("top score must be a scalar")
                };
                self.seen_top = *top;
                if self.new_score > self.seen_top {
                    self.st = St::TopWritten;
                    StepOutput::WriteLocal(TOP_SCORE, Payload::Scalar(self.new_score))
                } else {
                    self.st = St::Done;
                    StepOutput::Finish
                }
            }
            St::TopWritten | St::Done => {
                self.st = St::Done;
                StepOutput::Finish
            }
        }
    }
}

fn main() {
    let nodes = 6;
    let mut rng = SimRng::new(7);
    let topo = Topology::uniform_random(nodes, 1, 30, &mut rng);
    let cfg = DstmConfig::default().with_scheduler(SchedulerKind::Rts);

    // Objects: the top-score cell plus one record per player, all zeroed.
    let mut objects = vec![(TOP_SCORE, Payload::Scalar(0))];
    for i in 0..PLAYERS {
        objects.push((player_oid(i), Payload::Scalar(0)));
    }

    // Workload: every node reports a few random scores.
    let mut expected_top = 0i64;
    let mut programs: Vec<Vec<BoxedProgram>> = Vec::new();
    for node in 0..nodes {
        let mut queue: Vec<BoxedProgram> = Vec::new();
        for k in 0..5 {
            let player = rng.below(PLAYERS);
            let score = (10 * (node as i64 + 1) + k as i64) * 7 % 301;
            expected_top = expected_top.max(score);
            queue.push(Box::new(ReportScore::new(player, score)));
        }
        programs.push(queue);
    }

    let mut system = SystemBuilder::new(topo, cfg)
        .seed(7)
        .build(WorkloadSource { objects, programs });
    let metrics = system.run_default();
    assert!(system.all_done());

    let state = system.object_state();
    let top = state[&TOP_SCORE].0.as_scalar();
    println!("== custom workload: distributed leaderboard ==");
    println!("commits      {}", metrics.merged.commits);
    println!("aborts       {}", metrics.merged.total_aborts());
    println!("top score    {top} (expected {expected_top})");
    assert_eq!(top, expected_top, "lost update on the leaderboard!");

    let best_player = (0..PLAYERS)
        .map(|i| state[&player_oid(i)].0.as_scalar())
        .max()
        .unwrap();
    assert_eq!(best_player, expected_top);
    println!("per-player maxima consistent: OK");
}
