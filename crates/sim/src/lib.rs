//! # dstm-sim — deterministic discrete-event simulation kernel
//!
//! This crate provides the execution substrate for the D-STM reproduction:
//! a fully deterministic, single-threaded discrete-event simulator with
//!
//! * nanosecond-resolution virtual time ([`SimTime`], [`SimDuration`]),
//! * one pending-event set, a 4-ary packed-key heap, behind a trait where
//!   verification and measurement wrappers substitute (see [`queue`]),
//! * a message-passing **actor world** ([`World`], [`Actor`]) in which each
//!   simulated node handles messages and timers, and
//! * deterministic, splittable random-number streams ([`SimRng`]) so that any
//!   experiment is reproducible bit-for-bit from a single `u64` seed.
//!
//! The paper's testbed is an 80-node message-passing cluster with static
//! communication delays of 1–50 ms. Everything the evaluation measures
//! (throughput, abort rates, queueing delays) is a function of virtual time
//! and protocol message counts, both of which this kernel reproduces exactly.
//!
//! ## Quick example
//!
//! ```
//! use dstm_sim::{Actor, ActorId, Ctx, SimDuration, World};
//!
//! struct Ping { got: u32 }
//!
//! impl Actor for Ping {
//!     type Msg = u32;
//!     type Timer = ();
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
//!                   _from: ActorId, msg: u32) {
//!         self.got += msg;
//!         if msg < 3 {
//!             // bounce the counter to the other actor after 1 ms
//!             let peer = ActorId((ctx.me().0 + 1) % 2);
//!             ctx.send(peer, msg + 1, SimDuration::from_millis(1));
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, _t: ()) {}
//! }
//!
//! let mut world = World::new(vec![Ping { got: 0 }, Ping { got: 0 }], 42);
//! world.send_external(ActorId(0), 1, SimDuration::ZERO);
//! world.run();
//! assert_eq!(world.actor(ActorId(0)).got + world.actor(ActorId(1)).got, 1 + 2 + 3);
//! ```

pub mod engine;
pub mod event;
pub mod perturb;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{
    prefetch, Actor, ActorId, Ctx, GenericWorld, KernelEvent, TimerToken, World, CACHE_LINE,
};
pub use event::{EventKey, Sequenced, MAX_ACTORS};
pub use perturb::{ChoiceQueue, Perturb, PerturbQueue, Schedule};
pub use queue::{BinaryHeapQueue, EventQueue};
pub use rng::{mix64, SimRng};
pub use stats::{Histogram, HistogramRecorder, OnlineStats};
pub use time::{SimDuration, SimTime};
