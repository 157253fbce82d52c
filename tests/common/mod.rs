//! Shared by the integration tests that need a queue backend without a
//! `lookahead` override.

use closed_nesting_dstm::sim::{EventKey, EventQueue, Sequenced};

/// Forwards the four required `EventQueue` methods and nothing else: what
/// the kernel sees of a backend written before `lookahead` existed.
pub struct NoLookahead<Q>(pub Q);

impl<E, Q: EventQueue<E>> EventQueue<E> for NoLookahead<Q> {
    fn push(&mut self, ev: Sequenced<E>) {
        self.0.push(ev)
    }
    fn pop(&mut self) -> Option<Sequenced<E>> {
        self.0.pop()
    }
    fn peek_key(&self) -> Option<EventKey> {
        self.0.peek_key()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}
