//! Arena-backed binary tree and frontier for the divide-and-conquer
//! algorithms (Alg. 1 and Alg. 5 of the paper), and the wave bookkeeping
//! both drivers share.
//!
//! Nodes are ranges `[b, e)` into a presentation-order pool of objects.
//! The frontier abstracts the queue discipline: the paper processes nodes
//! breadth-first (a FIFO queue whose left children are added first); a LIFO
//! variant is provided for the ablation benchmarks.
//!
//! A driver asks the set queries it is certain to ask next as one wave
//! ([`Engine::ask_sets`]); each pending node then [`Held`] its answer until
//! the driver reaches it in its own order.

use crate::engine::{AnswerSource, Engine, ObjectId, SetQuery};
use crate::error::AskError;
use crate::target::Target;
use std::collections::VecDeque;

pub(crate) const NO_NODE: u32 = u32::MAX;

/// What the waves asked so far left for one pending node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Held {
    /// No wave has asked it yet.
    #[default]
    Unasked,
    /// A wave delivered this answer; the driver has not consumed it yet.
    Answer(bool),
    /// A wave could not deliver it; the index names that wave's error in
    /// [`Waves`].
    Failed(u32),
}

/// Keeps the error of every wave that came back short, so a driver that
/// reaches an undelivered slot stops with that wave's error instead of
/// asking again.
#[derive(Debug, Default)]
pub(crate) struct Waves {
    errors: Vec<AskError>,
}

impl Waves {
    /// Asks `sets` about `target` as one wave; returns what it left for
    /// each set, in order.
    pub fn ask<S: AnswerSource>(
        &mut self,
        engine: &mut Engine<S>,
        sets: &[&[ObjectId]],
        target: &Target,
    ) -> Vec<Held> {
        let queries: Vec<SetQuery> = sets.iter().map(|objects| (*objects, target)).collect();
        let batch = engine.ask_sets(&queries);
        self.record(&batch.slots, batch.error.as_ref())
    }

    /// What a wave's delivered `slots` leave for each of its sets, in
    /// order; an empty slot holds `error`.
    ///
    /// # Panics
    /// Panics on an empty slot without an error, which breaks the
    /// many-question request contract.
    pub fn record(&mut self, slots: &[Option<bool>], error: Option<&AskError>) -> Vec<Held> {
        let mut failed = None;
        slots
            .iter()
            .map(|slot| match slot {
                Some(answer) => Held::Answer(*answer),
                None => *failed.get_or_insert_with(|| {
                    let error = error.expect("an empty slot carries an error");
                    self.errors.push(error.clone());
                    Held::Failed(self.errors.len() as u32 - 1)
                }),
            })
            .collect()
    }

    /// The held answer, or the error of the wave that could not deliver it.
    ///
    /// # Panics
    /// Panics on [`Held::Unasked`]: a driver asks a node's wave before it
    /// reads the node's answer.
    pub fn answer(&self, held: Held) -> Result<bool, AskError> {
        match held {
            Held::Answer(answer) => Ok(answer),
            Held::Failed(wave) => Err(self.errors[wave as usize].clone()),
            Held::Unasked => unreachable!("a node's wave is asked before its answer is read"),
        }
    }
}

/// One node of the execution tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Start of the range (inclusive), index into the pool.
    pub b: u32,
    /// End of the range (exclusive).
    pub e: u32,
    /// Parent node id, `NO_NODE` for roots.
    pub parent: u32,
    /// Sibling node id, `NO_NODE` for roots.
    pub sibling: u32,
    /// Paper's `checked` flag: true once one child answered *yes*.
    pub checked: bool,
    /// True once the node has been resolved (asked or substituted).
    pub done: bool,
    /// The answer a wave delivered ahead of the driver, if any.
    pub held: Held,
}

impl Node {
    pub fn root(b: u32, e: u32) -> Self {
        Self {
            b,
            e,
            parent: NO_NODE,
            sibling: NO_NODE,
            checked: false,
            done: false,
            held: Held::Unasked,
        }
    }

    pub fn len(&self) -> u32 {
        self.e - self.b
    }

    pub fn is_root(&self) -> bool {
        self.parent == NO_NODE
    }
}

/// The set of pending nodes, in either queue (BFS, the paper's order) or
/// stack (DFS) discipline. Nodes removed out-of-band (the sibling
/// substitution of Alg. 1 line 12) are tombstoned and skipped on pop.
#[derive(Debug)]
pub(crate) enum Frontier {
    Fifo(VecDeque<u32>),
    Lifo(Vec<u32>),
}

impl Frontier {
    pub fn fifo() -> Self {
        Self::Fifo(VecDeque::new())
    }

    pub fn lifo() -> Self {
        Self::Lifo(Vec::new())
    }

    pub fn push(&mut self, id: u32) {
        match self {
            Self::Fifo(q) => q.push_back(id),
            Self::Lifo(s) => s.push(id),
        }
    }

    /// The pending node ids in pop order (front of the queue or top of the
    /// stack first), tombstones skipped. Read-only: the wave rule walks it
    /// to see what the driver will pop next.
    pub fn pending<'a>(&'a self, removed: &'a [bool]) -> impl Iterator<Item = u32> + 'a {
        let (fifo, lifo) = match self {
            Self::Fifo(q) => (Some(q.iter()), None),
            Self::Lifo(s) => (None, Some(s.iter().rev())),
        };
        fifo.into_iter()
            .flatten()
            .chain(lifo.into_iter().flatten())
            .copied()
            .filter(move |id| !removed[*id as usize])
    }

    /// Pops the next non-tombstoned node id.
    pub fn pop(&mut self, removed: &[bool]) -> Option<u32> {
        loop {
            let id = match self {
                Self::Fifo(q) => q.pop_front()?,
                Self::Lifo(s) => s.pop()?,
            };
            if !removed[id as usize] {
                return Some(id);
            }
        }
    }
}

/// Arena of tree nodes plus the tombstone set used by the frontier.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub nodes: Vec<Node>,
    pub removed: Vec<bool>,
}

impl Arena {
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
            removed: Vec::with_capacity(cap),
        }
    }

    pub fn push(&mut self, node: Node) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.removed.push(false);
        id
    }

    /// Splits `[b, e)` as the paper does with inclusive indices and
    /// `mid = ⌊(i+j)/2⌋`: the left child receives `ceil(len/2)` objects.
    /// Returns `(left, right)` node ids; the children are linked to the
    /// parent and to each other.
    pub fn split(&mut self, parent_id: u32) -> (u32, u32) {
        let parent = self.nodes[parent_id as usize];
        debug_assert!(parent.len() > 1, "cannot split a singleton set");
        let mid = parent.b + parent.len().div_ceil(2);
        let left = self.push(Node {
            b: parent.b,
            e: mid,
            parent: parent_id,
            sibling: NO_NODE,
            checked: false,
            done: false,
            held: Held::Unasked,
        });
        let right = self.push(Node {
            b: mid,
            e: parent.e,
            parent: parent_id,
            sibling: left,
            checked: false,
            done: false,
            held: Held::Unasked,
        });
        self.nodes[left as usize].sibling = right;
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_gives_left_ceil_half() {
        let mut a = Arena::default();
        let root = a.push(Node::root(0, 5));
        let (l, r) = a.split(root);
        assert_eq!((a.nodes[l as usize].b, a.nodes[l as usize].e), (0, 3));
        assert_eq!((a.nodes[r as usize].b, a.nodes[r as usize].e), (3, 5));
        assert_eq!(a.nodes[l as usize].sibling, r);
        assert_eq!(a.nodes[r as usize].sibling, l);
        assert_eq!(a.nodes[l as usize].parent, root);
    }

    #[test]
    fn split_pair() {
        let mut a = Arena::default();
        let root = a.push(Node::root(10, 12));
        let (l, r) = a.split(root);
        assert_eq!(a.nodes[l as usize].len(), 1);
        assert_eq!(a.nodes[r as usize].len(), 1);
    }

    #[test]
    fn fifo_order_and_tombstones() {
        let mut f = Frontier::fifo();
        let removed = vec![false, true, false];
        f.push(0);
        f.push(1);
        f.push(2);
        assert_eq!(f.pop(&removed), Some(0));
        assert_eq!(f.pop(&removed), Some(2)); // 1 skipped
        assert_eq!(f.pop(&removed), None);
    }

    #[test]
    fn pending_walks_in_pop_order() {
        let removed = vec![false, true, false, false];
        for (mut f, order) in [
            (Frontier::fifo(), vec![0, 2, 3]),
            (Frontier::lifo(), vec![3, 2, 0]),
        ] {
            for id in 0..4 {
                f.push(id);
            }
            assert_eq!(f.pending(&removed).collect::<Vec<_>>(), order);
            let popped: Vec<u32> = std::iter::from_fn(|| f.pop(&removed)).collect();
            assert_eq!(popped, order, "the view matches what pop yields");
        }
    }

    #[test]
    fn lifo_order() {
        let mut f = Frontier::lifo();
        let removed = vec![false; 3];
        f.push(0);
        f.push(1);
        f.push(2);
        assert_eq!(f.pop(&removed), Some(2));
        assert_eq!(f.pop(&removed), Some(1));
        assert_eq!(f.pop(&removed), Some(0));
    }
}
