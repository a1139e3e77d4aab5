//! Dense point-to-point channel ids and FIFO queues.
//!
//! A *channel* is one `(src, dst, tag)` triple a program sends on. The
//! DES replayer and the task-graph builder both match receives to
//! sends FIFO per channel; this module is that discipline, implemented
//! once.
//!
//! [`ChannelTable`] numbers the channels of a [`TraceProgram`] from a
//! pre-pass over its *unexpanded* ops (a `Repeat` body is scanned once,
//! whatever its count): each source rank owns a sorted `(dst, tag)`
//! slice of one flat key array, and a channel's id is its index in that
//! array. A send looks its channel up in its own rank's slice, a
//! receive in `src`'s. A receive on a triple nobody sends on has no id.
//!
//! [`ChannelFifos`] holds one FIFO per channel. All queues share one
//! node pool threaded by a free list, so memory follows the messages in
//! flight, not the messages sent, and a warmed-up pool serves every
//! further push without touching the allocator.

use crate::trace::{Op, TraceProgram};

/// "No node" / "no rank" marker in the `u32` link fields.
pub(crate) const NIL: u32 = u32::MAX;

/// Dense ids of every `(src, dst, tag)` channel a program sends on.
/// Ids are assigned in `(src, dst, tag)` order.
#[derive(Debug, Clone)]
pub(crate) struct ChannelTable {
    /// `offsets[src]..offsets[src + 1]` is `src`'s slice of `keys`.
    offsets: Vec<u32>,
    /// `(dst << 32) | tag`, sorted and distinct within each slice.
    keys: Vec<u64>,
    /// Ops of the program after `Repeat` expansion, counted on the same
    /// pass.
    pub(crate) expanded_ops: usize,
}

fn pack(dst: usize, tag: u32) -> u64 {
    ((dst as u64) << 32) | u64::from(tag)
}

impl ChannelTable {
    /// Number the send channels of `program`. Peers must be in range
    /// (run [`TraceProgram::validate`] first).
    pub(crate) fn new(program: &TraceProgram) -> Self {
        let n = program.n_ranks();
        assert!(n < NIL as usize, "rank ids must fit in u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut keys: Vec<u64> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        let mut expanded_ops = 0usize;
        offsets.push(0);
        for trace in &program.traces {
            scratch.clear();
            for op in &trace.ops {
                let expanded: &[Op] = match op {
                    Op::Repeat { count, body } => {
                        let body_ops = *count as usize * body.len();
                        expanded_ops = expanded_ops.saturating_add(body_ops);
                        body
                    }
                    other => {
                        expanded_ops = expanded_ops.saturating_add(1);
                        std::slice::from_ref(other)
                    }
                };
                for op in expanded {
                    if let Op::Send { dst, tag, .. } = op {
                        scratch.push(pack(*dst, *tag));
                    }
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            keys.extend_from_slice(&scratch);
            offsets.push(u32::try_from(keys.len()).expect("channel count fits in u32"));
        }
        ChannelTable {
            offsets,
            keys,
            expanded_ops,
        }
    }

    /// Number of channels.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The id of channel `(src, dst, tag)`, if `src` ever sends on it.
    #[inline]
    pub(crate) fn id(&self, src: usize, dst: usize, tag: u32) -> Option<u32> {
        let lo = self.offsets[src];
        let slice = &self.keys[lo as usize..self.offsets[src + 1] as usize];
        slice
            .binary_search(&pack(dst, tag))
            .ok()
            .map(|i| lo + i as u32)
    }

    /// The `(src, dst, tag)` triple of channel `id`.
    pub(crate) fn key(&self, id: u32) -> (usize, usize, u32) {
        let src = self.offsets.partition_point(|&o| o <= id) - 1;
        let k = self.keys[id as usize];
        (src, (k >> 32) as usize, k as u32)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node<T> {
    value: T,
    next: u32,
}

/// One FIFO queue per channel over a shared, recycled node pool.
#[derive(Debug, Clone)]
pub(crate) struct ChannelFifos<T> {
    /// `(head, tail)` node of each channel's queue, [`NIL`] when empty.
    ends: Vec<(u32, u32)>,
    nodes: Vec<Node<T>>,
    /// Head of the free-node list.
    free: u32,
}

impl<T: Copy> ChannelFifos<T> {
    /// `channels` empty queues.
    pub(crate) fn new(channels: usize) -> Self {
        ChannelFifos {
            ends: vec![(NIL, NIL); channels],
            nodes: Vec::new(),
            free: NIL,
        }
    }

    /// Append `value` to channel `ch`'s queue.
    #[inline]
    pub(crate) fn push(&mut self, ch: u32, value: T) {
        let node = Node { value, next: NIL };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("messages in flight fit in u32");
            self.nodes.push(node);
            idx
        };
        let (head, tail) = &mut self.ends[ch as usize];
        if *tail == NIL {
            *head = idx;
        } else {
            self.nodes[*tail as usize].next = idx;
        }
        *tail = idx;
    }

    /// Remove and return the oldest value on channel `ch`.
    #[inline]
    pub(crate) fn pop(&mut self, ch: u32) -> Option<T> {
        let (head, tail) = &mut self.ends[ch as usize];
        if *head == NIL {
            return None;
        }
        let idx = *head;
        let node = self.nodes[idx as usize];
        *head = node.next;
        if *head == NIL {
            *tail = NIL;
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        Some(node.value)
    }

    /// The first channel whose queue is not empty, in id order.
    pub(crate) fn first_nonempty(&self) -> Option<u32> {
        self.ends.iter().position(|e| e.0 != NIL).map(|i| i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_sorted_and_per_source() {
        let mut p = TraceProgram::new(3);
        p.rank(0).send(2, 8, 5);
        p.rank(0).send(1, 8, 9);
        p.rank(0).send(1, 8, 9);
        p.rank(2).ops.push(Op::Repeat {
            count: 1000,
            body: vec![Op::Send {
                dst: 0,
                bytes: 0,
                tag: 1,
            }],
        });
        let t = ChannelTable::new(&p);
        assert_eq!(t.len(), 3);
        assert_eq!(t.expanded_ops, 1003);
        assert_eq!(t.id(0, 1, 9), Some(0));
        assert_eq!(t.id(0, 2, 5), Some(1));
        assert_eq!(t.id(2, 0, 1), Some(2));
        assert_eq!(t.id(1, 0, 0), None);
        assert_eq!(t.id(0, 1, 5), None);
        for id in 0..3 {
            let (s, d, tag) = t.key(id);
            assert_eq!(t.id(s, d, tag), Some(id));
        }
    }

    #[test]
    fn fifos_keep_order_per_channel_and_recycle_nodes() {
        let mut f = ChannelFifos::new(2);
        f.push(0, 1.0);
        f.push(1, 10.0);
        f.push(0, 2.0);
        assert_eq!(f.first_nonempty(), Some(0));
        assert_eq!(f.pop(0), Some(1.0));
        assert_eq!(f.pop(0), Some(2.0));
        assert_eq!(f.pop(0), None);
        assert_eq!(f.first_nonempty(), Some(1));
        assert_eq!(f.pop(1), Some(10.0));
        assert_eq!(f.first_nonempty(), None);
        for round in 0..100 {
            f.push(1, round as f64);
            f.push(1, round as f64 + 0.5);
            assert_eq!(f.pop(1), Some(round as f64));
            assert_eq!(f.pop(1), Some(round as f64 + 0.5));
        }
        assert_eq!(
            f.nodes.len(),
            3,
            "pool holds the peak in flight, not the total"
        );
    }
}
