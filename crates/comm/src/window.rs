//! MPI-3 style shared-memory windows.
//!
//! The asynchronous spray/solver optimization the paper analyses (§IV-A,
//! after Thari et al.) splits the MPI space into distinct spray and
//! solver communicators that synchronise through one-sided MPI shared
//! memory. This module provides that primitive: a window is a shared
//! `Vec<f64>` created collectively over a [`Group`] whose members are
//! assumed to share a node, with `put`/`get` charged at memory bandwidth
//! and `fence` acting as the group barrier.
//!
//! Virtual-time caveat: one-sided access does not carry a logical
//! timestamp between ranks; ordering is the caller's responsibility via
//! [`Window::fence`], exactly as with real `MPI_Win_fence` epochs.

use std::sync::{Arc, PoisonError, RwLock};

use cpx_machine::KernelCost;

use crate::group::Group;
use crate::lock;
use crate::runtime::RankCtx;

/// A shared-memory window of `f64` values over a group of node-local
/// ranks.
pub struct Window {
    data: Arc<RwLock<Vec<f64>>>,
    len: usize,
}

impl Window {
    /// Collectively create a window of `len` doubles over `group`. All
    /// members must call with the same `len` and a `window_id` unique
    /// among windows created on this group.
    ///
    /// Panics if the group spans more than one node of the modelled
    /// machine — shared memory does not cross nodes.
    pub fn create(ctx: &mut RankCtx, group: &Group, window_id: u64, len: usize) -> Window {
        let node0 = ctx.machine().node_of(group.member(0));
        for &r in group.members() {
            assert_eq!(
                ctx.machine().node_of(r),
                node0,
                "shared-memory window requires all group members on one node"
            );
        }
        // Rendezvous key: group members + id (deterministic across members).
        let mut key: u128 = window_id as u128;
        for &r in group.members() {
            key = key
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(r as u128 + 1);
        }
        let data = {
            let mut map = lock(&ctx.registry.map);
            let entry = map
                .entry(key)
                .or_insert_with(|| Arc::new(RwLock::new(vec![0.0f64; len])) as Arc<_>);
            Arc::clone(entry)
                .downcast::<RwLock<Vec<f64>>>()
                .expect("window key collision with different type")
        };
        assert_eq!(
            data.read().unwrap_or_else(PoisonError::into_inner).len(),
            len,
            "window created with inconsistent length"
        );
        // Creation is collective.
        group.barrier(ctx);
        Window { data, len }
    }

    /// Window length in doubles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `values` at `offset`, charging memory traffic to the caller.
    pub fn put(&self, ctx: &mut RankCtx, offset: usize, values: &[f64]) {
        assert!(offset + values.len() <= self.len, "put out of bounds");
        ctx.compute(KernelCost::bytes(values.len() as f64 * 8.0));
        let mut guard = self.data.write().unwrap_or_else(PoisonError::into_inner);
        guard[offset..offset + values.len()].copy_from_slice(values);
    }

    /// Read `count` doubles at `offset`, charging memory traffic.
    pub fn get(&self, ctx: &mut RankCtx, offset: usize, count: usize) -> Vec<f64> {
        assert!(offset + count <= self.len, "get out of bounds");
        ctx.compute(KernelCost::bytes(count as f64 * 8.0));
        let guard = self.data.read().unwrap_or_else(PoisonError::into_inner);
        guard[offset..offset + count].to_vec()
    }

    /// Atomically add `delta` to the value at `offset`, returning the
    /// previous value (fetch-and-op).
    pub fn fetch_add(&self, ctx: &mut RankCtx, offset: usize, delta: f64) -> f64 {
        assert!(offset < self.len, "fetch_add out of bounds");
        ctx.compute(KernelCost::bytes(16.0));
        let mut guard = self.data.write().unwrap_or_else(PoisonError::into_inner);
        let prev = guard[offset];
        guard[offset] += delta;
        prev
    }

    /// Synchronisation epoch boundary: a barrier over the window's group
    /// plus a memory fence (the `RwLock` already provides the ordering).
    pub fn fence(&self, ctx: &mut RankCtx, group: &Group) {
        group.barrier(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::World;
    use crate::ReduceOp;
    use cpx_machine::Machine;

    fn world() -> World {
        World::new(Machine::archer2())
    }

    #[test]
    fn put_then_get_across_ranks() {
        let res = world().run(4, |ctx| {
            let g = ctx.world();
            let w = Window::create(ctx, &g, 1, 4);
            w.put(ctx, ctx.rank(), &[ctx.rank() as f64 + 1.0]);
            w.fence(ctx, &g);
            w.get(ctx, 0, 4)
        });
        for (v, _) in res {
            assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0]);
        }
    }

    #[test]
    fn fetch_add_accumulates() {
        let res = world().run(8, |ctx| {
            let g = ctx.world();
            let w = Window::create(ctx, &g, 2, 1);
            w.fetch_add(ctx, 0, 1.0);
            w.fence(ctx, &g);
            w.get(ctx, 0, 1)[0]
        });
        for (v, _) in res {
            assert_eq!(v, 8.0);
        }
    }

    #[test]
    fn separate_windows_do_not_alias() {
        let res = world().run(2, |ctx| {
            let g = ctx.world();
            let a = Window::create(ctx, &g, 10, 2);
            let b = Window::create(ctx, &g, 11, 2);
            if ctx.rank() == 0 {
                a.put(ctx, 0, &[1.0]);
                b.put(ctx, 0, &[2.0]);
            }
            a.fence(ctx, &g);
            (a.get(ctx, 0, 1)[0], b.get(ctx, 0, 1)[0])
        });
        for ((x, y), _) in res {
            assert_eq!((x, y), (1.0, 2.0));
        }
    }

    #[test]
    #[should_panic(expected = "one node")]
    fn cross_node_window_rejected() {
        world().run(130, |ctx| {
            let g = ctx.world(); // spans 2 nodes of 128 cores
            let _ = Window::create(ctx, &g, 1, 1);
        });
    }

    #[test]
    fn subgroup_windows() {
        // Split world into two groups; each gets its own window.
        let res = world().run(4, |ctx| {
            let g = ctx.world();
            let sub = g.split(ctx, (ctx.rank() / 2) as u64, ctx.rank() as u64);
            let w = Window::create(ctx, &sub, 5, 1);
            w.fetch_add(ctx, 0, 1.0);
            w.fence(ctx, &sub);
            let total = w.get(ctx, 0, 1)[0];
            // Cross-check with an allreduce over the subgroup.
            let check = sub.allreduce_scalar(ctx, ReduceOp::Sum, 1.0);
            (total, check)
        });
        for ((total, check), _) in res {
            assert_eq!(total, 2.0);
            assert_eq!(check, 2.0);
        }
    }
}
