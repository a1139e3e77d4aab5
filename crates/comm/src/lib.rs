//! # cpx-comm
//!
//! An MPI-like message-passing runtime for running the mini-apps
//! *functionally*, on OS threads, with **virtual time**.
//!
//! The paper's codes are MPI programs. Rust's MPI story is thin bindings
//! that are awkward for coupled MPMD workloads, and more importantly this
//! reproduction must behave like a 128-core-per-node cluster rather than
//! like the host it happens to run on. So this crate provides the
//! substrate the mini-apps are written against:
//!
//! * [`runtime::World`] spawns `n` ranks as threads and runs a closure on
//!   each; ranks exchange typed messages over `std::sync::mpsc` channels.
//! * Every rank carries a **virtual clock** ([`runtime::RankCtx::now`]).
//!   Local compute is charged through the roofline cost model of
//!   [`cpx_machine::Machine`] (never wall-clock), and a receive advances
//!   the receiver's clock to `max(local, send_time + p2p_time)` — the
//!   classic logical-time piggyback. The result: timing behaves like the
//!   modelled cluster, deterministically, regardless of host scheduling.
//! * [`group::Group`] provides sub-communicators (`split`) and
//!   collectives (barrier, broadcast, reduce, allreduce, gather,
//!   allgather, alltoallv) implemented as binomial-tree / ring algorithms
//!   over point-to-point messages, so their cost *emerges* from the same
//!   p2p model the trace replayer uses.
//! * [`window::Window`] provides MPI-3 style shared-memory windows used
//!   by the asynchronous spray/solver optimization of §IV-A.
//!
//! Functional runs validate the numerics and the communication patterns;
//! the scaling figures use the trace replayer in `cpx-machine`, which is
//! cross-validated against this runtime in the integration tests.
//!
//! # Fault model & resilience
//!
//! Large coupled runs occupy thousands of nodes for hours, where
//! component failure is the norm rather than the exception — so the
//! runtime can execute any rank program under a seeded
//! [`fault::FaultPlan`] describing rank crashes (at a virtual time),
//! per-message link faults (drop / duplicate / delay / bit-flip
//! corruption) and transient link-degradation windows:
//!
//! * [`World::run_with_plan`] returns a [`runtime::RankOutcome`] per
//!   rank (completed value, crash time, the [`CommError`] that aborted
//!   it, or a preserved panic payload) instead of re-raising the first
//!   panic, so survivors remain observable.
//! * Fallible point-to-point APIs — [`RankCtx::try_send`],
//!   [`RankCtx::try_recv_from`], [`RankCtx::recv_timeout`] (virtual-time
//!   deadline) — surface [`CommError`]s. The classic infallible calls
//!   are thin wrappers: they retry dropped messages with exponential
//!   backoff charged to virtual time and panic on unrecoverable errors.
//! * `Group::try_*` collectives retry dropped internal messages with
//!   backoff and detect dead peers within a bounded number of attempts,
//!   rather than deadlocking; the infallible collectives wrap them.
//! * [`TimeReport`] records the resilience cost: `retries`,
//!   `dropped_msgs`, `corrupted_msgs` and `recovery_time` (backoff +
//!   failure detection).
//!
//! Every fault decision is a pure function of `(plan seed, src, dst,
//! attempt counter)` and crash detection is sequenced through a
//! dead-rank registry ordered after the victim's last send, so fault
//! runs keep the runtime's determinism guarantee: same plan, same seed →
//! identical per-rank outcomes and bit-identical `TimeReport`s.
//!
//! # Silent data corruption
//!
//! Every payload carries a CRC-64 stamped at send time over the bytes
//! the sender intended; the receiver's transport verifies it before
//! handing data to the application, so a fault-injected bit flip on the
//! link ([`FaultPlan::with_corrupt_prob`]) surfaces as
//! [`CommError::Corrupted`] instead of silently propagating. For
//! *in-memory* corruption, [`fault::BitFlipInjector`] offers the same
//! seeded hash-of-`(seed, site)` purity contract as link faults:
//! mini-apps and SDC studies strike their own arrays with it and let
//! the ABFT/invariant detectors in the solver crates do the catching.

pub mod backoff;
pub mod cluster;
pub mod fault;
pub mod group;
pub mod net;
pub mod nonblocking;
pub mod payload;
pub mod protocol;
pub mod resilient;
pub mod runtime;
pub mod serialize;
pub mod transport;
pub mod window;

pub use backoff::BackoffPolicy;
pub use cluster::{free_ports, run_node, run_node_obs, ClusterConfig, NodeObsOptions, NodeRun};
pub use fault::{BitFlipInjector, CommError, FaultPlan, LinkDegradation};
pub use group::Group;
pub use net::TcpTransport;
pub use nonblocking::{irecv, isend, wait_all, RecvRequest};
pub use payload::Payload;
pub use resilient::{resilient_loop, ResilientConfig, ResilientReport};
pub use runtime::{
    CollectiveOp, CommEvent, CommEventKind, RankCtx, RankOutcome, RankRun, TimeReport, World,
};
pub use transport::{Packet, RecvPoll, Transport};
pub use window::Window;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` even if a panicking thread poisoned it. Injected crashes are
/// panics ([`fault::CrashSignal`]), so a lock a dying rank held must stay
/// usable by the survivors.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reduction operators for collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise max.
    Max,
    /// Elementwise min.
    Min,
}

impl ReduceOp {
    /// Apply the operator elementwise: `acc[i] = op(acc[i], x[i])`.
    pub fn apply(self, acc: &mut [f64], x: &[f64]) {
        assert_eq!(acc.len(), x.len(), "reduce length mismatch");
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(x) {
                    *a += *b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(x) {
                    *a = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(x) {
                    *a = a.min(*b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_ops() {
        let mut a = vec![1.0, 5.0, -2.0];
        ReduceOp::Sum.apply(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, -1.0]);
        ReduceOp::Max.apply(&mut a, &[0.0, 10.0, 0.0]);
        assert_eq!(a, vec![2.0, 10.0, 0.0]);
        ReduceOp::Min.apply(&mut a, &[-1.0, 0.0, 5.0]);
        assert_eq!(a, vec![-1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_length_mismatch_panics() {
        let mut a = vec![1.0];
        ReduceOp::Sum.apply(&mut a, &[1.0, 2.0]);
    }
}
