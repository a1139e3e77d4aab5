//! Per-rank phase traces.
//!
//! A [`TraceProgram`] is the interface between the mini-apps and the
//! virtual testbed: each mini-app partitions its real data structures at
//! the requested rank count and emits, per rank, the sequence of compute
//! phases, point-to-point messages and collectives one timestep performs.
//! The [`crate::des::Replayer`] then integrates the program against a
//! [`crate::model::Machine`] to produce virtual runtimes.
//!
//! Traces are deliberately *not* recorded from execution — they are
//! generated from partition arithmetic (halo lists, particle counts,
//! matrix row distributions), which is what lets the testbed scale to
//! 40,000 ranks on a laptop.

use crate::cost::KernelCost;

/// Identifier of a rank group registered in a [`TraceProgram`].
pub type GroupId = usize;

/// Identifier of a phase label (used to attribute time to solver
/// functions, e.g. "pressure field" vs "spray").
pub type PhaseId = u16;

/// The collective operations the testbed models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveKind {
    /// Synchronisation only.
    Barrier,
    /// One-to-all, `bytes` payload.
    Broadcast,
    /// All-to-one reduction.
    Reduce,
    /// All-to-all reduction (the workhorse of dot products and residuals).
    Allreduce,
    /// All-to-all gather of per-rank contributions.
    Allgather,
    /// Personalised all-to-all exchange.
    Alltoall,
    /// All-to-one gather.
    Gather,
    /// One-to-all scatter.
    Scatter,
}

/// One event in a rank's trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Local computation described by a roofline cost.
    Compute(KernelCost),
    /// Local computation of a fixed duration in seconds (used when the
    /// duration was measured/calibrated rather than derived).
    ComputeSecs(f64),
    /// Eager point-to-point send. The sender is charged only the software
    /// overhead; transfer time is charged to the receiver.
    Send { dst: usize, bytes: usize, tag: u32 },
    /// Blocking receive matching `(src, tag)` in FIFO order.
    Recv { src: usize, tag: u32 },
    /// Collective over a registered group. Every member of the group must
    /// post the same collectives in the same order.
    Collective {
        kind: CollectiveKind,
        group: GroupId,
        bytes: usize,
    },
    /// Set the phase label for subsequent ops on this rank (for
    /// per-function time attribution, Fig 5).
    Phase(PhaseId),
    /// Repeat a body of ops `count` times (loop compression; bodies may
    /// not nest another `Repeat`).
    Repeat { count: u32, body: Vec<Op> },
}

/// The trace of a single rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// Ordered events.
    pub ops: Vec<Op>,
}

impl RankTrace {
    /// An empty trace.
    pub fn new() -> Self {
        RankTrace::default()
    }

    /// Append a compute phase.
    pub fn compute(&mut self, cost: KernelCost) {
        self.ops.push(Op::Compute(cost));
    }

    /// Append a fixed-duration compute phase.
    pub fn compute_secs(&mut self, secs: f64) {
        self.ops.push(Op::ComputeSecs(secs));
    }

    /// Append a send.
    pub fn send(&mut self, dst: usize, bytes: usize, tag: u32) {
        self.ops.push(Op::Send { dst, bytes, tag });
    }

    /// Append a receive.
    pub fn recv(&mut self, src: usize, tag: u32) {
        self.ops.push(Op::Recv { src, tag });
    }

    /// Append a collective.
    pub fn collective(&mut self, kind: CollectiveKind, group: GroupId, bytes: usize) {
        self.ops.push(Op::Collective { kind, group, bytes });
    }

    /// Append a phase label change.
    pub fn phase(&mut self, phase: PhaseId) {
        self.ops.push(Op::Phase(phase));
    }

    /// Number of ops counting repeated bodies once.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of ops after expanding `Repeat` bodies.
    pub fn expanded_len(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Repeat { count, body } => *count as usize * body.len(),
                _ => 1,
            })
            .sum()
    }
}

/// A complete multi-rank program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceProgram {
    /// Per-rank traces; `traces.len()` is the world size.
    pub traces: Vec<RankTrace>,
    /// Registered rank groups for collectives.
    pub groups: Vec<Vec<usize>>,
}

impl TraceProgram {
    /// A program with `n_ranks` empty traces and no groups.
    pub fn new(n_ranks: usize) -> Self {
        TraceProgram {
            traces: vec![RankTrace::new(); n_ranks],
            groups: Vec::new(),
        }
    }

    /// World size.
    pub fn n_ranks(&self) -> usize {
        self.traces.len()
    }

    /// Register a rank group and return its id. Group members must be
    /// distinct, in-range ranks; this is validated at replay time.
    pub fn add_group(&mut self, ranks: Vec<usize>) -> GroupId {
        self.groups.push(ranks);
        self.groups.len() - 1
    }

    /// Register the all-ranks group.
    pub fn add_world_group(&mut self) -> GroupId {
        let n = self.n_ranks();
        self.add_group((0..n).collect())
    }

    /// Mutable access to rank `r`'s trace.
    pub fn rank(&mut self, r: usize) -> &mut RankTrace {
        &mut self.traces[r]
    }

    /// Validate structural invariants: group members in range and unique,
    /// send/recv peers in range. Returns a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n_ranks();
        for (gid, g) in self.groups.iter().enumerate() {
            let mut seen = vec![false; n];
            for &r in g {
                if r >= n {
                    return Err(format!("group {gid}: rank {r} out of range ({n} ranks)"));
                }
                if seen[r] {
                    return Err(format!("group {gid}: duplicate rank {r}"));
                }
                seen[r] = true;
            }
        }
        let check_ops = |rank: usize, ops: &[Op]| -> Result<(), String> {
            for op in ops {
                match op {
                    Op::Send { dst, .. } if *dst >= n => {
                        return Err(format!("rank {rank}: send to out-of-range rank {dst}"));
                    }
                    Op::Recv { src, .. } if *src >= n => {
                        return Err(format!("rank {rank}: recv from out-of-range rank {src}"));
                    }
                    Op::Collective { group, .. } if *group >= self.groups.len() => {
                        return Err(format!("rank {rank}: unknown group {group}"));
                    }
                    Op::Repeat { body, .. }
                        if body.iter().any(|o| matches!(o, Op::Repeat { .. })) =>
                    {
                        return Err(format!("rank {rank}: nested Repeat"));
                    }
                    _ => {}
                }
            }
            Ok(())
        };
        for (rank, t) in self.traces.iter().enumerate() {
            check_ops(rank, &t.ops)?;
            for op in &t.ops {
                if let Op::Repeat { body, .. } = op {
                    check_ops(rank, body)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate_ok() {
        let mut p = TraceProgram::new(4);
        let world = p.add_world_group();
        for r in 0..4 {
            p.rank(r).compute(KernelCost::flops(1e6));
            p.rank(r).collective(CollectiveKind::Allreduce, world, 8);
        }
        p.rank(0).send(1, 100, 7);
        p.rank(1).recv(0, 7);
        assert!(p.validate().is_ok());
        assert_eq!(p.n_ranks(), 4);
    }

    #[test]
    fn validate_rejects_bad_peer() {
        let mut p = TraceProgram::new(2);
        p.rank(0).send(5, 10, 0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_group_member() {
        let mut p = TraceProgram::new(3);
        p.add_group(vec![0, 0]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_unknown_group() {
        let mut p = TraceProgram::new(2);
        p.rank(0).collective(CollectiveKind::Barrier, 3, 0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_nested_repeat() {
        let mut p = TraceProgram::new(1);
        p.rank(0).ops.push(Op::Repeat {
            count: 2,
            body: vec![Op::Repeat {
                count: 2,
                body: vec![],
            }],
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn expanded_len_counts_repeats() {
        let mut t = RankTrace::new();
        t.compute(KernelCost::zero());
        t.ops.push(Op::Repeat {
            count: 10,
            body: vec![Op::ComputeSecs(0.0), Op::ComputeSecs(0.0)],
        });
        assert_eq!(t.len(), 2);
        assert_eq!(t.expanded_len(), 21);
    }
}
