//! Happens-before task-graph construction from trace programs.
//!
//! [`build_task_graph`] walks a [`TraceProgram`] against a [`Machine`]
//! and produces the [`cpx_obs::TaskGraph`] the critical-path analytics
//! run on: one node per expanded op, program-order edges within a rank,
//! a matched-send edge per receive (FIFO per `(src, dst, tag)` channel,
//! through the same channel table and queues as the mailboxes of
//! [`crate::des::Replayer`]), and one shared [`cpx_obs::Meet`] per
//! collective occurrence.
//!
//! The construction is *static* — no replay runs; matching follows from
//! program order alone, exactly as the DES scheduler would resolve it.
//! Costs are charged with the same float expressions the replayer uses
//! (`kernel_time`, `p2p_time`, `send_overhead`, `collective_time`), so
//! a noise-free [`crate::des::Replayer::run`] and the graph's baseline
//! schedule agree **bit for bit**; [`validate_against_des`] checks that
//! event by event against the log a `Vec<DesEvent>` probe records
//! through [`crate::des::Replayer::run_probed`].

use cpx_obs::{Meet, Schedule, TaskGraph, TaskKind, TaskNode};

use crate::channel::{ChannelFifos, ChannelTable};
use crate::collectives::collective_time;
use crate::des::{DesEvent, DesEventKind};
use crate::model::Machine;
use crate::trace::{CollectiveKind, Op, TraceProgram};

/// Short label for a collective kind (blamed-span output).
pub fn collective_label(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::Barrier => "barrier",
        CollectiveKind::Broadcast => "broadcast",
        CollectiveKind::Reduce => "reduce",
        CollectiveKind::Allreduce => "allreduce",
        CollectiveKind::Allgather => "allgather",
        CollectiveKind::Alltoall => "alltoall",
        CollectiveKind::Gather => "gather",
        CollectiveKind::Scatter => "scatter",
    }
}

/// Build the causal task graph of `program` on `machine`.
///
/// `phase_names` labels phase ids for reports (index 0 is conventionally
/// `"(untracked)"`); it does not affect the graph structure. Programs
/// with noise are not representable — the graph models the noise-free
/// replay, which is what every committed artifact records.
///
/// Errors on malformed programs (receive with no matching send,
/// inconsistent collective kinds, short collective occurrences) instead
/// of deadlocking the way a live replay would.
pub fn build_task_graph(
    program: &TraceProgram,
    machine: &Machine,
    phase_names: &[String],
) -> Result<TaskGraph, String> {
    program.validate()?;
    let n = program.n_ranks();
    let mut nodes: Vec<TaskNode> = Vec::new();

    // Send nodes per channel, in sender program order — exactly the DES
    // mailbox FIFO, because each channel has a single sender.
    let channels = ChannelTable::new(program);
    let mut send_queues: ChannelFifos<usize> = ChannelFifos::new(channels.len());
    // Collective occurrences: per group, per occurrence index, the
    // member entries in rank-walk order.
    struct Entry {
        node: usize,
        kind: CollectiveKind,
        bytes: usize,
    }
    let mut occurrences: Vec<Vec<Vec<Entry>>> = std::iter::repeat_with(Vec::new)
        .take(program.groups.len())
        .collect();

    for rank in 0..n {
        let mut prev: Option<usize> = None;
        let mut phase: u16 = 0;
        let mut occ_counter = vec![0usize; program.groups.len()];
        // Expanded-op walk (Repeat bodies are not nested, like the DES
        // cursor assumes).
        let mut walk = |op: &Op,
                        nodes: &mut Vec<TaskNode>,
                        send_queues: &mut ChannelFifos<usize>,
                        occurrences: &mut Vec<Vec<Vec<Entry>>>,
                        prev: &mut Option<usize>,
                        phase: &mut u16|
         -> Result<(), String> {
            match *op {
                Op::Phase(p) => {
                    *phase = p;
                }
                Op::Compute(cost) => {
                    let id = nodes.len();
                    nodes.push(TaskNode {
                        rank,
                        phase: *phase,
                        kind: TaskKind::Compute,
                        dur: machine.kernel_time(cost),
                        transfer: 0.0,
                        prev: *prev,
                        matched_send: None,
                    });
                    *prev = Some(id);
                }
                Op::ComputeSecs(secs) => {
                    let id = nodes.len();
                    nodes.push(TaskNode {
                        rank,
                        phase: *phase,
                        kind: TaskKind::Compute,
                        dur: secs,
                        transfer: 0.0,
                        prev: *prev,
                        matched_send: None,
                    });
                    *prev = Some(id);
                }
                Op::Send { dst, bytes, tag } => {
                    let id = nodes.len();
                    nodes.push(TaskNode {
                        rank,
                        phase: *phase,
                        kind: TaskKind::Send {
                            dst,
                            tag,
                            bytes: bytes as u64,
                        },
                        dur: machine.send_overhead,
                        transfer: machine.p2p_time(rank, dst, bytes),
                        prev: *prev,
                        matched_send: None,
                    });
                    let ch = channels
                        .id(rank, dst, tag)
                        .expect("every send has a channel");
                    send_queues.push(ch, id);
                    *prev = Some(id);
                }
                Op::Recv { src, tag } => {
                    let id = nodes.len();
                    nodes.push(TaskNode {
                        rank,
                        phase: *phase,
                        kind: TaskKind::Recv { src, tag },
                        dur: 0.0,
                        transfer: 0.0,
                        prev: *prev,
                        matched_send: None,
                    });
                    *prev = Some(id);
                }
                Op::Collective { kind, group, bytes } => {
                    if group >= program.groups.len() {
                        return Err(format!("rank {rank}: unknown group {group}"));
                    }
                    let id = nodes.len();
                    nodes.push(TaskNode {
                        rank,
                        phase: *phase,
                        // Meet index patched after the walk.
                        kind: TaskKind::Collective { meet: usize::MAX },
                        dur: 0.0,
                        transfer: 0.0,
                        prev: *prev,
                        matched_send: None,
                    });
                    let occ = occ_counter[group];
                    occ_counter[group] += 1;
                    if occurrences[group].len() <= occ {
                        occurrences[group].resize_with(occ + 1, Vec::new);
                    }
                    occurrences[group][occ].push(Entry {
                        node: id,
                        kind,
                        bytes,
                    });
                    *prev = Some(id);
                }
                Op::Repeat { .. } => unreachable!("expanded by caller"),
            }
            Ok(())
        };

        for op in &program.traces[rank].ops {
            match op {
                Op::Repeat { count, body } => {
                    for _ in 0..*count {
                        for b in body {
                            walk(
                                b,
                                &mut nodes,
                                &mut send_queues,
                                &mut occurrences,
                                &mut prev,
                                &mut phase,
                            )?;
                        }
                    }
                }
                other => walk(
                    other,
                    &mut nodes,
                    &mut send_queues,
                    &mut occurrences,
                    &mut prev,
                    &mut phase,
                )?,
            }
        }
    }

    // Match receives to sends: receives on one key execute on a single
    // rank in its program order, which is ascending node id — the pop
    // order below is the DES match order.
    for id in 0..nodes.len() {
        if let TaskKind::Recv { src, tag } = nodes[id].kind {
            let rank = nodes[id].rank;
            let send = channels
                .id(src, rank, tag)
                .and_then(|ch| send_queues.pop(ch))
                .ok_or_else(|| {
                    format!("rank {rank}: recv from {src} tag {tag} has no matching send")
                })?;
            nodes[id].matched_send = Some(send);
            nodes[id].transfer = nodes[send].transfer;
        }
    }
    if let Some(ch) = send_queues.first_nonempty() {
        let (src, dst, tag) = channels.key(ch);
        return Err(format!("send {src}->{dst} tag {tag} is never received"));
    }

    // Seal collective occurrences into meets.
    let mut meets: Vec<Meet> = Vec::new();
    for (group, occs) in occurrences.iter().enumerate() {
        let gsize = program.groups[group].len();
        for (occ, entries) in occs.iter().enumerate() {
            if entries.len() != gsize {
                return Err(format!(
                    "group {group} occurrence {occ}: {} of {gsize} members emitted a collective",
                    entries.len()
                ));
            }
            let kind = entries[0].kind;
            let mut max_bytes = 0usize;
            for e in entries {
                if e.kind != kind {
                    return Err(format!(
                        "group {group} occurrence {occ}: mismatched collective kinds \
                         {kind:?} vs {:?}",
                        e.kind
                    ));
                }
                max_bytes = max_bytes.max(e.bytes);
            }
            let meet_id = meets.len();
            for e in entries {
                nodes[e.node].kind = TaskKind::Collective { meet: meet_id };
            }
            meets.push(Meet {
                members: entries.iter().map(|e| e.node).collect(),
                cost: collective_time(machine, kind, gsize, max_bytes),
                label: collective_label(kind),
            });
        }
    }

    Ok(TaskGraph {
        nodes,
        meets,
        n_ranks: n,
        phase_names: phase_names.to_vec(),
    })
}

/// Check a baseline schedule against a logged DES event stream, event
/// by event and **bit by bit**: send/recv events must carry the node's
/// end time, collective events the node's start (entry) time, and the
/// finish event the rank's final clock. Any drift means the graph and
/// the replayer disagree about the run's causal structure.
pub fn validate_against_des(
    graph: &TaskGraph,
    sched: &Schedule,
    events: &[DesEvent],
) -> Result<(), String> {
    // Per-rank cursors over that rank's nodes in id (= program) order.
    let mut rank_nodes: Vec<Vec<usize>> = vec![Vec::new(); graph.n_ranks];
    for (id, node) in graph.nodes.iter().enumerate() {
        rank_nodes[node.rank].push(id);
    }
    let mut cursor = vec![0usize; graph.n_ranks];

    let mut advance_to = |rank: usize, want: fn(&TaskKind) -> bool| -> Option<usize> {
        let list = &rank_nodes[rank];
        while cursor[rank] < list.len() {
            let id = list[cursor[rank]];
            cursor[rank] += 1;
            if want(&graph.nodes[id].kind) {
                return Some(id);
            }
        }
        None
    };

    for (i, ev) in events.iter().enumerate() {
        let rank = ev.rank as usize;
        if rank >= graph.n_ranks {
            return Err(format!("event {i}: rank {rank} outside graph"));
        }
        let (got, what) = match ev.kind {
            DesEventKind::Send { .. } => (
                advance_to(rank, |k| matches!(k, TaskKind::Send { .. })).map(|id| sched.end[id]),
                "send end",
            ),
            DesEventKind::Recv { .. } => (
                advance_to(rank, |k| matches!(k, TaskKind::Recv { .. })).map(|id| sched.end[id]),
                "recv end",
            ),
            DesEventKind::Collective { .. } => (
                advance_to(rank, |k| matches!(k, TaskKind::Collective { .. }))
                    .map(|id| sched.start[id]),
                "collective entry",
            ),
            DesEventKind::Finish => (
                Some(
                    rank_nodes[rank]
                        .last()
                        .map(|&id| sched.end[id])
                        .unwrap_or(0.0),
                ),
                "finish",
            ),
        };
        let Some(got) = got else {
            return Err(format!(
                "event {i}: rank {rank} has no remaining {what} node"
            ));
        };
        if got.to_bits() != ev.vtime.to_bits() {
            return Err(format!(
                "event {i}: rank {rank} {what} = {got:?} but DES logged {:?} \
                 (diff {:e})",
                ev.vtime,
                (got - ev.vtime).abs()
            ));
        }
    }
    Ok(())
}

/// Phase-aware compute rescaling of a program: every `Compute` /
/// `ComputeSecs` op in phase `p` has its cost multiplied by
/// `factor[p]` (missing entries mean 1.0). `Repeat` bodies are expanded
/// so phase state threads through iterations correctly; the expanded
/// program replays to the identical event stream when all factors are
/// 1.0. This is how a what-if prediction gets its ground truth: scale
/// the program, re-run the DES, compare makespans.
pub fn scale_compute_by_phase(program: &TraceProgram, factor: &[f64]) -> TraceProgram {
    let f = |p: u16| -> f64 { *factor.get(p as usize).unwrap_or(&1.0) };
    let mut out = TraceProgram::new(program.n_ranks());
    out.groups = program.groups.clone();
    for (rank, trace) in program.traces.iter().enumerate() {
        let mut phase: u16 = 0;
        let mut ops: Vec<Op> = Vec::with_capacity(trace.expanded_len());
        let push = |op: &Op, ops: &mut Vec<Op>, phase: &mut u16| match *op {
            Op::Phase(p) => {
                *phase = p;
                ops.push(Op::Phase(p));
            }
            Op::Compute(cost) => {
                let k = f(*phase);
                ops.push(Op::Compute(cost * k));
            }
            Op::ComputeSecs(secs) => {
                ops.push(Op::ComputeSecs(secs * f(*phase)));
            }
            ref other => ops.push(other.clone()),
        };
        for op in &trace.ops {
            match op {
                Op::Repeat { count, body } => {
                    for _ in 0..*count {
                        for b in body {
                            push(b, &mut ops, &mut phase);
                        }
                    }
                }
                other => push(other, &mut ops, &mut phase),
            }
        }
        out.traces[rank].ops = ops;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::des::Replayer;
    use cpx_obs::Rescale;

    fn ring_program(n: usize, iters: u32) -> TraceProgram {
        let mut prog = TraceProgram::new(n);
        let world = prog.add_world_group();
        for r in 0..n {
            let t = prog.rank(r);
            t.phase(1);
            t.ops.push(Op::Repeat {
                count: iters,
                body: vec![
                    Op::Compute(KernelCost::flops(1e9 * (r + 1) as f64)),
                    Op::Send {
                        dst: (r + 1) % n,
                        bytes: 4096,
                        tag: 7,
                    },
                    Op::Recv {
                        src: (r + n - 1) % n,
                        tag: 7,
                    },
                    Op::Collective {
                        kind: CollectiveKind::Allreduce,
                        group: world,
                        bytes: 8,
                    },
                ],
            });
        }
        prog
    }

    fn names() -> Vec<String> {
        vec!["(untracked)".to_string(), "ring".to_string()]
    }

    #[test]
    fn graph_makespan_bit_matches_des() {
        let machine = Machine::archer2();
        let prog = ring_program(6, 4);
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        let mut log = Vec::new();
        let out = Replayer::new(machine).run_probed(&prog, &mut log).unwrap();
        assert_eq!(sched.makespan.to_bits(), out.makespan().to_bits());
        validate_against_des(&graph, &sched, &log).unwrap();
    }

    #[test]
    fn cross_node_ranks_use_inter_node_links() {
        // Ranks straddling a node boundary: transfers must price the
        // inter-node link, visible as a larger makespan than the same
        // program on one node.
        let machine = Machine::archer2();
        let n = machine.cores_per_node;
        let mut prog = TraceProgram::new(n + 1);
        prog.rank(0).send(n, 1 << 20, 3);
        prog.rank(n).recv(0, 3);
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let sched = graph.schedule(&Rescale::none()).unwrap();
        let mut log = Vec::new();
        let out = Replayer::new(machine).run_probed(&prog, &mut log).unwrap();
        assert_eq!(sched.makespan.to_bits(), out.makespan().to_bits());
        validate_against_des(&graph, &sched, &log).unwrap();
    }

    #[test]
    fn what_if_rescale_matches_rescaled_des_replay() {
        // The engine's prediction for "phase-1 compute 2x faster" must
        // bit-match actually rescaling the program and re-replaying.
        let machine = Machine::archer2();
        let prog = ring_program(5, 3);
        let graph = build_task_graph(&prog, &machine, &names()).unwrap();
        let factors = vec![1.0, 0.5];
        let predicted = graph
            .what_if_makespan(&Rescale {
                compute_by_phase: factors.clone(),
                transfer_by_tag: vec![],
            })
            .unwrap();
        let scaled = scale_compute_by_phase(&prog, &factors);
        let measured = Replayer::new(machine).run(&scaled).unwrap().makespan();
        assert_eq!(predicted.to_bits(), measured.to_bits());
    }

    #[test]
    fn identity_scale_preserves_the_event_stream() {
        let machine = Machine::archer2();
        let prog = ring_program(4, 2);
        let expanded = scale_compute_by_phase(&prog, &[]);
        let (mut log_a, mut log_b) = (Vec::new(), Vec::new());
        let rep = Replayer::new(machine);
        rep.run_probed(&prog, &mut log_a).unwrap();
        rep.run_probed(&expanded, &mut log_b).unwrap();
        assert_eq!(log_a, log_b);
    }

    #[test]
    fn unmatched_messaging_is_a_build_error() {
        let mut prog = TraceProgram::new(2);
        prog.rank(0).send(1, 64, 1);
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert!(err.contains("never received"), "{err}");

        let mut prog = TraceProgram::new(2);
        prog.rank(1).recv(0, 9);
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert!(err.contains("no matching send"), "{err}");
    }

    #[test]
    fn short_collective_is_a_build_error() {
        let mut prog = TraceProgram::new(2);
        let world = prog.add_world_group();
        prog.rank(0).collective(CollectiveKind::Allreduce, world, 8);
        let err = build_task_graph(&prog, &Machine::archer2(), &names()).unwrap_err();
        assert!(err.contains("members emitted"), "{err}");
    }
}
