//! Critical-path composition of a recorded `.cpxr` trace.
//!
//! Where `cpx_machine::graph` rebuilds the *exact* task graph from a
//! program plus a machine model, this module works from the trace file
//! alone — the virtual timestamps of the recorded events are the only
//! information available. That is enough to walk the binding chain
//! backward from the last event: a receive that completed *after* the
//! rank's previous event was message-bound (the chain hops to the
//! sender), a collective exit was bound by its last-arriving member
//! (the chain hops there), and everything else was local progress.
//!
//! The result is a gap-free tiling of `[0, makespan]` into **local**
//! and **message** spans. One approximation is inherent to
//! vtime-only analysis: a collective's own cost is indistinguishable
//! from local compute after the meet (both live between two timestamps
//! on the same rank), so `comm_s` here brackets the true
//! communication share *from below*. For exact attribution build the
//! task graph; for a quick composition answer over any committed
//! `.cpxr` artifact — including ones whose generating program is long
//! gone — this is the tool.

use crate::{ReplayEvent, Trace};
use cpx_obs::Json;

/// One binding span of the trace's critical chain.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Rank blamed for the span (the sender for message spans).
    pub rank: u64,
    /// `"local"` or `"message"`.
    pub label: &'static str,
    /// Span start (virtual seconds).
    pub t0: f64,
    /// Span end.
    pub t1: f64,
}

impl TraceSpan {
    /// Span duration.
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Composition of a trace's binding chain.
#[derive(Debug, Clone, Default)]
pub struct TraceCritical {
    /// Virtual time of the last recorded event.
    pub makespan: f64,
    /// Seconds of the chain spent in local progress.
    pub local_s: f64,
    /// Seconds of the chain that were message-bound.
    pub message_s: f64,
    /// The chain's spans, earliest first; they tile `[0, makespan]`.
    pub spans: Vec<TraceSpan>,
}

impl TraceCritical {
    /// Fraction of the makespan the spans cover (≈ 1.0 by construction).
    pub fn coverage(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 1.0;
        }
        self.spans.iter().map(TraceSpan::dur).sum::<f64>() / self.makespan
    }

    /// JSON form: composition plus the `top_n` longest spans.
    pub fn to_json(&self, top_n: usize) -> Json {
        let mut idx: Vec<usize> = (0..self.spans.len()).collect();
        idx.sort_by(|&a, &b| {
            let (sa, sb) = (&self.spans[a], &self.spans[b]);
            sb.dur()
                .partial_cmp(&sa.dur())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    sa.t0
                        .partial_cmp(&sb.t0)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        });
        let spans: Vec<Json> = idx
            .into_iter()
            .take(top_n)
            .map(|k| {
                let s = &self.spans[k];
                Json::obj(vec![
                    ("rank", Json::Num(s.rank as f64)),
                    ("label", Json::Str(s.label.to_string())),
                    ("t0", Json::Num(s.t0)),
                    ("dur", Json::Num(s.dur())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("makespan", Json::Num(self.makespan)),
            ("local_s", Json::Num(self.local_s)),
            ("message_s", Json::Num(self.message_s)),
            ("coverage", Json::Num(self.coverage())),
            ("spans", Json::Num(self.spans.len() as f64)),
            ("top_spans", Json::Arr(spans)),
        ])
    }
}

/// A timed event in the flattened per-rank view.
#[derive(Debug, Clone, Copy)]
struct Timed {
    /// Index into `trace.events`.
    ev: usize,
    rank: u64,
    vtime: f64,
}

/// What role a timed event plays in the backward walk.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// A receive matched to the send at the given timed index.
    RecvFrom(usize),
    /// A collective entry; the occurrence's members are the timed
    /// indices of the same occurrence across ranks.
    Meet(usize),
    /// Anything else: progress marker only.
    Local,
}

/// Analyze the binding chain of `trace`. Works on both DES traces
/// (`Send`/`Recv`/`Collective`/`Finish`) and comm-runtime traces
/// (`CommSend`/`CommRecv`/`CommCollective`/...); events without a rank
/// or timestamp (whole-run resilience decisions) are skipped.
pub fn trace_critical(trace: &Trace) -> TraceCritical {
    // Flatten to timed events; trace order within one rank is that
    // rank's program order.
    let timed: Vec<Timed> = trace
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            Some(Timed {
                ev: i,
                rank: e.rank()?,
                vtime: e.vtime()?,
            })
        })
        .collect();
    if timed.is_empty() {
        return TraceCritical::default();
    }

    // Per-rank chains (indices into `timed`) and per-timed predecessor.
    use std::collections::HashMap;
    let mut prev: Vec<Option<usize>> = vec![None; timed.len()];
    let mut last_on_rank: HashMap<u64, usize> = HashMap::new();
    for (t, ev) in timed.iter().enumerate() {
        prev[t] = last_on_rank.insert(ev.rank, t);
    }

    // Match receives to sends, FIFO per (src, dst, tag). Dropped and
    // corrupted comm-runtime sends never complete a matching receive.
    let mut send_q: HashMap<(u64, u64, u64), std::collections::VecDeque<usize>> = HashMap::new();
    // Collective occurrences: k-th collective entry per rank joins the
    // k-th global occurrence (the recorded runs only use world-sized
    // collective groups per group id, so (group, k) keys them).
    let mut occ_of: HashMap<(u64, u64), usize> = HashMap::new();
    let mut occ_members: Vec<Vec<usize>> = Vec::new();
    let mut rank_occ_counter: HashMap<(u64, u64), u64> = HashMap::new();
    let mut roles: Vec<Role> = vec![Role::Local; timed.len()];

    for (t, ev) in timed.iter().enumerate() {
        match trace.events[ev.ev] {
            ReplayEvent::Send { rank, dst, tag, .. } => {
                send_q.entry((rank, dst, tag)).or_default().push_back(t);
            }
            ReplayEvent::CommSend {
                rank,
                dst,
                tag,
                dropped,
                corrupted,
                ..
            } if !dropped && !corrupted => {
                send_q.entry((rank, dst, tag)).or_default().push_back(t);
            }
            ReplayEvent::Recv { rank, src, tag, .. }
            | ReplayEvent::CommRecv { rank, src, tag, .. } => {
                if let Some(s) = send_q
                    .get_mut(&(src, rank, tag))
                    .and_then(|q| q.pop_front())
                {
                    roles[t] = Role::RecvFrom(s);
                }
            }
            ReplayEvent::Collective { rank, group, .. } => {
                let k = rank_occ_counter.entry((group, rank)).or_insert(0);
                let occ = *occ_of.entry((group, *k)).or_insert_with(|| {
                    occ_members.push(Vec::new());
                    occ_members.len() - 1
                });
                *k += 1;
                occ_members[occ].push(t);
                roles[t] = Role::Meet(occ);
            }
            ReplayEvent::CommCollective { rank, .. } => {
                // No group id on the wire: comm-runtime collectives are
                // world-wide, keyed by per-rank occurrence count.
                let k = rank_occ_counter.entry((u64::MAX, rank)).or_insert(0);
                let occ = *occ_of.entry((u64::MAX, *k)).or_insert_with(|| {
                    occ_members.push(Vec::new());
                    occ_members.len() - 1
                });
                *k += 1;
                occ_members[occ].push(t);
                roles[t] = Role::Meet(occ);
            }
            _ => {}
        }
    }

    // The chain's head: the globally last timed event (latest vtime,
    // last in trace order on ties — scan keeps the first maximum from
    // the right).
    let mut head = 0usize;
    for (t, ev) in timed.iter().enumerate() {
        if ev.vtime >= timed[head].vtime {
            head = t;
        }
    }
    let makespan = timed[head].vtime;

    // Backward walk along binding constraints.
    let mut spans: Vec<TraceSpan> = Vec::new();
    let mut cur = Some(head);
    let mut guard = timed.len() + occ_members.len() + 1;
    while let Some(t) = cur {
        if guard == 0 {
            break; // malformed trace; refuse to loop forever
        }
        guard -= 1;
        let t_cur = timed[t].vtime;
        let p = prev[t];
        let t_prev = p.map(|q| timed[q].vtime).unwrap_or(0.0);

        if let Role::RecvFrom(s) = roles[t] {
            let t_send = timed[s].vtime;
            if t_send > t_prev {
                // Message-bound: blame the sender, hop to its chain.
                if t_cur > t_send {
                    spans.push(TraceSpan {
                        rank: timed[s].rank,
                        label: "message",
                        t0: t_send,
                        t1: t_cur,
                    });
                }
                cur = Some(s);
                continue;
            }
        }
        if let Some(q) = p {
            if let Role::Meet(occ) = roles[q] {
                // The stretch since the collective includes its exit:
                // bound by the last-arriving member.
                let mut det = q;
                for &m in &occ_members[occ] {
                    if timed[m].vtime > timed[det].vtime {
                        det = m;
                    }
                }
                let t_det = timed[det].vtime;
                if t_cur > t_det {
                    spans.push(TraceSpan {
                        rank: timed[t].rank,
                        label: "local",
                        t0: t_det,
                        t1: t_cur,
                    });
                }
                cur = Some(det);
                continue;
            }
        }
        // Local progress since the previous event on this rank.
        if t_cur > t_prev {
            spans.push(TraceSpan {
                rank: timed[t].rank,
                label: "local",
                t0: t_prev,
                t1: t_cur,
            });
        }
        cur = p;
    }

    spans.reverse();
    let local_s = spans
        .iter()
        .filter(|s| s.label == "local")
        .map(TraceSpan::dur)
        .sum();
    let message_s = spans
        .iter()
        .filter(|s| s.label == "message")
        .map(TraceSpan::dur)
        .sum();
    TraceCritical {
        makespan,
        local_s,
        message_s,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_machine::{CollectiveKind, KernelCost, Machine, Op, Replayer, TraceProgram};

    fn des_trace(program: &TraceProgram, machine: Machine) -> Trace {
        let mut log = Vec::new();
        Replayer::new(machine)
            .run_probed(program, &mut log)
            .unwrap();
        Trace {
            label: "test".into(),
            seed: 0,
            world_size: program.n_ranks() as u32,
            events: log.into_iter().map(ReplayEvent::from).collect(),
        }
    }

    #[test]
    fn message_bound_chain_blames_the_sender() {
        let machine = Machine::archer2();
        let mut prog = TraceProgram::new(2);
        prog.rank(0).ops.push(Op::Compute(KernelCost::flops(1e12)));
        prog.rank(0).send(1, 1 << 20, 3);
        prog.rank(1).recv(0, 3);
        prog.rank(1).ops.push(Op::Compute(KernelCost::flops(1e9)));
        let trace = des_trace(&prog, machine);
        let crit = trace_critical(&trace);
        assert!(crit.makespan > 0.0);
        assert!((crit.coverage() - 1.0).abs() < 1e-9, "{}", crit.coverage());
        // The chain crosses the message: sender compute, the message,
        // then the receiver's tail compute.
        assert!(crit.message_s > 0.0);
        let msg = crit.spans.iter().find(|s| s.label == "message").unwrap();
        assert_eq!(msg.rank, 0);
        // Rank 0's heavy compute dominates the local share.
        assert!(crit.local_s > crit.message_s);
    }

    #[test]
    fn collective_chain_follows_the_last_arriver() {
        let machine = Machine::archer2();
        let mut prog = TraceProgram::new(3);
        let world = prog.add_world_group();
        for r in 0..3 {
            let flops = 1e11 * (r + 1) as f64;
            prog.rank(r).ops.push(Op::Compute(KernelCost::flops(flops)));
            prog.rank(r).collective(CollectiveKind::Allreduce, world, 8);
            prog.rank(r).ops.push(Op::Compute(KernelCost::flops(1e9)));
        }
        let trace = des_trace(&prog, machine);
        let crit = trace_critical(&trace);
        assert!((crit.coverage() - 1.0).abs() < 1e-9);
        // Rank 2 computes longest: the pre-collective chain must run on
        // it (first span from t=0 belongs to rank 2).
        assert_eq!(crit.spans.first().unwrap().rank, 2);
    }

    #[test]
    fn empty_and_untimed_traces_do_not_panic() {
        let empty = Trace {
            label: "empty".into(),
            seed: 0,
            world_size: 0,
            events: vec![],
        };
        let crit = trace_critical(&empty);
        assert_eq!(crit.makespan, 0.0);
        assert_eq!(crit.coverage(), 1.0);

        let untimed = Trace {
            label: "untimed".into(),
            seed: 0,
            world_size: 1,
            events: vec![ReplayEvent::Checkpoint { iter: 3 }],
        };
        assert_eq!(trace_critical(&untimed).spans.len(), 0);
    }

    #[test]
    fn report_json_parses_and_orders_spans() {
        let machine = Machine::archer2();
        let mut prog = TraceProgram::new(2);
        prog.rank(0).ops.push(Op::Compute(KernelCost::flops(1e12)));
        prog.rank(0).send(1, 4096, 1);
        prog.rank(1).recv(0, 1);
        let trace = des_trace(&prog, machine);
        let crit = trace_critical(&trace);
        let text = crit.to_json(5).write_pretty();
        let v = Json::parse(&text).unwrap();
        assert!(v.get("makespan").unwrap().as_f64().unwrap() > 0.0);
        let spans = v.get("top_spans").unwrap().as_arr().unwrap();
        assert!(!spans.is_empty());
        // Longest first.
        let durs: Vec<f64> = spans
            .iter()
            .map(|s| s.get("dur").unwrap().as_f64().unwrap())
            .collect();
        assert!(durs.windows(2).all(|w| w[0] >= w[1]));
    }
}
