//! Discrete-event replayer for [`TraceProgram`]s.
//!
//! The replayer executes every rank's trace against a [`Machine`],
//! advancing a per-rank virtual clock:
//!
//! * `Compute` advances the rank's clock by the roofline time of the
//!   kernel on one core.
//! * `Send` is eager: the sender is charged only the per-message software
//!   overhead and the message is deposited with an arrival timestamp of
//!   `send_clock + p2p_time`.
//! * `Recv` blocks until the matching `(src, tag)` message exists, then
//!   sets the clock to `max(clock, arrival)`.
//! * `Collective` blocks until every member of the group arrives, then
//!   sets every member's clock to `max(member clocks) + collective_time`.
//!
//! Execution is a simple run-to-block scheduler over runnable ranks, so
//! replay cost is `O(total ops)`. Replay is fully deterministic.
//!
//! ## Probes
//!
//! One event loop serves every observer. [`Replayer::run_probed`] is
//! generic over a [`Probe`] that hears each event, phase switch and
//! time charge; [`Replayer::run`] passes `()`, whose empty hooks compile
//! away. The event log (`Vec<DesEvent>`), the per-phase accounting
//! ([`PhaseBreakdown`]) and the per-rank span lanes ([`PhaseSpans`]) are
//! probes, and a pair `(A, B)` runs two at once, so one replay can
//! produce all three.
//!
//! ## Dense state
//!
//! The event loop touches no hash map. Before it starts, one pass over
//! the *unexpanded* ops numbers every `(src, dst, tag)` send channel
//! (the `channel` module, shared with [`crate::graph`]): each source
//! rank keeps a sorted `(dst, tag)` table, a send looks itself up in its
//! own rank's table and a receive in `src`'s. Per channel the replayer
//! keeps a FIFO of arrival times and one waiter slot; a receive on a
//! triple nobody sends on has no channel, blocks, and ends in
//! [`ReplayError::Deadlock`]. The FIFOs share one recycled node pool,
//! so memory follows the messages in flight — a `Repeat` count never
//! turns into an allocation — and a replay makes the same allocations
//! however many iterations it runs. Collectives in progress live in a
//! vector indexed by group.
//!
//! Measured on a 2-core Intel Xeon VM (4 MiB L2), replaying the MG-CFD
//! 8M calibration curve (10 rank counts from 100 to 40,000; 16.0M
//! expanded ops, 6.56M messages) takes 33 ns per op, 12.5M messages/s.
//! The hash-map mailboxes this layout replaced took 169–203 ns per op
//! on the same curve.

use std::collections::VecDeque;

use cpx_obs::{RankRecorder, TraceSession};

use crate::channel::{ChannelFifos, ChannelTable, NIL};
use crate::collectives::collective_time;
use crate::model::Machine;
use crate::trace::{CollectiveKind, Op, PhaseId, TraceProgram};

/// Errors detected during replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The program failed structural validation.
    Invalid(String),
    /// No rank can make progress but not all ranks finished.
    Deadlock {
        /// Ranks still blocked, with a description of what they wait on.
        blocked: Vec<(usize, String)>,
    },
    /// Two members of a group posted different collectives at the same
    /// position in the group's collective sequence.
    CollectiveMismatch {
        group: usize,
        expected: CollectiveKind,
        found: CollectiveKind,
    },
    /// A rank posted a collective on a group it is not a member of.
    NotAMember { rank: usize, group: usize },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Invalid(s) => write!(f, "invalid trace program: {s}"),
            ReplayError::Deadlock { blocked } => {
                write!(f, "deadlock: {} ranks blocked", blocked.len())?;
                for (r, why) in blocked.iter().take(4) {
                    write!(f, "; rank {r}: {why}")?;
                }
                Ok(())
            }
            ReplayError::CollectiveMismatch {
                group,
                expected,
                found,
            } => write!(
                f,
                "collective mismatch on group {group}: {expected:?} vs {found:?}"
            ),
            ReplayError::NotAMember { rank, group } => {
                write!(
                    f,
                    "rank {rank} posted collective on group {group} it is not in"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// What happened in one replay-relevant scheduler step (see
/// [`DesEvent`]). Compute ops are *not* logged — their effect is fully
/// captured by the virtual timestamps of the surrounding events — so a
/// log stays compact even for million-op programs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DesEventKind {
    /// A rank deposited a message. `bytes` saturates at `u32::MAX`
    /// (virtual messages are far smaller; the narrow fields keep the
    /// event 32 bytes so logging stays within the recorder's <5%
    /// overhead budget).
    Send { dst: u32, tag: u32, bytes: u32 },
    /// A rank completed a matching receive.
    Recv { src: u32, tag: u32 },
    /// A rank arrived at a collective.
    Collective { kind: CollectiveKind, group: u32 },
    /// A rank ran out of ops.
    Finish,
}

/// One entry of the deterministic event log (a `Vec<DesEvent>` probe,
/// see [`Probe`]): which rank did what, at which virtual time. The
/// run-to-block scheduler is deterministic, so the *global* order of
/// these events is reproducible bit-for-bit — same program, same
/// machine ⇒ identical log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesEvent {
    /// The rank the event happened on.
    pub rank: u32,
    /// The rank's virtual clock immediately after the event.
    pub vtime: f64,
    /// What happened.
    pub kind: DesEventKind,
}

/// Observer of a replay, passed to [`Replayer::run_probed`]. Every hook
/// has an empty default body, so the `()` probe behind
/// [`Replayer::run`] compiles to nothing and the plain event loop
/// carries no observation code. The replay is monomorphised per probe
/// type; a probe only sees the run, it never steers it.
///
/// Provided probes: `Vec<DesEvent>` (the event log), [`PhaseBreakdown`]
/// (per-phase compute/comm), [`PhaseSpans`] (per-rank phase timelines)
/// and `(A, B)` (both of two probes).
pub trait Probe {
    /// Called once before the first op, after validation: the rank
    /// count and the number of ops the program expands to.
    fn begin(&mut self, _n_ranks: usize, _expanded_ops: usize) {}

    /// A send, receive, collective arrival or rank finish, in global
    /// scheduler order.
    fn event(&mut self, _event: DesEvent) {}

    /// `rank` switched to a different phase `to` at virtual time `now`.
    fn phase(&mut self, _rank: usize, _to: PhaseId, _now: f64) {}

    /// `rank` spent `dt` seconds of local compute in `phase`.
    fn compute(&mut self, _rank: usize, _phase: PhaseId, _dt: f64) {}

    /// `rank` spent `dt` seconds on communication in `phase`.
    fn comm(&mut self, _rank: usize, _phase: PhaseId, _dt: f64) {}
}

/// The no-op probe of [`Replayer::run`].
impl Probe for () {}

/// The deterministic event log. Appends; a caller that reuses one buffer
/// across replays clears it first. Reusing a buffer avoids the
/// large-allocation round trip to the OS per run, which is what keeps
/// the recorder under its <5% overhead budget. The hooks are
/// `#[inline]` because the replay is instantiated in the caller's
/// crate: an out-of-line push per event doubles the logging cost.
impl Probe for Vec<DesEvent> {
    #[inline]
    fn begin(&mut self, n_ranks: usize, expanded_ops: usize) {
        // One event per expanded op plus a finish per rank, so logging
        // costs pushes, not reallocation+copy cycles.
        let events = expanded_ops.saturating_add(n_ranks);
        self.reserve(events.min(LOG_RESERVE_CAP));
    }

    #[inline]
    fn event(&mut self, event: DesEvent) {
        self.push(event);
    }
}

/// Both probes, `A` first.
impl<A: Probe, B: Probe> Probe for (A, B) {
    fn begin(&mut self, n_ranks: usize, expanded_ops: usize) {
        self.0.begin(n_ranks, expanded_ops);
        self.1.begin(n_ranks, expanded_ops);
    }

    fn event(&mut self, event: DesEvent) {
        self.0.event(event);
        self.1.event(event);
    }

    fn phase(&mut self, rank: usize, to: PhaseId, now: f64) {
        self.0.phase(rank, to, now);
        self.1.phase(rank, to, now);
    }

    fn compute(&mut self, rank: usize, phase: PhaseId, dt: f64) {
        self.0.compute(rank, phase, dt);
        self.1.compute(rank, phase, dt);
    }

    fn comm(&mut self, rank: usize, phase: PhaseId, dt: f64) {
        self.0.comm(rank, phase, dt);
        self.1.comm(rank, phase, dt);
    }
}

/// Per-phase, per-rank time accounting for phase ids `0..n_phases`, as
/// a [`Probe`]; time in higher phases is not attributed.
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// `compute[phase][rank]` — seconds of local compute attributed to
    /// `phase` on `rank`.
    pub compute: Vec<Vec<f64>>,
    /// `comm[phase][rank]` — seconds of communication wait attributed.
    pub comm: Vec<Vec<f64>>,
}

impl PhaseBreakdown {
    /// An accounting probe for phase ids `0..n_phases`.
    pub fn new(n_phases: usize) -> Self {
        PhaseBreakdown {
            compute: vec![Vec::new(); n_phases],
            comm: vec![Vec::new(); n_phases],
        }
    }

    /// Max over ranks of compute + comm for `phase` — the elapsed time a
    /// profiler would attribute to that function.
    pub fn elapsed(&self, phase: usize) -> f64 {
        self.compute[phase]
            .iter()
            .zip(&self.comm[phase])
            .map(|(c, m)| c + m)
            .fold(0.0, f64::max)
    }

    /// Total compute seconds across ranks for `phase`.
    pub fn total_compute(&self, phase: usize) -> f64 {
        self.compute[phase].iter().sum()
    }

    /// Total communication seconds across ranks for `phase`.
    pub fn total_comm(&self, phase: usize) -> f64 {
        self.comm[phase].iter().sum()
    }
}

impl Probe for PhaseBreakdown {
    fn begin(&mut self, n_ranks: usize, _expanded_ops: usize) {
        for per_rank in self.compute.iter_mut().chain(&mut self.comm) {
            per_rank.clear();
            per_rank.resize(n_ranks, 0.0);
        }
    }

    #[inline]
    fn compute(&mut self, rank: usize, phase: PhaseId, dt: f64) {
        if let Some(per_rank) = self.compute.get_mut(phase as usize) {
            per_rank[rank] += dt;
        }
    }

    #[inline]
    fn comm(&mut self, rank: usize, phase: PhaseId, dt: f64) {
        if let Some(per_rank) = self.comm.get_mut(phase as usize) {
            per_rank[rank] += dt;
        }
    }
}

/// Result of a successful replay.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Virtual finish time of each rank.
    pub finish: Vec<f64>,
    /// Seconds each rank spent in local compute.
    pub compute_time: Vec<f64>,
    /// Seconds each rank spent waiting on communication.
    pub comm_time: Vec<f64>,
    /// Number of point-to-point messages delivered.
    pub messages: u64,
    /// Total point-to-point payload bytes.
    pub bytes: u64,
}

impl ReplayOutcome {
    /// The virtual runtime of the program (max rank finish time).
    pub fn makespan(&self) -> f64 {
        self.finish.iter().copied().fold(0.0, f64::max)
    }

    /// Max finish time over a subset of ranks (an app instance's runtime
    /// inside a coupled program).
    pub fn makespan_of(&self, ranks: &[usize]) -> f64 {
        ranks.iter().map(|&r| self.finish[r]).fold(0.0, f64::max)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Blocked {
    Recv { src: usize, tag: u32 },
    Collective { group: usize },
}

/// Per-rank phase timelines, as a [`Probe`]: every maximal run of
/// virtual time a rank spends in one phase becomes a span on that
/// rank's lane, named after its phase (`names[id]`, falling back to
/// `"phase {id}"`). Zero-length runs leave no span. Deterministic: same
/// program ⇒ byte-identical session.
#[derive(Debug, Default)]
pub struct PhaseSpans {
    names: Vec<String>,
    recorders: Vec<RankRecorder>,
    seg_start: Vec<f64>,
    phase: Vec<PhaseId>,
}

impl PhaseSpans {
    /// A span recorder naming phase id `i` after `names[i]`.
    pub fn new<S: AsRef<str>>(names: &[S]) -> Self {
        PhaseSpans {
            names: names.iter().map(|s| s.as_ref().to_string()).collect(),
            ..PhaseSpans::default()
        }
    }

    /// Close the segment `rank` has occupied since the last phase
    /// switch (no-op for zero-length segments).
    fn close_segment(&mut self, rank: usize, now: f64) {
        let start = self.seg_start[rank];
        if now > start {
            let phase = self.phase[rank];
            let name = self
                .names
                .get(phase as usize)
                .cloned()
                .unwrap_or_else(|| format!("phase {phase}"));
            self.recorders[rank].push_span(name, start, now);
        }
        self.seg_start[rank] = now;
    }

    /// The recorded lanes, each closed at its rank's `finish` time.
    pub fn into_session(self, finish: &[f64]) -> TraceSession {
        TraceSession::new(
            self.recorders
                .into_iter()
                .enumerate()
                .map(|(rank, rec)| rec.into_timeline(rank, finish[rank]))
                .collect(),
        )
    }
}

impl Probe for PhaseSpans {
    fn begin(&mut self, n_ranks: usize, _expanded_ops: usize) {
        self.recorders = (0..n_ranks).map(|_| RankRecorder::on()).collect();
        self.seg_start = vec![0.0; n_ranks];
        self.phase = vec![0; n_ranks];
    }

    #[inline]
    fn event(&mut self, event: DesEvent) {
        if matches!(event.kind, DesEventKind::Finish) {
            self.close_segment(event.rank as usize, event.vtime);
        }
    }

    fn phase(&mut self, rank: usize, to: PhaseId, now: f64) {
        self.close_segment(rank, now);
        self.phase[rank] = to;
    }
}

/// A group's collective in progress (`arrived == 0`: none). One per
/// group for the whole replay, so `waiters` keeps its capacity.
#[derive(Debug)]
struct PendingColl {
    kind: CollectiveKind,
    arrived: usize,
    max_clock: f64,
    max_bytes: usize,
    /// (rank, clock at arrival) for comm-time attribution.
    waiters: Vec<(usize, f64)>,
}

impl Default for PendingColl {
    fn default() -> Self {
        PendingColl {
            kind: CollectiveKind::Barrier,
            arrived: 0,
            max_clock: 0.0,
            max_bytes: 0,
            waiters: Vec::new(),
        }
    }
}

/// Cursor over a rank trace, expanding `Repeat` lazily.
#[derive(Debug, Clone)]
struct Cursor {
    pc: usize,
    rep_iter: u32,
    rep_pc: usize,
    in_repeat: bool,
}

impl Cursor {
    fn new() -> Self {
        Cursor {
            pc: 0,
            rep_iter: 0,
            rep_pc: 0,
            in_repeat: false,
        }
    }
}

/// Most events a logged replay reserves room for up front (32 MiB).
/// Longer logs grow by doubling; the cap keeps a huge `Repeat` count
/// that never runs (its rank deadlocks first) from forcing a huge
/// reservation.
const LOG_RESERVE_CAP: usize = 1 << 20;

/// The discrete-event replayer. Construct with a machine, optionally
/// enable system noise, then call [`Replayer::run`], or
/// [`Replayer::run_probed`] to observe the replay.
#[derive(Debug, Clone)]
pub struct Replayer {
    machine: Machine,
    /// Optional `(amplitude, seed)` system-noise model.
    noise: Option<(f64, u64)>,
}

impl Replayer {
    /// A replayer for `machine`.
    pub fn new(machine: Machine) -> Self {
        Replayer {
            machine,
            noise: None,
        }
    }

    /// Enable deterministic system noise: every compute op's duration
    /// is scaled by a factor in `[1, 1 + 2·amplitude]` drawn from a
    /// splitmix64 stream keyed by `(seed, rank, op index)` — a simple
    /// model of OS jitter and memory/network contention on a production
    /// machine (one-sided: interference only ever slows a core down).
    /// Replays remain bit-reproducible for a given seed.
    pub fn with_noise(mut self, amplitude: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&amplitude));
        self.noise = if amplitude > 0.0 {
            Some((amplitude, seed))
        } else {
            None
        };
        self
    }

    /// The machine being modelled.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Replay `program`, returning per-rank timings.
    pub fn run(&self, program: &TraceProgram) -> Result<ReplayOutcome, ReplayError> {
        self.run_probed(program, &mut ())
    }

    /// Replay `program`, reporting every event, phase switch and time
    /// charge to `probe`. The probe does not change the replay: timings
    /// are bit-identical to [`Replayer::run`]'s, and the scheduler order
    /// is deterministic, so same program + machine ⇒ the same probe
    /// calls in the same order (which is what makes the event log usable
    /// as a golden trace for record/replay regression checks).
    pub fn run_probed(
        &self,
        program: &TraceProgram,
        probe: &mut impl Probe,
    ) -> Result<ReplayOutcome, ReplayError> {
        program.validate().map_err(ReplayError::Invalid)?;
        let n = program.n_ranks();

        // Group membership checks are cheaper with a lookup table.
        let mut member: Vec<Vec<bool>> = Vec::with_capacity(program.groups.len());
        for g in &program.groups {
            let mut m = vec![false; n];
            for &r in g {
                m[r] = true;
            }
            member.push(m);
        }

        let mut clock = vec![0.0f64; n];
        let mut compute_time = vec![0.0f64; n];
        let mut comm_time = vec![0.0f64; n];
        let mut phase: Vec<PhaseId> = vec![0; n];
        let mut cursors: Vec<Cursor> = (0..n).map(|_| Cursor::new()).collect();
        let mut blocked: Vec<Option<Blocked>> = vec![None; n];
        let mut done = vec![false; n];

        // Per channel: a FIFO of arrival times and the rank blocked on
        // it (`NIL` = none). Per group: the collective in progress.
        let channels = ChannelTable::new(program);
        probe.begin(n, channels.expanded_ops);
        let mut mailbox: ChannelFifos<f64> = ChannelFifos::new(channels.len());
        let mut recv_waiter: Vec<u32> = vec![NIL; channels.len()];
        let mut pending_colls: Vec<PendingColl> = program
            .groups
            .iter()
            .map(|_| PendingColl::default())
            .collect();

        let mut messages: u64 = 0;
        let mut total_bytes: u64 = 0;

        let mut runnable: VecDeque<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        // Per-rank compute-op counters for the noise stream.
        let mut op_counter = vec![0u64; n];
        let noise = self.noise;
        let noise_factor = |rank: usize, counter: u64| -> f64 {
            match noise {
                None => 1.0,
                Some((amp, seed)) => {
                    let mut x = seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    x ^= counter.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    // splitmix64 finalizer.
                    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
                    x ^= x >> 31;
                    let u = (x >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                    1.0 + 2.0 * amp * u
                }
            }
        };

        while let Some(rank) = runnable.pop_front() {
            queued[rank] = false;
            if done[rank] || blocked[rank].is_some() {
                continue;
            }
            let ops = &program.traces[rank].ops;
            'run: loop {
                // Resolve the current op through the Repeat cursor.
                let cur = &mut cursors[rank];
                let op: &Op = loop {
                    if cur.pc >= ops.len() {
                        done[rank] = true;
                        probe.event(DesEvent {
                            rank: rank as u32,
                            vtime: clock[rank],
                            kind: DesEventKind::Finish,
                        });
                        break 'run;
                    }
                    match &ops[cur.pc] {
                        Op::Repeat { count, body } => {
                            if cur.rep_iter >= *count || body.is_empty() {
                                cur.pc += 1;
                                cur.rep_iter = 0;
                                cur.rep_pc = 0;
                                cur.in_repeat = false;
                                continue;
                            }
                            if cur.rep_pc >= body.len() {
                                cur.rep_iter += 1;
                                cur.rep_pc = 0;
                                continue;
                            }
                            cur.in_repeat = true;
                            break &body[cur.rep_pc];
                        }
                        other => {
                            cur.in_repeat = false;
                            break other;
                        }
                    }
                };

                // Advance-past helper applied after the op executes.
                macro_rules! advance {
                    () => {{
                        let cur = &mut cursors[rank];
                        if cur.in_repeat {
                            cur.rep_pc += 1;
                        } else {
                            cur.pc += 1;
                        }
                    }};
                }

                match *op {
                    Op::Compute(cost) => {
                        op_counter[rank] += 1;
                        let dt =
                            self.machine.kernel_time(cost) * noise_factor(rank, op_counter[rank]);
                        clock[rank] += dt;
                        compute_time[rank] += dt;
                        probe.compute(rank, phase[rank], dt);
                        advance!();
                    }
                    Op::ComputeSecs(dt) => {
                        op_counter[rank] += 1;
                        let dt = dt * noise_factor(rank, op_counter[rank]);
                        clock[rank] += dt;
                        compute_time[rank] += dt;
                        probe.compute(rank, phase[rank], dt);
                        advance!();
                    }
                    Op::Phase(p) => {
                        if p != phase[rank] {
                            probe.phase(rank, p, clock[rank]);
                            phase[rank] = p;
                        }
                        advance!();
                    }
                    Op::Send { dst, bytes, tag } => {
                        let arrival = clock[rank] + self.machine.p2p_time(rank, dst, bytes);
                        clock[rank] += self.machine.send_overhead;
                        comm_time[rank] += self.machine.send_overhead;
                        probe.comm(rank, phase[rank], self.machine.send_overhead);
                        messages += 1;
                        total_bytes += bytes as u64;
                        probe.event(DesEvent {
                            rank: rank as u32,
                            vtime: clock[rank],
                            kind: DesEventKind::Send {
                                dst: dst as u32,
                                tag,
                                bytes: bytes.min(u32::MAX as usize) as u32,
                            },
                        });
                        let ch = channels
                            .id(rank, dst, tag)
                            .expect("every send has a channel");
                        mailbox.push(ch, arrival);
                        let waiter = std::mem::replace(&mut recv_waiter[ch as usize], NIL);
                        if waiter != NIL {
                            let waiter = waiter as usize;
                            blocked[waiter] = None;
                            if !queued[waiter] && !done[waiter] {
                                queued[waiter] = true;
                                runnable.push_back(waiter);
                            }
                        }
                        advance!();
                    }
                    Op::Recv { src, tag } => {
                        let ch = channels.id(src, rank, tag);
                        match ch.and_then(|ch| mailbox.pop(ch)) {
                            Some(arrival) => {
                                let wait = (arrival - clock[rank]).max(0.0);
                                clock[rank] += wait;
                                comm_time[rank] += wait;
                                probe.comm(rank, phase[rank], wait);
                                probe.event(DesEvent {
                                    rank: rank as u32,
                                    vtime: clock[rank],
                                    kind: DesEventKind::Recv {
                                        src: src as u32,
                                        tag,
                                    },
                                });
                                advance!();
                            }
                            None => {
                                // A receive on a channel nobody sends on
                                // waits for ever and ends in `Deadlock`.
                                blocked[rank] = Some(Blocked::Recv { src, tag });
                                if let Some(ch) = ch {
                                    recv_waiter[ch as usize] = rank as u32;
                                }
                                break 'run;
                            }
                        }
                    }
                    Op::Collective { kind, group, bytes } => {
                        if group >= member.len() || !member[group][rank] {
                            return Err(ReplayError::NotAMember { rank, group });
                        }
                        let gsize = program.groups[group].len();
                        let entry = &mut pending_colls[group];
                        if entry.arrived == 0 {
                            entry.kind = kind;
                            entry.max_clock = 0.0;
                            entry.max_bytes = 0;
                        } else if entry.kind != kind {
                            return Err(ReplayError::CollectiveMismatch {
                                group,
                                expected: entry.kind,
                                found: kind,
                            });
                        }
                        entry.arrived += 1;
                        entry.max_clock = entry.max_clock.max(clock[rank]);
                        entry.max_bytes = entry.max_bytes.max(bytes);
                        entry.waiters.push((rank, clock[rank]));
                        probe.event(DesEvent {
                            rank: rank as u32,
                            vtime: clock[rank],
                            kind: DesEventKind::Collective {
                                kind,
                                group: group as u32,
                            },
                        });
                        // Advance this rank's cursor past the collective
                        // now; it will be unblocked when the group is
                        // complete.
                        advance!();
                        if entry.arrived == gsize {
                            let t_end = entry.max_clock
                                + collective_time(
                                    &self.machine,
                                    entry.kind,
                                    gsize,
                                    entry.max_bytes,
                                );
                            entry.arrived = 0;
                            for (r, at) in entry.waiters.drain(..) {
                                let wait = t_end - at;
                                clock[r] = t_end;
                                comm_time[r] += wait;
                                probe.comm(r, phase[r], wait);
                                if r != rank {
                                    blocked[r] = None;
                                    if !queued[r] && !done[r] {
                                        queued[r] = true;
                                        runnable.push_back(r);
                                    }
                                }
                            }
                            // This rank continues running.
                        } else {
                            blocked[rank] = Some(Blocked::Collective { group });
                            break 'run;
                        }
                    }
                    Op::Repeat { .. } => unreachable!("resolved by cursor"),
                }
            }
        }

        // Every rank must be done; otherwise we deadlocked.
        if done.iter().any(|d| !d) {
            let blocked_list = (0..n)
                .filter(|&r| !done[r])
                .map(|r| {
                    let why = match &blocked[r] {
                        Some(Blocked::Recv { src, tag }) => {
                            format!("recv from {src} tag {tag}")
                        }
                        Some(Blocked::Collective { group }) => {
                            format!("collective on group {group}")
                        }
                        None => "runnable but never scheduled (bug)".to_string(),
                    };
                    (r, why)
                })
                .collect();
            return Err(ReplayError::Deadlock {
                blocked: blocked_list,
            });
        }

        Ok(ReplayOutcome {
            finish: clock,
            compute_time,
            comm_time,
            messages,
            bytes: total_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::KernelCost;
    use crate::model::MachineBuilder;

    /// Replay with an event log.
    fn replay_log(
        rep: &Replayer,
        p: &TraceProgram,
    ) -> Result<(ReplayOutcome, Vec<DesEvent>), ReplayError> {
        let mut log = Vec::new();
        rep.run_probed(p, &mut log).map(|out| (out, log))
    }

    /// Replay with phase spans named after `names`.
    fn replay_spans(
        rep: &Replayer,
        p: &TraceProgram,
        names: &[&str],
    ) -> (ReplayOutcome, TraceSession) {
        let mut spans = PhaseSpans::new(names);
        let out = rep.run_probed(p, &mut spans).unwrap();
        let session = spans.into_session(&out.finish);
        (out, session)
    }

    fn simple_machine() -> Machine {
        MachineBuilder::new("unit")
            .cores_per_node(2)
            .flops_per_core(1.0) // 1 flop = 1 second
            .mem_bw_per_core(1.0)
            .intra(0.5, 10.0)
            .inter(1.0, 1.0)
            .send_overhead(0.0)
            .build()
    }

    #[test]
    fn compute_only() {
        let mut p = TraceProgram::new(2);
        p.rank(0).compute(KernelCost::flops(3.0));
        p.rank(1).compute(KernelCost::flops(5.0));
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert_eq!(out.finish, vec![3.0, 5.0]);
        assert_eq!(out.makespan(), 5.0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn send_recv_timing() {
        // Rank 0 computes 2s then sends 10 bytes to rank 1 (same node:
        // latency 0.5, bw 10 -> transfer 1.0). Rank 1 recvs immediately.
        let mut p = TraceProgram::new(2);
        p.rank(0).compute(KernelCost::flops(2.0));
        p.rank(0).send(1, 10, 0);
        p.rank(1).recv(0, 0);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        // Arrival = 2 + 0.5 + 1.0 = 3.5.
        assert!((out.finish[1] - 3.5).abs() < 1e-12);
        assert!((out.comm_time[1] - 3.5).abs() < 1e-12);
        assert_eq!(out.messages, 1);
        assert_eq!(out.bytes, 10);
    }

    #[test]
    fn recv_posted_before_send() {
        let mut p = TraceProgram::new(2);
        p.rank(1).recv(0, 3);
        p.rank(0).compute(KernelCost::flops(4.0));
        p.rank(0).send(1, 0, 3);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!((out.finish[1] - 4.5).abs() < 1e-12); // 4 + latency 0.5
    }

    #[test]
    fn fifo_matching_same_tag() {
        let mut p = TraceProgram::new(2);
        p.rank(0).send(1, 10, 0); // arrival 1.5
        p.rank(0).compute(KernelCost::flops(10.0));
        p.rank(0).send(1, 10, 0); // arrival 11.5
        p.rank(1).recv(0, 0);
        p.rank(1).recv(0, 0);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!((out.finish[1] - 11.5).abs() < 1e-12);
    }

    #[test]
    fn tags_demultiplex() {
        let mut p = TraceProgram::new(2);
        p.rank(0).send(1, 10, 7); // tag 7 first
        p.rank(0).send(1, 10, 9);
        // Receiver takes tag 9 then tag 7 — must not deadlock.
        p.rank(1).recv(0, 9);
        p.rank(1).recv(0, 7);
        assert!(Replayer::new(simple_machine()).run(&p).is_ok());
    }

    #[test]
    fn allreduce_synchronises() {
        let mut p = TraceProgram::new(4);
        let g = p.add_world_group();
        for r in 0..4 {
            p.rank(r).compute(KernelCost::flops((r + 1) as f64));
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        // All ranks finish at the same time, >= slowest compute (4s).
        let f0 = out.finish[0];
        assert!(f0 > 4.0);
        for r in 1..4 {
            assert!((out.finish[r] - f0).abs() < 1e-12);
        }
    }

    #[test]
    fn subgroup_collectives_independent() {
        let mut p = TraceProgram::new(4);
        let g0 = p.add_group(vec![0, 1]);
        let g1 = p.add_group(vec![2, 3]);
        p.rank(0).collective(CollectiveKind::Barrier, g0, 0);
        p.rank(1).collective(CollectiveKind::Barrier, g0, 0);
        p.rank(2).compute(KernelCost::flops(100.0));
        p.rank(2).collective(CollectiveKind::Barrier, g1, 0);
        p.rank(3).collective(CollectiveKind::Barrier, g1, 0);
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        // Group 0 must not be delayed by group 1's slow member.
        assert!(out.finish[0] < 10.0);
        assert!(out.finish[3] >= 100.0);
    }

    #[test]
    fn deadlock_detected() {
        let mut p = TraceProgram::new(2);
        p.rank(0).recv(1, 0);
        p.rank(1).recv(0, 0);
        match Replayer::new(simple_machine()).run(&p) {
            Err(ReplayError::Deadlock { blocked }) => assert_eq!(blocked.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn collective_mismatch_detected() {
        let mut p = TraceProgram::new(2);
        let g = p.add_world_group();
        p.rank(0).collective(CollectiveKind::Barrier, g, 0);
        p.rank(1).collective(CollectiveKind::Allreduce, g, 8);
        assert!(matches!(
            Replayer::new(simple_machine()).run(&p),
            Err(ReplayError::CollectiveMismatch { .. })
        ));
    }

    #[test]
    fn non_member_collective_detected() {
        let mut p = TraceProgram::new(3);
        let g = p.add_group(vec![0, 1]);
        p.rank(0).collective(CollectiveKind::Barrier, g, 0);
        p.rank(1).collective(CollectiveKind::Barrier, g, 0);
        p.rank(2).collective(CollectiveKind::Barrier, g, 0);
        assert!(matches!(
            Replayer::new(simple_machine()).run(&p),
            Err(ReplayError::NotAMember { rank: 2, group: 0 })
        ));
    }

    #[test]
    fn repeat_expands() {
        let mut p = TraceProgram::new(1);
        p.rank(0).ops.push(Op::Repeat {
            count: 5,
            body: vec![Op::ComputeSecs(2.0)],
        });
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!((out.finish[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn repeat_with_messaging() {
        // Ping-pong inside Repeat across both ranks.
        let mut p = TraceProgram::new(2);
        p.rank(0).ops.push(Op::Repeat {
            count: 3,
            body: vec![
                Op::Send {
                    dst: 1,
                    bytes: 8,
                    tag: 0,
                },
                Op::Recv { src: 1, tag: 1 },
            ],
        });
        p.rank(1).ops.push(Op::Repeat {
            count: 3,
            body: vec![
                Op::Recv { src: 0, tag: 0 },
                Op::Send {
                    dst: 0,
                    bytes: 8,
                    tag: 1,
                },
            ],
        });
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert!(out.makespan() > 0.0);
        assert_eq!(out.messages, 6);
    }

    #[test]
    fn phase_attribution() {
        let mut p = TraceProgram::new(2);
        for r in 0..2 {
            p.rank(r).phase(0);
            p.rank(r).compute(KernelCost::flops(1.0));
            p.rank(r).phase(1);
            p.rank(r).compute(KernelCost::flops(2.0));
        }
        let mut probe = (PhaseBreakdown::new(2), PhaseBreakdown::new(1));
        Replayer::new(simple_machine())
            .run_probed(&p, &mut probe)
            .unwrap();
        let (ph, first_only) = probe;
        assert!((ph.total_compute(0) - 2.0).abs() < 1e-12);
        assert!((ph.total_compute(1) - 4.0).abs() < 1e-12);
        assert!((ph.elapsed(1) - 2.0).abs() < 1e-12);
        // Phases past the tracked range are not attributed.
        assert_eq!(first_only.compute, vec![vec![1.0, 1.0]]);
    }

    #[test]
    fn traced_replay_segments_phases() {
        let mut p = TraceProgram::new(2);
        for r in 0..2 {
            p.rank(r).phase(0);
            p.rank(r).compute(KernelCost::flops(1.0));
            p.rank(r).phase(1);
            p.rank(r).compute(KernelCost::flops(2.0));
        }
        let rep = Replayer::new(simple_machine());
        let (out, session) = replay_spans(&rep, &p, &["alpha", "beta"]);
        assert_eq!(session.lanes.len(), 2);
        for lane in &session.lanes {
            assert_eq!(lane.spans.len(), 2);
            assert_eq!(lane.spans[0].name, "alpha");
            assert_eq!(lane.spans[1].name, "beta");
            assert!(lane.spans.iter().all(|s| s.end >= s.start));
        }
        // Traced and untraced replays agree exactly.
        let plain = rep.run(&p).unwrap();
        assert_eq!(out.finish, plain.finish);
        // And the session itself is deterministic.
        let (_, again) = replay_spans(&rep, &p, &["alpha", "beta"]);
        assert_eq!(session, again);
    }

    #[test]
    fn traced_replay_names_unknown_phases() {
        let mut p = TraceProgram::new(1);
        p.rank(0).phase(3);
        p.rank(0).compute(KernelCost::flops(1.0));
        let (_, session) = replay_spans(&Replayer::new(simple_machine()), &p, &[]);
        assert_eq!(session.lanes[0].spans[0].name, "phase 3");
    }

    #[test]
    fn determinism_across_runs() {
        let mut p = TraceProgram::new(8);
        let g = p.add_world_group();
        for r in 0..8 {
            p.rank(r).compute(KernelCost::flops(r as f64 + 1.0));
            p.rank(r).send((r + 1) % 8, 64, 0);
            p.rank(r).recv((r + 7) % 8, 0);
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let rep = Replayer::new(simple_machine());
        let a = rep.run(&p).unwrap();
        let b = rep.run(&p).unwrap();
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.comm_time, b.comm_time);
    }

    #[test]
    fn large_rank_count_replays() {
        // 10k ranks in a ring with an allreduce — smoke test for scale.
        let n = 10_000;
        let mut p = TraceProgram::new(n);
        let g = p.add_world_group();
        for r in 0..n {
            p.rank(r).compute(KernelCost::flops(1.0));
            p.rank(r).send((r + 1) % n, 8, 0);
            p.rank(r).recv((r + n - 1) % n, 0);
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let out = Replayer::new(Machine::archer2()).run(&p).unwrap();
        assert_eq!(out.messages, n as u64);
        assert!(out.makespan() > 0.0);
    }

    #[test]
    fn logged_replay_is_deterministic_and_agrees_with_plain() {
        let mut p = TraceProgram::new(4);
        let g = p.add_world_group();
        for r in 0..4 {
            p.rank(r).compute(KernelCost::flops(r as f64 + 1.0));
            p.rank(r).send((r + 1) % 4, 64, 0);
            p.rank(r).recv((r + 3) % 4, 0);
            p.rank(r).collective(CollectiveKind::Allreduce, g, 8);
        }
        let rep = Replayer::new(simple_machine());
        let (out, log) = replay_log(&rep, &p).unwrap();
        let plain = rep.run(&p).unwrap();
        assert_eq!(out.finish, plain.finish);
        // 4 sends + 4 recvs + 4 collective arrivals + 4 finishes.
        assert_eq!(log.len(), 16);
        assert_eq!(
            log.iter()
                .filter(|e| matches!(e.kind, DesEventKind::Finish))
                .count(),
            4
        );
        let (_, again) = replay_log(&rep, &p).unwrap();
        assert_eq!(log, again);
    }

    /// `(src, vtime)` of every receive rank `rank` logged, in order.
    fn recvs_of(log: &[DesEvent], rank: u32) -> Vec<(u32, f64)> {
        log.iter()
            .filter(|e| e.rank == rank)
            .filter_map(|e| match e.kind {
                DesEventKind::Recv { src, .. } => Some((src, e.vtime)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn channel_fifo_spans_repeat_body_and_top_level_ops() {
        // Four sends on one channel (0 -> 1, tag 5): top level, twice
        // from a Repeat body, then top level again. The last one is the
        // largest, so any order but FIFO changes the receive times.
        // Intra-node link: latency 0.5, bandwidth 10 B/s.
        let mut p = TraceProgram::new(2);
        p.rank(0).send(1, 0, 5); // arrives 0.5
        p.rank(0).ops.push(Op::Repeat {
            count: 2,
            body: vec![
                Op::ComputeSecs(1.0),
                Op::Send {
                    dst: 1,
                    bytes: 0,
                    tag: 5,
                },
            ], // arrive 1.5 and 2.5
        });
        p.rank(0).send(1, 100, 5); // sent at 2.0, arrives 12.5
        for _ in 0..4 {
            p.rank(1).recv(0, 5);
        }
        let (out, log) = replay_log(&Replayer::new(simple_machine()), &p).unwrap();
        assert_eq!(
            recvs_of(&log, 1),
            vec![(0, 0.5), (0, 1.5), (0, 2.5), (0, 12.5)]
        );
        assert_eq!(out.messages, 4);
        assert_eq!(out.bytes, 100);
    }

    #[test]
    fn one_tag_from_several_sources_stays_per_source() {
        // Ranks 1..=3 each send one zero-byte message to rank 0 on tag 4,
        // after 10 s x rank of compute. Rank 0 asks for rank 3's first:
        // a tag-only match would hand it rank 1's earlier message.
        let mut p = TraceProgram::new(4);
        for s in 1..4 {
            p.rank(s).compute_secs(10.0 * s as f64);
            p.rank(s).send(0, 0, 4);
        }
        for s in [3, 1, 2] {
            p.rank(0).recv(s, 4);
        }
        let (out, log) = replay_log(&Replayer::new(simple_machine()), &p).unwrap();
        // Rank 3 is on the other node: inter latency 1.0.
        assert_eq!(recvs_of(&log, 0), vec![(3, 31.0), (1, 31.0), (2, 31.0)]);
        assert_eq!(out.finish[0], 31.0);
        assert_eq!(out.messages, 3);
    }

    #[test]
    fn self_sends_deliver_in_order() {
        // A self-message is a memcpy at twice the intra-node bandwidth:
        // 100 bytes arrive after 5 s, zero bytes at once.
        let mut p = TraceProgram::new(1);
        p.rank(0).send(0, 100, 2);
        p.rank(0).ops.push(Op::Repeat {
            count: 3,
            body: vec![
                Op::Send {
                    dst: 0,
                    bytes: 0,
                    tag: 2,
                },
                Op::Recv { src: 0, tag: 2 },
                Op::ComputeSecs(1.0),
            ],
        });
        p.rank(0).recv(0, 2);
        let (out, log) = replay_log(&Replayer::new(simple_machine()), &p).unwrap();
        // Each receive takes the message sent one step earlier: first
        // the 100-byte one (5.0), then each zero-byte one.
        assert_eq!(
            recvs_of(&log, 0),
            vec![(0, 5.0), (0, 6.0), (0, 7.0), (0, 8.0)]
        );
        assert_eq!(out.finish[0], 8.0);
        assert_eq!(out.messages, 4);
    }

    #[test]
    fn recv_on_a_channel_nobody_sends_on_deadlocks_as_before() {
        // Rank 0 only ever sends on tag 8; rank 1 also waits on tag 9.
        let mut p = TraceProgram::new(2);
        p.rank(0).send(1, 8, 8);
        p.rank(1).recv(0, 8);
        p.rank(1).recv(0, 9);
        let err = Replayer::new(simple_machine()).run(&p).unwrap_err();
        assert_eq!(
            err,
            ReplayError::Deadlock {
                blocked: vec![(1, "recv from 0 tag 9".to_string())]
            }
        );
        // A source rank that sends nothing at all.
        let mut p = TraceProgram::new(2);
        p.rank(1).recv(0, 0);
        let err = replay_log(&Replayer::new(simple_machine()), &p).unwrap_err();
        assert_eq!(
            err,
            ReplayError::Deadlock {
                blocked: vec![(1, "recv from 0 tag 0".to_string())]
            }
        );
    }

    #[test]
    fn blocked_rank_never_expands_a_huge_repeat() {
        // Rank 0 waits for a message that never comes, then would send
        // u32::MAX messages. The replay must stop at the deadlock,
        // logged or not.
        let mut p = TraceProgram::new(2);
        p.rank(0).recv(1, 0);
        p.rank(0).ops.push(Op::Repeat {
            count: u32::MAX,
            body: vec![Op::Send {
                dst: 1,
                bytes: 8,
                tag: 0,
            }],
        });
        let rep = Replayer::new(simple_machine());
        let expected = ReplayError::Deadlock {
            blocked: vec![(0, "recv from 1 tag 0".to_string())],
        };
        assert_eq!(rep.run(&p).unwrap_err(), expected);
        assert_eq!(replay_log(&rep, &p).unwrap_err(), expected);
    }

    #[test]
    fn makespan_of_subset() {
        let mut p = TraceProgram::new(3);
        p.rank(0).compute(KernelCost::flops(1.0));
        p.rank(1).compute(KernelCost::flops(5.0));
        p.rank(2).compute(KernelCost::flops(9.0));
        let out = Replayer::new(simple_machine()).run(&p).unwrap();
        assert_eq!(out.makespan_of(&[0, 1]), 5.0);
        assert_eq!(out.makespan_of(&[2]), 9.0);
    }
}
