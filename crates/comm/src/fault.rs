//! Fault injection for the virtual-time runtime.
//!
//! A [`FaultPlan`] is a *seeded, declarative* description of the faults a
//! run should experience: per-rank crashes at a given virtual time,
//! per-message link faults (drop / duplicate / delay / bit-flip
//! corruption, each with a probability), and transient link-degradation
//! windows during which the drop probability rises and latency is
//! inflated. All fault decisions are **pure functions of the plan** — a
//! message's fate is derived by hashing `(seed, src, dst,
//! attempt-sequence)` — so two runs with the same plan inject
//! byte-identical faults regardless of host scheduling.
//! That is what makes resilience experiments on the virtual runtime
//! reproducible: the same seed yields the same per-rank outcomes and the
//! same [`crate::TimeReport`]s, bit for bit.
//!
//! The error surface is [`CommError`]; fallible operations
//! ([`crate::RankCtx::try_send`], [`crate::RankCtx::recv_timeout`],
//! `Group::try_*` collectives) return it, and the classic infallible APIs
//! are thin wrappers that panic on it (the panic payload *is* the
//! `CommError`, which [`crate::World::run_with_plan`] catches and turns
//! into a [`crate::RankOutcome::Failed`]).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Mutex;

use crate::lock;

/// Errors surfaced by fallible communication operations.
#[derive(Debug, Clone, PartialEq)]
pub enum CommError {
    /// The peer rank crashed (at the given virtual time) and the message
    /// being waited for can never arrive.
    PeerDead {
        /// World rank of the crashed peer.
        peer: usize,
        /// Virtual time at which it crashed.
        at: f64,
    },
    /// A `recv_timeout` deadline elapsed before a matching message's
    /// arrival time.
    Timeout {
        /// Expected source rank.
        src: usize,
        /// Expected tag.
        tag: u64,
        /// Virtual seconds waited before giving up.
        waited: f64,
    },
    /// The fault plan dropped this message on the link.
    Dropped {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Send-attempt sequence number on this link (for diagnostics;
        /// retries get fresh numbers).
        attempt: u64,
    },
    /// A rank outside the world was addressed.
    RankOutOfRange {
        /// The offending rank id.
        rank: usize,
        /// World size.
        size: usize,
    },
    /// A delivered payload failed its CRC check: the link (fault plan)
    /// flipped bits in flight and the transport refuses to hand mangled
    /// data to the application.
    Corrupted {
        /// Source rank of the damaged message.
        src: usize,
        /// Message tag.
        tag: u64,
        /// CRC stamped by the sender over the intact payload.
        crc_sent: u64,
        /// CRC recomputed over the delivered payload.
        crc_got: u64,
    },
    /// The collective group this operation belongs to was revoked by a
    /// member that observed a failure (ULFM-style `MPI_Comm_revoke`):
    /// the group's tag space is abandoned and the caller must re-form.
    Revoked {
        /// The failed rank whose death triggered the revocation.
        peer: usize,
        /// Virtual time of that failure.
        at: f64,
    },
    /// The peer rank already completed the protocol and exited cleanly;
    /// it will never answer again, but unlike [`CommError::PeerDead`]
    /// its results stand and no recovery is required.
    RankDone {
        /// World rank of the completed peer.
        peer: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerDead { peer, at } => {
                write!(f, "peer rank {peer} is dead (crashed at t={at:.6}s)")
            }
            CommError::Timeout { src, tag, waited } => write!(
                f,
                "timed out after {waited:.6}s waiting for message from rank {src} tag {tag:#x}"
            ),
            CommError::Dropped { dst, tag, attempt } => write!(
                f,
                "message to rank {dst} tag {tag:#x} dropped by fault plan (attempt {attempt})"
            ),
            CommError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} out of range for world of size {size}")
            }
            CommError::Corrupted {
                src,
                tag,
                crc_sent,
                crc_got,
            } => write!(
                f,
                "payload from rank {src} tag {tag:#x} corrupted in flight \
                 (crc {crc_got:#018x}, expected {crc_sent:#018x})"
            ),
            CommError::Revoked { peer, at } => write!(
                f,
                "collective group revoked after rank {peer} failed at t={at:.6}s"
            ),
            CommError::RankDone { peer } => {
                write!(f, "peer rank {peer} already completed and exited")
            }
        }
    }
}

impl Error for CommError {}

/// A transient window of link degradation: while the sender's virtual
/// clock is inside `[from, until)`, every message suffers `extra_drop`
/// additional drop probability and its transfer time is multiplied by
/// `delay_factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Window start (virtual seconds).
    pub from: f64,
    /// Window end (virtual seconds, exclusive).
    pub until: f64,
    /// Drop probability added to the base rate inside the window.
    pub extra_drop: f64,
    /// Multiplier (≥ 1) applied to the point-to-point transfer time.
    pub delay_factor: f64,
}

impl LinkDegradation {
    fn active(&self, now: f64) -> bool {
        now >= self.from && now < self.until
    }
}

/// The per-message fate decided by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEvent {
    /// The message is silently lost on the link.
    pub dropped: bool,
    /// A duplicate copy is also delivered (the receiver's transport layer
    /// discards it, as a sequence-numbered protocol would).
    pub duplicated: bool,
    /// Multiplier on the base transfer time (from degradation windows).
    pub delay_factor: f64,
    /// Additive delivery jitter in virtual seconds.
    pub jitter: f64,
    /// `Some(entropy)` when the link flips a payload bit in flight; the
    /// 64 entropy bits select which element and which bit (see
    /// [`crate::Payload::corrupt_in_place`]).
    pub corrupt: Option<u64>,
}

impl LinkEvent {
    /// The event for a fault-free link.
    pub fn clean() -> LinkEvent {
        LinkEvent {
            dropped: false,
            duplicated: false,
            delay_factor: 1.0,
            jitter: 0.0,
            corrupt: None,
        }
    }
}

/// A seeded, serializable description of the faults to inject into a
/// [`crate::World`] run. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all per-message fault decisions.
    pub seed: u64,
    /// `(rank, virtual time)` crash schedule. A rank dies the first time
    /// its clock reaches the given time at a charge point (compute, send,
    /// receive); its virtual clock is clamped to the crash time.
    crashes: Vec<(usize, f64)>,
    /// Base probability that any message is dropped on the link.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice.
    pub dup_prob: f64,
    /// Probability that a message suffers `delay_secs` extra latency.
    pub delay_prob: f64,
    /// Extra latency (virtual seconds) charged to delayed messages.
    pub delay_secs: f64,
    /// Probability that a message has one payload bit flipped in flight
    /// (silent data corruption on the link; caught by the payload CRC at
    /// the receiver and surfaced as [`CommError::Corrupted`]).
    pub corrupt_prob: f64,
    /// Seeded in-memory bit-flip injector for SDC experiments, if the
    /// plan models memory corruption as well as link corruption. The
    /// runtime never touches application state; mini-apps and studies
    /// consult this via [`crate::RankCtx::fault_plan`] and strike their
    /// own arrays with it.
    pub mem_corrupt: Option<BitFlipInjector>,
    /// Transient degradation windows (apply to all links).
    pub degradations: Vec<LinkDegradation>,
    /// Virtual seconds between a crash and surviving ranks being able to
    /// observe it (failure-detector latency).
    pub detect_latency: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0)
    }
}

/// splitmix64 finalizer: the mixing core of every fault decision.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Map 64 random bits to a uniform `f64` in `[0, 1)`.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// An empty (fault-free) plan with the given decision seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_secs: 0.0,
            corrupt_prob: 0.0,
            mem_corrupt: None,
            degradations: Vec::new(),
            detect_latency: 1e-4,
        }
    }

    /// Schedule `rank` to crash when its virtual clock reaches `at`.
    pub fn with_crash(mut self, rank: usize, at: f64) -> FaultPlan {
        assert!(at >= 0.0 && at.is_finite(), "crash time must be finite");
        self.crashes.retain(|&(r, _)| r != rank);
        self.crashes.push((rank, at));
        self.crashes.sort_by_key(|&(r, _)| r);
        self
    }

    /// Set the base per-message drop probability.
    pub fn with_drop_prob(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p));
        self.drop_prob = p;
        self
    }

    /// Set the per-message duplication probability.
    pub fn with_dup_prob(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p));
        self.dup_prob = p;
        self
    }

    /// With probability `p`, add `secs` of delivery latency to a message.
    pub fn with_delay(mut self, p: f64, secs: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p));
        assert!(secs >= 0.0 && secs.is_finite());
        self.delay_prob = p;
        self.delay_secs = secs;
        self
    }

    /// Set the per-message payload-corruption probability.
    pub fn with_corrupt_prob(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p));
        self.corrupt_prob = p;
        self
    }

    /// Attach a seeded memory-corruption injector (see
    /// [`BitFlipInjector`]): each application-level site strikes with
    /// probability `prob`, flipping one bit of the value stored there.
    pub fn with_memory_corruption(mut self, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob));
        self.mem_corrupt = Some(BitFlipInjector::new(self.seed, prob));
        self
    }

    /// Add a transient link-degradation window.
    pub fn with_degradation(mut self, window: LinkDegradation) -> FaultPlan {
        assert!(window.from <= window.until, "degradation window inverted");
        assert!((0.0..=1.0).contains(&window.extra_drop));
        assert!(window.delay_factor >= 1.0, "delay factor must be >= 1");
        self.degradations.push(window);
        self
    }

    /// The crash schedule, sorted by rank.
    pub fn crashes(&self) -> &[(usize, f64)] {
        &self.crashes
    }

    /// The virtual time at which `rank` is scheduled to crash, if any.
    pub fn crash_time(&self, rank: usize) -> Option<f64> {
        self.crashes
            .iter()
            .find(|&&(r, _)| r == rank)
            .map(|&(_, t)| t)
    }

    /// Whether the plan injects no faults at all (lets the runtime skip
    /// all fault bookkeeping on the hot path).
    pub fn is_trivial(&self) -> bool {
        self.crashes.is_empty()
            && self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.delay_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.mem_corrupt.is_none()
            && self.degradations.is_empty()
    }

    /// Decide the fate of send attempt `seq` from `src` to `dst` issued
    /// at sender virtual time `now`. Pure: the same arguments always
    /// yield the same event.
    pub fn link_event(&self, src: usize, dst: usize, seq: u64, now: f64) -> LinkEvent {
        if self.is_trivial() {
            return LinkEvent::clean();
        }
        let mut drop_p = self.drop_prob;
        let mut factor = 1.0;
        for w in &self.degradations {
            if w.active(now) {
                drop_p = (drop_p + w.extra_drop).min(1.0);
                factor *= w.delay_factor;
            }
        }
        let link =
            mix64(self.seed ^ ((src as u64) << 32 | dst as u64).wrapping_mul(0x9e3779b97f4a7c15));
        let h = mix64(link ^ mix64(seq ^ 0x00fa_0174));
        LinkEvent {
            dropped: unit(mix64(h ^ 0xd80b)) < drop_p,
            duplicated: unit(mix64(h ^ 0xd0bb)) < self.dup_prob,
            delay_factor: factor,
            jitter: if unit(mix64(h ^ 0xde1a)) < self.delay_prob {
                self.delay_secs
            } else {
                0.0
            },
            corrupt: if unit(mix64(h ^ 0xc0de)) < self.corrupt_prob {
                Some(mix64(h ^ 0xb17f))
            } else {
                None
            },
        }
    }
}

/// A seeded, deterministic in-memory bit-flip injector for
/// silent-data-corruption experiments.
///
/// Whether (and where) a value is struck is a **pure function of
/// `(seed, site)`** — the same purity contract as
/// [`FaultPlan::link_event`] — so SDC sweeps are exactly reproducible:
/// the same seed strikes the same array elements with the same bit
/// flips on every run, regardless of host scheduling. A *site* is any
/// stable application-chosen identifier (array index, `(iteration,
/// index)` hash, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitFlipInjector {
    /// Seed for all strike decisions.
    pub seed: u64,
    /// Probability that any given site is struck.
    pub prob: f64,
}

impl BitFlipInjector {
    /// An injector striking each site with probability `prob`.
    pub fn new(seed: u64, prob: f64) -> BitFlipInjector {
        assert!((0.0..=1.0).contains(&prob));
        BitFlipInjector { seed, prob }
    }

    fn site_hash(&self, site: u64) -> u64 {
        mix64(self.seed ^ site.wrapping_mul(0x9e3779b97f4a7c15) ^ 0x5dc0)
    }

    /// Whether `site` is struck. Pure.
    pub fn strikes(&self, site: u64) -> bool {
        unit(self.site_hash(site)) < self.prob
    }

    /// Which of the 64 bits a strike at `site` flips. Pure.
    pub fn bit(&self, site: u64) -> u32 {
        (mix64(self.site_hash(site) ^ 0xb1f1) % 64) as u32
    }

    /// `v` with bit `bit` of its IEEE-754 representation flipped.
    pub fn flip(v: f64, bit: u32) -> f64 {
        f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64)))
    }

    /// `v` after a possible strike at `site`: flipped if the site is
    /// struck, unchanged otherwise.
    pub fn apply(&self, site: u64, v: f64) -> f64 {
        if self.strikes(site) {
            BitFlipInjector::flip(v, self.bit(site))
        } else {
            v
        }
    }

    /// Strike every element of `data` (element `i` is site `base + i`),
    /// returning the indices that were flipped.
    pub fn sweep(&self, base: u64, data: &mut [f64]) -> Vec<usize> {
        let mut hit = Vec::new();
        for (i, v) in data.iter_mut().enumerate() {
            let site = base + i as u64;
            if self.strikes(site) {
                *v = BitFlipInjector::flip(*v, self.bit(site));
                hit.push(i);
            }
        }
        hit
    }
}

/// Signal payload used to unwind a rank thread at its scheduled crash
/// time. [`crate::World::run_with_plan`] downcasts it into
/// [`crate::RankOutcome::Crashed`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashSignal {
    pub at: f64,
}

/// Shared registry of crashed ranks. A dying rank marks itself here
/// *before* unwinding, and every one of its channel sends completes
/// before the mark, so a surviving rank that (a) observes the mark and
/// then (b) drains its inbox is guaranteed to have seen every message
/// the dead rank ever sent — that ordering is what makes `PeerDead`
/// detection deterministic.
///
/// PR 7 widened the registry into the full shared lifecycle store the
/// [`crate::transport::Transport`] trait exposes: besides dead marks it
/// now tracks *done* marks (ranks that completed the protocol and will
/// never answer again, but whose results stand) and *group
/// revocations* (a member that abandons a collective group records the
/// triggering failure under the group signature, so stragglers blocked
/// in that group's tag space observe it in bounded time). The same
/// first-write-wins / ordered-after-sends discipline applies to all
/// three maps.
#[derive(Default)]
pub(crate) struct DeadRegistry {
    map: Mutex<HashMap<usize, f64>>,
    done: Mutex<HashMap<usize, ()>>,
    revoked: Mutex<HashMap<(u64, usize), (usize, f64)>>,
}

impl DeadRegistry {
    pub fn mark(&self, rank: usize, at: f64) {
        lock(&self.map).entry(rank).or_insert(at);
    }

    pub fn time_of(&self, rank: usize) -> Option<f64> {
        lock(&self.map).get(&rank).copied()
    }

    pub fn mark_done(&self, rank: usize) {
        lock(&self.done).insert(rank, ());
    }

    pub fn is_done(&self, rank: usize) -> bool {
        lock(&self.done).contains_key(&rank)
    }

    /// Record that rank `by` revoked group `sig`, blaming the failure
    /// of `peer` at virtual time `at`. Keyed per revoker: a waiter
    /// checks the flag *of the specific rank it is blocked on*, whose
    /// revocation is ordered after that rank's last send on the group —
    /// the same ordered-after-sends discipline as the dead map, which
    /// is what keeps revocation-driven recovery deterministic.
    pub fn revoke(&self, sig: u64, by: usize, peer: usize, at: f64) {
        lock(&self.revoked).entry((sig, by)).or_insert((peer, at));
    }

    pub fn revoked_by(&self, sig: u64, by: usize) -> Option<(usize, f64)> {
        lock(&self.revoked).get(&(sig, by)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Injected crashes unwind as panics, so a rank can die while it
    /// holds a registry lock. The survivors must still read and write
    /// every map: detection, done marks and revocation all go through
    /// here.
    #[test]
    fn dead_registry_survives_a_panicked_lock_holder() {
        let reg = std::sync::Arc::new(DeadRegistry::default());
        reg.mark(1, 0.5);
        let dying = std::sync::Arc::clone(&reg);
        let died = std::thread::spawn(move || {
            let _map = lock(&dying.map);
            let _done = lock(&dying.done);
            let _revoked = lock(&dying.revoked);
            panic!("rank dies holding the registry locks");
        })
        .join();
        assert!(died.is_err());
        assert!(reg.map.is_poisoned() && reg.done.is_poisoned() && reg.revoked.is_poisoned());

        assert_eq!(reg.time_of(1), Some(0.5));
        reg.mark(3, 1.5);
        reg.mark(3, 2.0);
        assert_eq!(reg.time_of(3), Some(1.5), "first mark wins");
        assert_eq!(reg.time_of(4), None);
        reg.mark_done(2);
        assert!(reg.is_done(2) && !reg.is_done(3));
        reg.revoke(7, 0, 3, 1.5);
        reg.revoke(7, 0, 4, 9.0);
        assert_eq!(reg.revoked_by(7, 0), Some((3, 1.5)), "first revoke wins");
        assert_eq!(reg.revoked_by(7, 1), None);
    }

    #[test]
    fn display_formats() {
        let e = CommError::PeerDead { peer: 3, at: 1.5 };
        assert!(e.to_string().contains("rank 3"));
        let e = CommError::Dropped {
            dst: 1,
            tag: 7,
            attempt: 2,
        };
        assert!(e.to_string().contains("dropped"));
    }

    #[test]
    fn link_events_are_deterministic() {
        let plan = FaultPlan::new(42)
            .with_drop_prob(0.3)
            .with_dup_prob(0.2)
            .with_delay(0.5, 1e-5);
        for seq in 0..100 {
            let a = plan.link_event(0, 1, seq, 0.5);
            let b = plan.link_event(0, 1, seq, 0.5);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(7).with_drop_prob(0.25);
        let dropped = (0..10_000)
            .filter(|&seq| plan.link_event(2, 5, seq, 0.0).dropped)
            .count();
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn links_decide_independently() {
        let plan = FaultPlan::new(9).with_drop_prob(0.5);
        let a: Vec<bool> = (0..64)
            .map(|s| plan.link_event(0, 1, s, 0.0).dropped)
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|s| plan.link_event(1, 0, s, 0.0).dropped)
            .collect();
        assert_ne!(a, b, "link (0,1) and (1,0) should have distinct streams");
    }

    #[test]
    fn degradation_window_applies_inside_only() {
        let plan = FaultPlan::new(1).with_degradation(LinkDegradation {
            from: 1.0,
            until: 2.0,
            extra_drop: 1.0,
            delay_factor: 4.0,
        });
        let inside = plan.link_event(0, 1, 0, 1.5);
        assert!(inside.dropped);
        assert_eq!(inside.delay_factor, 4.0);
        let outside = plan.link_event(0, 1, 0, 2.5);
        assert!(!outside.dropped);
        assert_eq!(outside.delay_factor, 1.0);
    }

    #[test]
    fn crash_schedule_lookup() {
        let plan = FaultPlan::new(0).with_crash(3, 0.25).with_crash(1, 0.5);
        assert_eq!(plan.crash_time(3), Some(0.25));
        assert_eq!(plan.crash_time(1), Some(0.5));
        assert_eq!(plan.crash_time(0), None);
        assert_eq!(plan.crashes(), &[(1, 0.5), (3, 0.25)]);
        assert!(!plan.is_trivial());
        assert!(FaultPlan::new(99).is_trivial());
    }

    #[test]
    fn corruption_rate_tracks_probability_and_is_pure() {
        let plan = FaultPlan::new(13).with_corrupt_prob(0.2);
        assert!(!plan.is_trivial());
        let corrupted = (0..10_000)
            .filter(|&seq| plan.link_event(1, 3, seq, 0.0).corrupt.is_some())
            .count();
        let rate = corrupted as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.03, "observed corruption rate {rate}");
        for seq in 0..100 {
            assert_eq!(
                plan.link_event(1, 3, seq, 0.0).corrupt,
                plan.link_event(1, 3, seq, 0.0).corrupt
            );
        }
    }

    #[test]
    fn bit_flip_injector_is_pure_and_tracks_probability() {
        let inj = BitFlipInjector::new(21, 0.1);
        let mut a = vec![1.0; 10_000];
        let mut b = vec![1.0; 10_000];
        let hits_a = inj.sweep(0, &mut a);
        let hits_b = inj.sweep(0, &mut b);
        assert_eq!(hits_a, hits_b);
        assert_eq!(a, b);
        let rate = hits_a.len() as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.02, "observed strike rate {rate}");
        for &i in &hits_a {
            assert_ne!(a[i].to_bits(), 1.0f64.to_bits());
        }
        // flip is an involution: striking the same bit twice restores.
        let v = 3.25f64;
        assert_eq!(
            BitFlipInjector::flip(BitFlipInjector::flip(v, 17), 17).to_bits(),
            v.to_bits()
        );
    }

    #[test]
    fn memory_corruption_attaches_to_plan() {
        let plan = FaultPlan::new(5).with_memory_corruption(0.01);
        assert!(!plan.is_trivial());
        let inj = plan.mem_corrupt.expect("injector attached");
        assert_eq!(inj.seed, 5);
        assert_eq!(inj.prob, 0.01);
        assert!(FaultPlan::new(5).mem_corrupt.is_none());
    }

    #[test]
    fn dead_registry_first_mark_wins() {
        let reg = DeadRegistry::default();
        assert_eq!(reg.time_of(2), None);
        reg.mark(2, 1.0);
        reg.mark(2, 5.0);
        assert_eq!(reg.time_of(2), Some(1.0));
    }
}
