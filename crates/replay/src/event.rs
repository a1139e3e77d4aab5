//! The replay event: every source of nondeterminism a run can record,
//! as the union of the three engine vocabularies.
//!
//! Each variant wraps its producer's own event type, unchanged:
//!
//! * [`ReplayEvent::Des`] — the DES replayer's deterministic event log
//!   ([`cpx_machine::DesEvent`]): sends, receives, collective arrivals
//!   and rank finishes with virtual timestamps;
//! * [`ReplayEvent::Comm`] — the threaded comm runtime's per-rank event
//!   lanes ([`cpx_comm::CommEvent`]), including each message's
//!   fault-plan draw (drop/duplicate/corrupt), retries, failure
//!   detection, crashes and aborts;
//! * [`ReplayEvent::Resilience`] — the resilient coupled run's decision
//!   log ([`cpx_core::ResilienceEvent`]): checkpoints, the
//!   crash/rollback/shrink sequence, stale CU exchanges, and SDC
//!   detection/recovery.
//!
//! A producer's log maps in with `.map(ReplayEvent::Des)` (or `Comm`,
//! `Resilience`).
//!
//! # Wire form
//!
//! One kind byte, then the fields in declaration order. Kinds 0–3 are
//! DES (`Send`, `Recv`, `Collective`, `Finish`), 4–12 comm (in
//! [`CommEventKind`] order) and 13–19 resilience (in
//! [`ResilienceEvent`] order). A DES or comm record carries its rank as
//! the first field and its virtual time as the last. Integers are
//! varints; [`ReplayEvent::decode`] rejects one wider than the field it
//! fills (`u32` for DES fields, `usize` for comm and resilience fields)
//! as [`WireError::Invalid`].
//!
//! Events compare bit-exactly (timestamps are IEEE-754-identical across
//! replays of the same inputs), which is what makes strict event-by-event
//! verification meaningful.

use cpx_comm::{CollectiveOp, CommEvent, CommEventKind};
use cpx_core::{ResilienceEvent, SdcSite};
use cpx_machine::{CollectiveKind, DesEvent, DesEventKind};

use crate::wire::{Decoder, Encoder, WireError};

/// One recorded event, tagged by the engine that produced it. See the
/// module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayEvent {
    /// A DES scheduler event.
    Des(DesEvent),
    /// A threaded comm-runtime event.
    Comm(CommEvent),
    /// A resilient-run decision.
    Resilience(ResilienceEvent),
}

fn collective_kind_tag(k: CollectiveKind) -> u8 {
    match k {
        CollectiveKind::Barrier => 0,
        CollectiveKind::Broadcast => 1,
        CollectiveKind::Reduce => 2,
        CollectiveKind::Allreduce => 3,
        CollectiveKind::Allgather => 4,
        CollectiveKind::Alltoall => 5,
        CollectiveKind::Gather => 6,
        CollectiveKind::Scatter => 7,
    }
}

fn collective_kind_from(tag: u8) -> Option<CollectiveKind> {
    Some(match tag {
        0 => CollectiveKind::Barrier,
        1 => CollectiveKind::Broadcast,
        2 => CollectiveKind::Reduce,
        3 => CollectiveKind::Allreduce,
        4 => CollectiveKind::Allgather,
        5 => CollectiveKind::Alltoall,
        6 => CollectiveKind::Gather,
        7 => CollectiveKind::Scatter,
        _ => return None,
    })
}

fn collective_op_tag(op: CollectiveOp) -> u8 {
    match op {
        CollectiveOp::Bcast => 0,
        CollectiveOp::Reduce => 1,
        CollectiveOp::Allreduce => 2,
        CollectiveOp::Barrier => 3,
        CollectiveOp::Gather => 4,
        CollectiveOp::Allgather => 5,
        CollectiveOp::Alltoallv => 6,
    }
}

fn collective_op_from(tag: u8) -> Option<CollectiveOp> {
    Some(match tag {
        0 => CollectiveOp::Bcast,
        1 => CollectiveOp::Reduce,
        2 => CollectiveOp::Allreduce,
        3 => CollectiveOp::Barrier,
        4 => CollectiveOp::Gather,
        5 => CollectiveOp::Allgather,
        6 => CollectiveOp::Alltoallv,
        _ => return None,
    })
}

fn sdc_site_tag(s: SdcSite) -> u8 {
    match s {
        SdcSite::SparseKernel => 0,
        SdcSite::HaloExchange => 1,
        SdcSite::CommPayload => 2,
        SdcSite::PhysicsInvariant => 3,
        SdcSite::SolverCycle => 4,
    }
}

fn sdc_site_from(tag: u8) -> Option<SdcSite> {
    Some(match tag {
        0 => SdcSite::SparseKernel,
        1 => SdcSite::HaloExchange,
        2 => SdcSite::CommPayload,
        3 => SdcSite::PhysicsInvariant,
        4 => SdcSite::SolverCycle,
        _ => return None,
    })
}

/// A varint narrowed to the width of the field it fills.
fn get_narrow<T: TryFrom<u64>>(dec: &mut Decoder<'_>) -> Result<T, WireError> {
    let offset = dec.offset();
    T::try_from(dec.get_uv()?).map_err(|_| WireError::Invalid {
        offset,
        what: "varint wider than its field",
    })
}

/// A one-byte enum tag, mapped through `from`.
fn get_tag<T>(
    dec: &mut Decoder<'_>,
    from: fn(u8) -> Option<T>,
    what: &'static str,
) -> Result<T, WireError> {
    let tag = dec.get_u8()?;
    from(tag).ok_or(WireError::Invalid {
        offset: dec.offset() - 1,
        what,
    })
}

impl ReplayEvent {
    /// The rank the event happened on, where it has one (resilience
    /// decisions are whole-run, not per-rank).
    pub fn rank(&self) -> Option<u64> {
        match self {
            ReplayEvent::Des(e) => Some(e.rank.into()),
            ReplayEvent::Comm(e) => Some(e.rank as u64),
            ReplayEvent::Resilience(_) => None,
        }
    }

    /// The event's virtual timestamp, where it carries one.
    pub fn vtime(&self) -> Option<f64> {
        match *self {
            ReplayEvent::Des(e) => Some(e.vtime),
            ReplayEvent::Comm(e) => Some(e.vtime),
            ReplayEvent::Resilience(ResilienceEvent::Crash { vtime, .. }) => Some(vtime),
            ReplayEvent::Resilience(_) => None,
        }
    }

    /// Compact human description of the event *kind* with its salient
    /// identity fields — what a [`crate::DivergenceError`] prints, e.g.
    /// `Recv{src:3}` or `Collective{Allreduce}`. Timestamps are
    /// deliberately excluded (they are reported separately).
    pub fn describe(&self) -> String {
        use ResilienceEvent::*;
        match *self {
            ReplayEvent::Des(e) => match e.kind {
                DesEventKind::Send { dst, tag, .. } => format!("Send{{dst:{dst},tag:{tag}}}"),
                DesEventKind::Recv { src, .. } => format!("Recv{{src:{src}}}"),
                DesEventKind::Collective { kind, .. } => format!("Collective{{{kind:?}}}"),
                DesEventKind::Finish => "Finish".to_string(),
            },
            ReplayEvent::Comm(e) => match e.kind {
                CommEventKind::Send {
                    dst,
                    dropped,
                    duplicated,
                    corrupted,
                    ..
                } => {
                    let mut s = format!("CommSend{{dst:{dst}");
                    if dropped {
                        s.push_str(",dropped");
                    }
                    if duplicated {
                        s.push_str(",dup");
                    }
                    if corrupted {
                        s.push_str(",corrupt");
                    }
                    s.push('}');
                    s
                }
                CommEventKind::Recv { src, .. } => format!("CommRecv{{src:{src}}}"),
                CommEventKind::RecvCorrupt { src, .. } => format!("CommRecvCorrupt{{src:{src}}}"),
                CommEventKind::Backoff { attempt } => format!("CommBackoff{{attempt:{attempt}}}"),
                CommEventKind::PeerDead { peer } => format!("CommPeerDead{{peer:{peer}}}"),
                CommEventKind::Timeout { src } => format!("CommTimeout{{src:{src}}}"),
                CommEventKind::Collective { op } => format!("CommCollective{{{op:?}}}"),
                CommEventKind::Crash => "CommCrash".to_string(),
                CommEventKind::Abort => "CommAbort".to_string(),
            },
            ReplayEvent::Resilience(e) => match e {
                StaleExchange { iter, cu } => format!("StaleExchange{{iter:{iter},cu:{cu}}}"),
                Checkpoint { iter } => format!("Checkpoint{{iter:{iter}}}"),
                Crash { app, iter, .. } => format!("Crash{{app:{app},iter:{iter}}}"),
                Rollback { to_iter } => format!("Rollback{{to_iter:{to_iter}}}"),
                Shrink { app, ranks_after } => {
                    format!("Shrink{{app:{app},ranks_after:{ranks_after}}}")
                }
                SdcDetected { iter, site } => format!("SdcDetected{{iter:{iter},{site:?}}}"),
                SdcRecovered { iter, .. } => format!("SdcRecovered{{iter:{iter}}}"),
            },
        }
    }

    /// The record's kind byte (see the module docs' wire form).
    fn kind_byte(&self) -> u8 {
        use ResilienceEvent::*;
        match *self {
            ReplayEvent::Des(e) => match e.kind {
                DesEventKind::Send { .. } => 0,
                DesEventKind::Recv { .. } => 1,
                DesEventKind::Collective { .. } => 2,
                DesEventKind::Finish => 3,
            },
            ReplayEvent::Comm(e) => match e.kind {
                CommEventKind::Send { .. } => 4,
                CommEventKind::Recv { .. } => 5,
                CommEventKind::RecvCorrupt { .. } => 6,
                CommEventKind::Backoff { .. } => 7,
                CommEventKind::PeerDead { .. } => 8,
                CommEventKind::Timeout { .. } => 9,
                CommEventKind::Collective { .. } => 10,
                CommEventKind::Crash => 11,
                CommEventKind::Abort => 12,
            },
            ReplayEvent::Resilience(e) => match e {
                StaleExchange { .. } => 13,
                Checkpoint { .. } => 14,
                Crash { .. } => 15,
                Rollback { .. } => 16,
                Shrink { .. } => 17,
                SdcDetected { .. } => 18,
                SdcRecovered { .. } => 19,
            },
        }
    }

    /// Serialize into `enc` (the record payload; framing and CRC are the
    /// container's job, see [`crate::format`]).
    pub fn encode(&self, enc: &mut Encoder) {
        use ResilienceEvent::*;
        enc.put_u8(self.kind_byte());
        match *self {
            ReplayEvent::Des(e) => {
                enc.put_uv(e.rank.into());
                match e.kind {
                    DesEventKind::Send { dst, tag, bytes } => {
                        enc.put_uv(dst.into());
                        enc.put_uv(tag.into());
                        enc.put_uv(bytes.into());
                    }
                    DesEventKind::Recv { src, tag } => {
                        enc.put_uv(src.into());
                        enc.put_uv(tag.into());
                    }
                    DesEventKind::Collective { kind, group } => {
                        enc.put_u8(collective_kind_tag(kind));
                        enc.put_uv(group.into());
                    }
                    DesEventKind::Finish => {}
                }
                enc.put_f64(e.vtime);
            }
            ReplayEvent::Comm(e) => {
                enc.put_uv(e.rank as u64);
                match e.kind {
                    CommEventKind::Send {
                        dst,
                        tag,
                        seq,
                        dropped,
                        duplicated,
                        corrupted,
                    } => {
                        enc.put_uv(dst as u64);
                        enc.put_uv(tag);
                        enc.put_uv(seq);
                        enc.put_bool(dropped);
                        enc.put_bool(duplicated);
                        enc.put_bool(corrupted);
                    }
                    CommEventKind::Recv { src, tag } | CommEventKind::RecvCorrupt { src, tag } => {
                        enc.put_uv(src as u64);
                        enc.put_uv(tag);
                    }
                    CommEventKind::Backoff { attempt } => enc.put_uv(attempt),
                    CommEventKind::PeerDead { peer: r } | CommEventKind::Timeout { src: r } => {
                        enc.put_uv(r as u64)
                    }
                    CommEventKind::Collective { op } => enc.put_u8(collective_op_tag(op)),
                    CommEventKind::Crash | CommEventKind::Abort => {}
                }
                enc.put_f64(e.vtime);
            }
            ReplayEvent::Resilience(e) => match e {
                StaleExchange { iter, cu } => {
                    enc.put_uv(iter);
                    enc.put_uv(cu as u64);
                }
                Checkpoint { iter } | Rollback { to_iter: iter } => enc.put_uv(iter),
                Crash { app, iter, vtime } => {
                    enc.put_uv(app as u64);
                    enc.put_uv(iter);
                    enc.put_f64(vtime);
                }
                Shrink { app, ranks_after } => {
                    enc.put_uv(app as u64);
                    enc.put_uv(ranks_after as u64);
                }
                SdcDetected { iter, site } => {
                    enc.put_uv(iter);
                    enc.put_u8(sdc_site_tag(site));
                }
                SdcRecovered { iter, cost } => {
                    enc.put_uv(iter);
                    enc.put_f64(cost);
                }
            },
        }
    }

    /// Deserialize one event from `dec`.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ReplayEvent, WireError> {
        use ResilienceEvent::*;
        let kind = dec.get_u8()?;
        Ok(match kind {
            0..=3 => {
                let rank = get_narrow(dec)?;
                let kind = match kind {
                    0 => DesEventKind::Send {
                        dst: get_narrow(dec)?,
                        tag: get_narrow(dec)?,
                        bytes: get_narrow(dec)?,
                    },
                    1 => DesEventKind::Recv {
                        src: get_narrow(dec)?,
                        tag: get_narrow(dec)?,
                    },
                    2 => DesEventKind::Collective {
                        kind: get_tag(dec, collective_kind_from, "unknown collective kind")?,
                        group: get_narrow(dec)?,
                    },
                    _ => DesEventKind::Finish,
                };
                let vtime = dec.get_f64()?;
                ReplayEvent::Des(DesEvent { rank, vtime, kind })
            }
            4..=12 => {
                let rank = get_narrow(dec)?;
                let kind = match kind {
                    4 => CommEventKind::Send {
                        dst: get_narrow(dec)?,
                        tag: dec.get_uv()?,
                        seq: dec.get_uv()?,
                        dropped: dec.get_bool()?,
                        duplicated: dec.get_bool()?,
                        corrupted: dec.get_bool()?,
                    },
                    5 => CommEventKind::Recv {
                        src: get_narrow(dec)?,
                        tag: dec.get_uv()?,
                    },
                    6 => CommEventKind::RecvCorrupt {
                        src: get_narrow(dec)?,
                        tag: dec.get_uv()?,
                    },
                    7 => CommEventKind::Backoff {
                        attempt: dec.get_uv()?,
                    },
                    8 => CommEventKind::PeerDead {
                        peer: get_narrow(dec)?,
                    },
                    9 => CommEventKind::Timeout {
                        src: get_narrow(dec)?,
                    },
                    10 => CommEventKind::Collective {
                        op: get_tag(dec, collective_op_from, "unknown collective op")?,
                    },
                    11 => CommEventKind::Crash,
                    _ => CommEventKind::Abort,
                };
                let vtime = dec.get_f64()?;
                ReplayEvent::Comm(CommEvent { rank, vtime, kind })
            }
            13..=19 => ReplayEvent::Resilience(match kind {
                13 => StaleExchange {
                    iter: dec.get_uv()?,
                    cu: get_narrow(dec)?,
                },
                14 => Checkpoint {
                    iter: dec.get_uv()?,
                },
                15 => Crash {
                    app: get_narrow(dec)?,
                    iter: dec.get_uv()?,
                    vtime: dec.get_f64()?,
                },
                16 => Rollback {
                    to_iter: dec.get_uv()?,
                },
                17 => Shrink {
                    app: get_narrow(dec)?,
                    ranks_after: get_narrow(dec)?,
                },
                18 => SdcDetected {
                    iter: dec.get_uv()?,
                    site: get_tag(dec, sdc_site_from, "unknown SDC site")?,
                },
                _ => SdcRecovered {
                    iter: dec.get_uv()?,
                    cost: dec.get_f64()?,
                },
            }),
            _ => {
                return Err(WireError::Invalid {
                    offset: dec.offset() - 1,
                    what: "unknown event kind tag",
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_events() -> Vec<ReplayEvent> {
        vec![
            ReplayEvent::Des(DesEvent {
                rank: 0,
                vtime: 1.25e-3,
                kind: DesEventKind::Send {
                    dst: 1,
                    tag: 7,
                    bytes: 4096,
                },
            }),
            ReplayEvent::Des(DesEvent {
                rank: 1,
                vtime: 1.5e-3,
                kind: DesEventKind::Recv { src: 0, tag: 7 },
            }),
            ReplayEvent::Des(DesEvent {
                rank: 2,
                vtime: 2.0e-3,
                kind: DesEventKind::Collective {
                    kind: CollectiveKind::Allreduce,
                    group: 0,
                },
            }),
            ReplayEvent::Des(DesEvent {
                rank: 0,
                vtime: 3.0e-3,
                kind: DesEventKind::Finish,
            }),
            ReplayEvent::Comm(CommEvent {
                rank: 3,
                vtime: 4.5e-6,
                kind: CommEventKind::Send {
                    dst: 2,
                    tag: 99,
                    seq: 5,
                    dropped: true,
                    duplicated: false,
                    corrupted: false,
                },
            }),
            ReplayEvent::Comm(CommEvent {
                rank: 3,
                vtime: 6.0e-6,
                kind: CommEventKind::Collective {
                    op: CollectiveOp::Allreduce,
                },
            }),
            ReplayEvent::Resilience(ResilienceEvent::Checkpoint { iter: 10 }),
            ReplayEvent::Resilience(ResilienceEvent::Crash {
                app: 1,
                iter: 42,
                vtime: 100.5,
            }),
            ReplayEvent::Resilience(ResilienceEvent::SdcDetected {
                iter: 33,
                site: SdcSite::SparseKernel,
            }),
            ReplayEvent::Resilience(ResilienceEvent::SdcRecovered {
                iter: 33,
                cost: 2.25,
            }),
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for ev in sample_events() {
            let mut enc = Encoder::new();
            ev.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let back = ReplayEvent::decode(&mut dec).unwrap();
            assert_eq!(back, ev);
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn descriptions_match_error_message_style() {
        let recv = ReplayEvent::Des(DesEvent {
            rank: 7,
            vtime: 0.0,
            kind: DesEventKind::Recv { src: 3, tag: 0 },
        });
        assert_eq!(recv.describe(), "Recv{src:3}");
        let coll = ReplayEvent::Des(DesEvent {
            rank: 7,
            vtime: 0.0,
            kind: DesEventKind::Collective {
                kind: CollectiveKind::Allreduce,
                group: 0,
            },
        });
        assert_eq!(coll.describe(), "Collective{Allreduce}");
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut dec = Decoder::new(&[200u8]);
        assert!(matches!(
            ReplayEvent::decode(&mut dec),
            Err(WireError::Invalid { .. })
        ));
    }
}
