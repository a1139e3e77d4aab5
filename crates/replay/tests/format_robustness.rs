//! Trace-format robustness: random traces round-trip exactly, and no
//! hostile input — truncation, bit flips, unknown versions, garbage —
//! ever panics or misparses; everything maps to a typed [`TraceError`].

use proptest::prelude::*;

use std::path::Path;

use cpx_comm::{CollectiveOp, CommEvent, CommEventKind};
use cpx_core::ResilienceEvent;
use cpx_machine::{CollectiveKind, DesEvent, DesEventKind};
use cpx_replay::wire::{crc32, Decoder, Encoder, WireError};
use cpx_replay::{ReplayEvent, Trace, TraceError, MAGIC, SCENARIOS, SCHEMA_VERSION};

/// Build one event from plain random draws (`kind` selects the wire
/// kind; the integer/float fields are reused per variant).
fn make_event(kind: u8, a: u64, b: u64, c: u64, flags: u8, t: f64) -> ReplayEvent {
    let kinds = [
        CollectiveKind::Barrier,
        CollectiveKind::Broadcast,
        CollectiveKind::Reduce,
        CollectiveKind::Allreduce,
        CollectiveKind::Allgather,
        CollectiveKind::Alltoall,
        CollectiveKind::Gather,
        CollectiveKind::Scatter,
    ];
    let ops = [
        CollectiveOp::Bcast,
        CollectiveOp::Reduce,
        CollectiveOp::Allreduce,
        CollectiveOp::Barrier,
        CollectiveOp::Gather,
        CollectiveOp::Allgather,
        CollectiveOp::Alltoallv,
    ];
    let sites = [
        cpx_core::SdcSite::SparseKernel,
        cpx_core::SdcSite::HaloExchange,
        cpx_core::SdcSite::CommPayload,
        cpx_core::SdcSite::PhysicsInvariant,
        cpx_core::SdcSite::SolverCycle,
    ];
    let des = |kind| {
        ReplayEvent::Des(DesEvent {
            rank: a as u32,
            vtime: t,
            kind,
        })
    };
    let comm = |kind| {
        ReplayEvent::Comm(CommEvent {
            rank: a as usize,
            vtime: t,
            kind,
        })
    };
    match kind % 20 {
        0 => des(DesEventKind::Send {
            dst: b as u32,
            tag: c as u32,
            bytes: c.wrapping_mul(8) as u32,
        }),
        1 => des(DesEventKind::Recv {
            src: b as u32,
            tag: c as u32,
        }),
        2 => des(DesEventKind::Collective {
            kind: kinds[(b % 8) as usize],
            group: c as u32,
        }),
        3 => des(DesEventKind::Finish),
        4 => comm(CommEventKind::Send {
            dst: b as usize,
            tag: c,
            seq: c.wrapping_add(1),
            dropped: flags & 1 != 0,
            duplicated: flags & 2 != 0,
            corrupted: flags & 4 != 0,
        }),
        5 => comm(CommEventKind::Recv {
            src: b as usize,
            tag: c,
        }),
        6 => comm(CommEventKind::RecvCorrupt {
            src: b as usize,
            tag: c,
        }),
        7 => comm(CommEventKind::Backoff { attempt: b }),
        8 => comm(CommEventKind::PeerDead { peer: b as usize }),
        9 => comm(CommEventKind::Timeout { src: b as usize }),
        10 => comm(CommEventKind::Collective {
            op: ops[(b % 7) as usize],
        }),
        11 => comm(CommEventKind::Crash),
        12 => comm(CommEventKind::Abort),
        13 => ReplayEvent::Resilience(ResilienceEvent::StaleExchange {
            iter: a,
            cu: b as usize,
        }),
        14 => ReplayEvent::Resilience(ResilienceEvent::Checkpoint { iter: a }),
        15 => ReplayEvent::Resilience(ResilienceEvent::Crash {
            app: a as usize,
            iter: b,
            vtime: t,
        }),
        16 => ReplayEvent::Resilience(ResilienceEvent::Rollback { to_iter: a }),
        17 => ReplayEvent::Resilience(ResilienceEvent::Shrink {
            app: a as usize,
            ranks_after: b as usize,
        }),
        18 => ReplayEvent::Resilience(ResilienceEvent::SdcDetected {
            iter: a,
            site: sites[(b % 5) as usize],
        }),
        _ => ReplayEvent::Resilience(ResilienceEvent::SdcRecovered { iter: a, cost: t }),
    }
}

fn event_strategy() -> impl proptest::strategy::Strategy<Value = ReplayEvent> {
    (
        0u8..20,
        0u64..1_000,
        0u64..1_000,
        0u64..100_000,
        0u8..8,
        0.0f64..1.0e3,
    )
        .prop_map(|(kind, a, b, c, flags, t)| make_event(kind, a, b, c, flags, t))
}

fn trace_strategy() -> impl proptest::strategy::Strategy<Value = Trace> {
    (
        0u64..u64::MAX,
        0u32..4096,
        proptest::collection::vec(event_strategy(), 0..40),
    )
        .prop_map(|(seed, world_size, events)| Trace {
            label: "prop".to_string(),
            seed,
            world_size,
            events,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_traces_round_trip(trace in trace_strategy()) {
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn truncation_is_always_a_typed_error(trace in trace_strategy(), frac in 0.0f64..1.0) {
        let bytes = trace.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        // Cutting anywhere strictly before the end must fail typed, not
        // panic or return a silently shorter trace.
        if cut < bytes.len() {
            prop_assert!(Trace::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn corrupted_record_bytes_are_rejected(
        trace in trace_strategy(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // Corrupt only the record region (everything after the header);
        // the header's label/seed fields are identity, not integrity.
        if !trace.events.is_empty() {
            let bytes = trace.to_bytes();
            let header_len = Trace {
                label: trace.label.clone(),
                seed: trace.seed,
                world_size: trace.world_size,
                events: vec![],
            }
            .to_bytes()
            .len();
            let span = bytes.len() - header_len;
            let pos = header_len + ((span as f64) * pos_frac) as usize;
            let pos = pos.min(bytes.len() - 1);
            let mut corrupted = bytes.clone();
            corrupted[pos] ^= 1 << bit;
            prop_assert!(
                Trace::from_bytes(&corrupted).is_err(),
                "flip at {pos} (header {header_len}, len {}) parsed",
                bytes.len()
            );
        }
    }

    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(0u16..256, 0..256)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()))
    {
        // Arbitrary bytes: any result is fine, panicking is not.
        let _ = Trace::from_bytes(&data);
    }
}

#[test]
fn unknown_schema_version_is_typed_not_panic() {
    let trace = Trace {
        label: "v".to_string(),
        seed: 1,
        world_size: 2,
        events: vec![ReplayEvent::Resilience(ResilienceEvent::Checkpoint {
            iter: 5,
        })],
    };
    let mut bytes = trace.to_bytes();
    bytes[4..8].copy_from_slice(&(SCHEMA_VERSION + 7).to_le_bytes());
    assert_eq!(
        Trace::from_bytes(&bytes),
        Err(TraceError::UnsupportedVersion {
            found: SCHEMA_VERSION + 7,
            supported: SCHEMA_VERSION
        })
    );
}

#[test]
fn trailing_garbage_is_rejected() {
    let trace = Trace {
        label: "t".to_string(),
        seed: 1,
        world_size: 2,
        events: vec![ReplayEvent::Resilience(ResilienceEvent::Rollback {
            to_iter: 3,
        })],
    };
    let mut bytes = trace.to_bytes();
    bytes.push(0xEE);
    assert!(matches!(
        Trace::from_bytes(&bytes),
        Err(TraceError::Malformed { .. })
    ));
}

#[test]
fn committed_golden_traces_re_encode_byte_for_byte() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    for name in SCENARIOS {
        let bytes = std::fs::read(root.join(name).join("trace.cpxr")).unwrap();
        let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!trace.events.is_empty(), "{name}: empty trace");
        assert!(
            trace.to_bytes() == bytes,
            "{name}: re-encoding changed bytes"
        );
    }
}

/// A hand-encoded DES `Send` record payload (kind byte 0).
fn des_send_payload(rank: u64, bytes: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(0);
    enc.put_uv(rank);
    enc.put_uv(1); // dst
    enc.put_uv(7); // tag
    enc.put_uv(bytes);
    enc.put_f64(0.5);
    enc.into_bytes()
}

/// A one-record `.cpxr` file around `payload`, with a valid CRC.
fn one_record_trace(payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(&MAGIC);
    enc.put_u32(SCHEMA_VERSION);
    enc.put_str("hand");
    enc.put_uv(0);
    enc.put_u32(2);
    enc.put_uv(1);
    enc.put_uv(payload.len() as u64);
    enc.put_bytes(payload);
    enc.put_u32(crc32(payload));
    enc.into_bytes()
}

#[test]
fn over_wide_des_fields_are_rejected_not_truncated() {
    // At the boundary the hand encoding decodes, which shows the
    // rejections below are about width alone.
    let max = u64::from(u32::MAX);
    let ok = des_send_payload(max, max);
    let ev = ReplayEvent::decode(&mut Decoder::new(&ok)).unwrap();
    assert_eq!(
        ev,
        ReplayEvent::Des(DesEvent {
            rank: u32::MAX,
            vtime: 0.5,
            kind: DesEventKind::Send {
                dst: 1,
                tag: 7,
                bytes: u32::MAX,
            },
        })
    );
    assert_eq!(
        Trace::from_bytes(&one_record_trace(&ok)).unwrap().events,
        vec![ev]
    );

    for (rank, bytes) in [(1u64 << 32, 8), (0, 1u64 << 32)] {
        let payload = des_send_payload(rank, bytes);
        assert!(
            matches!(
                ReplayEvent::decode(&mut Decoder::new(&payload)),
                Err(WireError::Invalid { .. })
            ),
            "rank {rank}, bytes {bytes}"
        );
        assert!(
            matches!(
                Trace::from_bytes(&one_record_trace(&payload)),
                Err(TraceError::Malformed { index: 0, .. })
            ),
            "rank {rank}, bytes {bytes}"
        );
    }
}
