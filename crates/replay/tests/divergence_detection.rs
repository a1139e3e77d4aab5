//! End-to-end divergence detection: record a real run, tamper with the
//! recorded trace (or change the run), and assert the verifier reports
//! the exact first diverging event with the right expected/observed
//! kinds.

use cpx_comm::{CommEvent, CommEventKind, FaultPlan, ReduceOp, World};
use cpx_machine::{KernelCost, Machine};
use cpx_replay::{generate, verify, ReplayEvent, Trace};

/// A small lossy exchange, parameterised by fault-plan seed so tests
/// can model "same scenario, different randomness".
fn lossy_run(seed: u64) -> Vec<ReplayEvent> {
    let n = 4usize;
    let world = World::new(Machine::archer2());
    let plan = FaultPlan::new(seed)
        .with_drop_prob(0.25)
        .with_dup_prob(0.15)
        .with_delay(0.2, 2e-6);
    let (_, _, log) = world.run_recorded(n, plan, move |ctx| {
        let me = ctx.rank();
        ctx.compute(KernelCost::flops(2e7 * (me + 1) as f64));
        for round in 0..4u32 {
            ctx.send((me + 1) % n, round, vec![me as f64; 32]);
            let _ = ctx.recv((me + n - 1) % n, round);
        }
        let g = ctx.world();
        g.allreduce_scalar(ctx, ReduceOp::Sum, ctx.rank() as f64)
    });
    log.into_iter().map(ReplayEvent::Comm).collect()
}

#[test]
fn faithful_replay_verifies_clean() {
    let recorded = lossy_run(42);
    let replayed = lossy_run(42);
    assert!(!recorded.is_empty());
    assert_eq!(verify(&recorded, &replayed), Ok(()));
}

#[test]
fn swapped_events_name_the_first_swapped_index() {
    let recorded = lossy_run(42);
    // Find two adjacent *different* events to swap.
    let i = (0..recorded.len() - 1)
        .find(|&i| recorded[i] != recorded[i + 1])
        .expect("a heterogeneous event pair exists");
    let mut tampered = recorded.clone();
    tampered.swap(i, i + 1);
    let err = verify(&tampered, &recorded).unwrap_err();
    assert_eq!(err.index, i);
    // The verifier sees the tampered stream as "expected" (the trace)
    // and the true stream as "observed".
    assert_eq!(err.expected, Some(tampered[i]));
    assert_eq!(err.observed, Some(recorded[i]));
    let msg = err.to_string();
    assert!(msg.contains(&format!("event {i}")), "{msg}");
    assert!(msg.contains("expected"), "{msg}");
    assert!(msg.contains("got"), "{msg}");
}

#[test]
fn altered_fault_draw_is_a_divergence() {
    let recorded = lossy_run(42);
    // Flip one recorded fault draw: a dropped send becomes clean.
    let idx = recorded
        .iter()
        .position(|e| {
            matches!(
                e,
                ReplayEvent::Comm(CommEvent {
                    kind: CommEventKind::Send { dropped: true, .. },
                    ..
                })
            )
        })
        .expect("the lossy plan drops at least one message");
    let mut tampered = recorded.clone();
    if let ReplayEvent::Comm(CommEvent {
        kind: CommEventKind::Send { dropped, .. },
        ..
    }) = &mut tampered[idx]
    {
        *dropped = false;
    }
    let err = verify(&tampered, &recorded).unwrap_err();
    assert_eq!(err.index, idx);
    // The observed (true) event carries the dropped flag; the tampered
    // expectation does not.
    let msg = err.to_string();
    assert!(msg.contains("got CommSend{"), "{msg}");
    assert!(msg.contains("dropped"), "{msg}");
}

#[test]
fn different_seed_diverges_like_a_modified_kernel() {
    // Same scenario, different fault randomness — the stand-in for "the
    // code under replay changed behaviour": strict verification fails.
    let recorded = lossy_run(42);
    let changed = lossy_run(43);
    assert!(verify(&recorded, &changed).is_err());
}

#[test]
fn trace_mutation_survives_serialization() {
    // Tamper at the container level (decode → mutate → re-encode) and
    // verify the divergence is still caught after a round-trip, i.e.
    // detection does not depend on in-memory state.
    let events = lossy_run(7);
    let trace = Trace {
        label: "tamper".to_string(),
        seed: 7,
        world_size: 4,
        events: events.clone(),
    };
    let mut loaded = Trace::from_bytes(&trace.to_bytes()).unwrap();
    let i = (0..loaded.events.len() - 1)
        .find(|&i| loaded.events[i] != loaded.events[i + 1])
        .unwrap();
    loaded.events.swap(i, i + 1);
    let reloaded = Trace::from_bytes(&loaded.to_bytes()).unwrap();
    let err = verify(&reloaded.events, &events).unwrap_err();
    assert_eq!(err.index, i);
}

#[test]
fn golden_scenario_replays_byte_for_byte() {
    // The acceptance criterion end-to-end: record a golden scenario,
    // serialize, reload, regenerate, and match everything exactly.
    let first = generate("lossy_faultplan").unwrap();
    let bytes = first.trace.to_bytes();
    let loaded = Trace::from_bytes(&bytes).unwrap();
    let second = generate("lossy_faultplan").unwrap();
    assert_eq!(verify(&loaded.events, &second.trace.events), Ok(()));
    assert_eq!(bytes, second.trace.to_bytes());
    assert_eq!(first.report, second.report);
    assert_eq!(first.bench, second.bench);
}
