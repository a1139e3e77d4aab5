//! Smoke-sized runs of every workload must pass all output checks,
//! untraced and traced, on a fixed seed and on a fresh one.

use std::collections::BTreeSet;
use std::time::{SystemTime, UNIX_EPOCH};

use cpx_wallbench::{run, RunConfig, RunReport, Size, WorkloadKind, LAYER_METRICS};

fn smoke(workload: WorkloadKind, seed: u64, trace: bool) -> RunReport {
    run(&RunConfig {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
    })
}

/// A seed nobody chose: the clock's nanoseconds, printed on failure.
fn fresh_seed() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as u64
}

fn assert_passes(workload: WorkloadKind) {
    for (seed, trace) in [(42, false), (fresh_seed(), true)] {
        let r = smoke(workload, seed, trace);
        assert!(
            r.failures.is_empty(),
            "{} seed {seed} trace {trace}: {:?}",
            workload.name(),
            r.failures
        );
        assert!(r.attempted > 0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        if trace {
            let want: Vec<&str> = LAYER_METRICS.iter().map(|l| l.0).collect();
            assert_eq!(names, want);
            // Traced runs alternate an untraced and a traced pass.
            assert!(r.passes.iter().any(|p| p.0));
            assert!(!r.spans.is_empty());
        } else {
            assert_eq!(names, ["wall_s", "setup_s", "latency_s", "peak_rss_mb"]);
            for m in &r.metrics {
                assert!(m.value > 0.0, "{} = {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn fig9_fig8a_smoke_passes_checks() {
    assert_passes(WorkloadKind::Fig9Fig8a);
}

#[test]
fn coupled_step_smoke_passes_checks() {
    assert_passes(WorkloadKind::CoupledStep);
}

/// Print the reference tables of `src/reference.rs` from the current
/// code. Run only when a change is meant to move virtual time:
/// `cargo test --release --test smoke -- --ignored --nocapture`.
#[test]
#[ignore]
fn emit_reference() {
    for size in [Size::Full, Size::Smoke] {
        for w in WorkloadKind::ALL {
            let r = run(&RunConfig {
                workload: w,
                seed: 1,
                seconds: 0.0,
                trace: true,
                size,
            });
            println!("// {} {size:?}", w.name());
            println!("&[");
            let mut seen = BTreeSet::new();
            for (label, v) in &r.observed {
                if !seen.insert(label.clone()) {
                    continue;
                }
                if label.ends_with("_s") {
                    println!("    (\"{label}\", {v:#018x}), // {}", f64::from_bits(*v));
                } else {
                    println!("    (\"{label}\", {v}),");
                }
            }
            println!("];");
        }
    }
}
