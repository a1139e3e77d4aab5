//! The golden-trace regression corpus: a small set of fully scripted
//! scenarios whose recorded traces and rendered artifacts are committed
//! under `golden/<scenario>/` and re-checked in CI.
//!
//! Each scenario is a pure function of its built-in configuration (and
//! seed, where a fault plan draws randomness), producing three files:
//!
//! * `trace.cpxr` — the recorded [`Trace`] of every nondeterminism
//!   source the run exercises;
//! * `report.md` — the rendered study report (virtual-time metrics
//!   only, so it is byte-stable across hosts);
//! * `bench.json` — BENCH-style structured metrics plus an event-kind
//!   histogram.
//!
//! [`check`] replays the scenario from scratch, verifies the fresh
//! event stream against the committed trace event-by-event
//! ([`crate::verify`]), and byte-compares the regenerated report and
//! JSON against the committed files. Any code change that alters the
//! virtual-time behaviour of the coupled pipeline shows up as a
//! [`GoldenFailure::Divergence`] naming the exact first event that
//! moved.

use std::fmt;
use std::path::{Path, PathBuf};

use cpx_comm::{FaultPlan, ReduceOp, World};
use cpx_core::prelude::*;
use cpx_core::{coupled_program, run_coupled_resilient_logged, sim};
use cpx_machine::{KernelCost, Machine, Replayer};
use cpx_obs::json::{Json, ToJson};

use crate::divergence::{verify, DivergenceError};
use crate::event::ReplayEvent;
use crate::format::{Trace, TraceError};

/// Scenario names in the corpus, in canonical order.
pub const SCENARIOS: [&str; 5] = [
    "clean_coupled",
    "crash_shrink",
    "sdc_recovery",
    "lossy_faultplan",
    "multiproc_smoke",
];

/// Everything a scenario produces: the trace plus rendered artifacts.
#[derive(Debug, Clone)]
pub struct GoldenArtifacts {
    /// The recorded event trace.
    pub trace: Trace,
    /// `report.md` contents.
    pub report: String,
    /// `bench.json` contents (pretty-printed, trailing newline).
    pub bench: String,
}

/// Why a golden check failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GoldenFailure {
    /// The scenario name is not in [`SCENARIOS`].
    UnknownScenario(String),
    /// The committed trace could not be read.
    Trace(TraceError),
    /// The fresh run departed from the committed event stream.
    Divergence(DivergenceError),
    /// The committed trace header does not match the scenario (label,
    /// seed or world size drifted).
    HeaderMismatch {
        /// Which header field disagreed.
        what: &'static str,
    },
    /// A committed artifact file is missing or unreadable.
    MissingArtifact {
        /// File name within the scenario directory.
        file: String,
    },
    /// A regenerated artifact is not byte-identical to the committed
    /// one.
    ArtifactMismatch {
        /// File name within the scenario directory.
        file: String,
    },
}

impl fmt::Display for GoldenFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoldenFailure::UnknownScenario(name) => write!(f, "unknown scenario `{name}`"),
            GoldenFailure::Trace(e) => write!(f, "trace unreadable: {e}"),
            GoldenFailure::Divergence(e) => write!(f, "replay diverged: {e}"),
            GoldenFailure::HeaderMismatch { what } => {
                write!(f, "trace header mismatch: {what}")
            }
            GoldenFailure::MissingArtifact { file } => {
                write!(f, "missing committed artifact `{file}`")
            }
            GoldenFailure::ArtifactMismatch { file } => write!(
                f,
                "regenerated `{file}` is not byte-identical to the committed artifact"
            ),
        }
    }
}

impl std::error::Error for GoldenFailure {}

fn archer2() -> Machine {
    Machine::archer2()
}

/// The reduced benchmarking grid every golden scenario models with —
/// small enough that regeneration is fast, identical everywhere so the
/// allocation (and hence the trace) is stable.
const GRID: [usize; 4] = [100, 400, 1600, 6400];

fn small_alloc(scenario: &Scenario, budget: usize) -> Allocation {
    let models = model::build_models_with_grid(scenario, &archer2(), 20.0, &GRID);
    model::allocate_scenario(&models, budget)
}

fn event_histogram(events: &[ReplayEvent]) -> Json {
    let mut names: Vec<String> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    for ev in events {
        // Histogram by kind name: strip the `{...}` detail off describe().
        let d = ev.describe();
        let kind = d.split('{').next().unwrap_or(&d).to_string();
        match names.iter().position(|n| *n == kind) {
            Some(i) => counts[i] += 1,
            None => {
                names.push(kind);
                counts.push(1);
            }
        }
    }
    // Canonical order for byte stability.
    let mut idx: Vec<usize> = (0..names.len()).collect();
    idx.sort_by(|&a, &b| names[a].cmp(&names[b]));
    Json::Obj(
        idx.into_iter()
            .map(|i| (names[i].clone(), Json::Num(counts[i] as f64)))
            .collect(),
    )
}

pub(crate) fn bench_json(
    label: &str,
    seed: u64,
    trace: &Trace,
    run: Option<&CoupledRun>,
) -> String {
    let mut fields = vec![
        ("schema_version", Json::Num(1.0)),
        ("scenario", Json::Str(label.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("world_size", Json::Num(trace.world_size as f64)),
        ("events", Json::Num(trace.events.len() as f64)),
        ("event_histogram", event_histogram(&trace.events)),
    ];
    if let Some(run) = run {
        fields.push(("run", run.to_json()));
    }
    Json::obj(fields).write_pretty()
}

/// `clean_coupled`: the DES event log of a fault-free coupled run of
/// the small 150M+28M scenario, plus its study report. Exercises the
/// run-to-block scheduler's global event order end to end.
fn clean_coupled() -> GoldenArtifacts {
    let scenario = testcases::small_150m_28m(StcVariant::Base);
    let machine = archer2();
    let alloc = small_alloc(&scenario, 310);
    let sample_iters = 3;
    let (program, _) = coupled_program(&scenario, &alloc, &machine, sample_iters);
    let mut des_log = Vec::new();
    Replayer::new(machine.clone())
        .run_probed(&program, &mut des_log)
        .expect("clean coupled program replays");
    let run = sim::run_coupled(&scenario, &alloc, &machine, sample_iters);
    let report = markdown_report(&scenario, &alloc, &run);
    let trace = Trace {
        label: "clean_coupled".to_string(),
        // The DES pipeline is seed-free; 0 marks "no randomness drawn".
        seed: 0,
        world_size: alloc.total_ranks() as u32,
        events: des_log.into_iter().map(ReplayEvent::from).collect(),
    };
    let bench = bench_json("clean_coupled", 0, &trace, Some(&run));
    GoldenArtifacts {
        trace,
        report,
        bench,
    }
}

/// `crash_shrink`: a rank crash at 40% of the clean runtime with a
/// 10-iteration checkpoint period — the resilience decision log
/// (checkpoint → crash → rollback → shrink → stale exchanges) plus the
/// recovered run's report.
fn crash_shrink() -> GoldenArtifacts {
    let mut scenario = testcases::small_150m_28m(StcVariant::Base);
    let machine = archer2();
    let alloc = small_alloc(&scenario, 310);
    let sample_iters = 3;
    let clean = sim::run_coupled(&scenario, &alloc, &machine, sample_iters);
    let mut fault = FaultScenario::crash(1, 0.4 * clean.total_runtime);
    fault.checkpoint_interval = 10;
    scenario.fault = Some(fault);
    let (run, log) = run_coupled_resilient_logged(&scenario, &alloc, &machine, sample_iters);
    let report = markdown_report(&scenario, &alloc, &run);
    let trace = Trace {
        label: "crash_shrink".to_string(),
        seed: 0,
        world_size: alloc.total_ranks() as u32,
        events: log.into_iter().map(ReplayEvent::from).collect(),
    };
    let bench = bench_json("crash_shrink", 0, &trace, Some(&run));
    GoldenArtifacts {
        trace,
        report,
        bench,
    }
}

/// `sdc_recovery`: three injected silent corruptions recovered under
/// the default recompute policy — the detection/recovery event pairs
/// plus the ABFT-priced run report.
fn sdc_recovery() -> GoldenArtifacts {
    let mut scenario = testcases::small_150m_28m(StcVariant::Base);
    let machine = archer2();
    let alloc = small_alloc(&scenario, 310);
    let sample_iters = 3;
    scenario.fault = Some(FaultScenario::sdc_only(vec![
        SdcInjection {
            iter: 12,
            site: SdcSite::SparseKernel,
        },
        SdcInjection {
            iter: 40,
            site: SdcSite::HaloExchange,
        },
        SdcInjection {
            iter: 77,
            site: SdcSite::PhysicsInvariant,
        },
    ]));
    let (run, log) = run_coupled_resilient_logged(&scenario, &alloc, &machine, sample_iters);
    let report = markdown_report(&scenario, &alloc, &run);
    let trace = Trace {
        label: "sdc_recovery".to_string(),
        seed: 0,
        world_size: alloc.total_ranks() as u32,
        events: log.into_iter().map(ReplayEvent::from).collect(),
    };
    let bench = bench_json("sdc_recovery", 0, &trace, Some(&run));
    GoldenArtifacts {
        trace,
        report,
        bench,
    }
}

/// Seed for the `lossy_faultplan` scenario's per-message fault draws.
const LOSSY_SEED: u64 = 0x00C0_FFEE;

/// `lossy_faultplan`: an 8-rank ring exchange plus allreduce under a
/// lossy fault plan (drops, duplicates, delays) — the threaded comm
/// runtime's event lanes, fault draws included.
fn lossy_faultplan() -> GoldenArtifacts {
    let n = 8usize;
    let world = World::new(archer2());
    let plan = FaultPlan::new(LOSSY_SEED)
        .with_drop_prob(0.15)
        .with_dup_prob(0.10)
        .with_delay(0.20, 2e-6);
    let (runs, log) = world.run_with_plan_logged(n, plan, move |ctx| {
        let me = ctx.rank();
        ctx.compute(KernelCost::flops(5e7 * (me + 1) as f64));
        for round in 0..6u32 {
            ctx.send((me + 1) % n, round, vec![me as f64; 48]);
            let _ = ctx.recv((me + n - 1) % n, round);
        }
        let g = ctx.world();
        g.allreduce_scalar(ctx, ReduceOp::Sum, ctx.rank() as f64)
    });
    let trace = Trace {
        label: "lossy_faultplan".to_string(),
        seed: LOSSY_SEED,
        world_size: n as u32,
        events: log.into_iter().map(ReplayEvent::from).collect(),
    };
    // A compact virtual-time report: per-rank final clocks and traffic.
    let mut report = String::new();
    report.push_str("# Lossy fault-plan exchange\n\n");
    report.push_str(&format!(
        "{n} ranks, ring exchange x6 + allreduce, seed {LOSSY_SEED:#x}, \
         drop 0.15 / dup 0.10 / delay 0.20 (2 us).\n\n"
    ));
    report.push_str("| rank | virtual time (s) | sent (B) | retries | dropped | allreduce |\n");
    report.push_str("|-----:|-----------------:|---------:|--------:|--------:|----------:|\n");
    for (r, run) in runs.iter().enumerate() {
        let rep = &run.report;
        let value = match &run.outcome {
            cpx_comm::RankOutcome::Completed(v) => format!("{v:.1}"),
            cpx_comm::RankOutcome::Failed(_) => "failed".to_string(),
            cpx_comm::RankOutcome::Crashed { .. } => "crashed".to_string(),
            cpx_comm::RankOutcome::Panicked(_) => "panicked".to_string(),
        };
        report.push_str(&format!(
            "| {r} | {:.9e} | {} | {} | {} | {value} |\n",
            rep.elapsed, rep.bytes_sent, rep.retries, rep.dropped_msgs
        ));
    }
    let bench = bench_json("lossy_faultplan", LOSSY_SEED, &trace, None);
    GoldenArtifacts {
        trace,
        report,
        bench,
    }
}

/// Regenerate a scenario's artifacts from scratch.
pub fn generate(name: &str) -> Result<GoldenArtifacts, GoldenFailure> {
    match name {
        "clean_coupled" => Ok(clean_coupled()),
        "crash_shrink" => Ok(crash_shrink()),
        "sdc_recovery" => Ok(sdc_recovery()),
        "lossy_faultplan" => Ok(lossy_faultplan()),
        // The canonical artifacts come from the in-process backend; the
        // `multiproc_smoke` launcher re-runs the same scenario across OS
        // processes and byte-compares against these.
        "multiproc_smoke" => Ok(crate::multiproc::run_inproc()),
        other => Err(GoldenFailure::UnknownScenario(other.to_string())),
    }
}

fn scenario_dir(corpus_root: &Path, name: &str) -> PathBuf {
    corpus_root.join(name)
}

/// Record a scenario into `corpus_root/<name>/{trace.cpxr,report.md,bench.json}`,
/// creating directories as needed.
pub fn record(name: &str, corpus_root: &Path) -> Result<(), GoldenFailure> {
    let art = generate(name)?;
    let dir = scenario_dir(corpus_root, name);
    art.trace
        .save(&dir.join("trace.cpxr"))
        .map_err(GoldenFailure::Trace)?;
    std::fs::write(dir.join("report.md"), &art.report).map_err(|e| {
        GoldenFailure::MissingArtifact {
            file: format!("report.md ({e})"),
        }
    })?;
    std::fs::write(dir.join("bench.json"), &art.bench).map_err(|e| {
        GoldenFailure::MissingArtifact {
            file: format!("bench.json ({e})"),
        }
    })?;
    Ok(())
}

/// What [`check`] returns on failure: the failure itself plus the
/// fresh artifacts (when available) so the caller can write diff
/// files. Boxed because the artifacts carry whole reports.
pub type CheckFailure = Box<(GoldenFailure, Option<GoldenArtifacts>)>;

/// Replay a scenario against its committed artifacts. On success the
/// committed trace, report and JSON all match the fresh run exactly.
pub fn check(name: &str, corpus_root: &Path) -> Result<(), CheckFailure> {
    let dir = scenario_dir(corpus_root, name);
    let recorded = Trace::load(&dir.join("trace.cpxr"))
        .map_err(|e| Box::new((GoldenFailure::Trace(e), None)))?;
    let fresh = generate(name).map_err(|e| Box::new((e, None)))?;
    if recorded.label != fresh.trace.label {
        return Err(Box::new((
            GoldenFailure::HeaderMismatch { what: "label" },
            Some(fresh),
        )));
    }
    if recorded.seed != fresh.trace.seed {
        return Err(Box::new((
            GoldenFailure::HeaderMismatch { what: "seed" },
            Some(fresh),
        )));
    }
    if recorded.world_size != fresh.trace.world_size {
        return Err(Box::new((
            GoldenFailure::HeaderMismatch { what: "world_size" },
            Some(fresh),
        )));
    }
    if let Err(div) = verify(&recorded.events, &fresh.trace.events) {
        return Err(Box::new((GoldenFailure::Divergence(div), Some(fresh))));
    }
    for (file, fresh_bytes) in [
        ("report.md", fresh.report.as_bytes()),
        ("bench.json", fresh.bench.as_bytes()),
    ] {
        let committed = std::fs::read(dir.join(file)).map_err(|_| {
            Box::new((
                GoldenFailure::MissingArtifact {
                    file: file.to_string(),
                },
                Some(fresh.clone()),
            ))
        })?;
        if committed != fresh_bytes {
            return Err(Box::new((
                GoldenFailure::ArtifactMismatch {
                    file: file.to_string(),
                },
                Some(fresh.clone()),
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_scenario_is_reproducible() {
        let a = lossy_faultplan();
        let b = lossy_faultplan();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.report, b.report);
        assert_eq!(a.bench, b.bench);
        assert!(!a.trace.events.is_empty());
        // The trace round-trips through the container format.
        let bytes = a.trace.to_bytes();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), a.trace);
    }

    #[test]
    fn unknown_scenario_is_a_typed_error() {
        assert_eq!(
            generate("no_such_scenario").unwrap_err(),
            GoldenFailure::UnknownScenario("no_such_scenario".to_string())
        );
    }

    #[test]
    fn record_then_check_round_trips() {
        let root = std::env::temp_dir().join("cpx_replay_golden_test");
        let _ = std::fs::remove_dir_all(&root);
        record("lossy_faultplan", &root).unwrap();
        check("lossy_faultplan", &root).unwrap();
        // Tamper with the committed trace: flip a payload byte.
        let path = root.join("lossy_faultplan/trace.cpxr");
        let bytes = std::fs::read(&path).unwrap();
        let mut tampered = bytes.clone();
        let idx = tampered.len() - 20;
        tampered[idx] ^= 0x01;
        std::fs::write(&path, &tampered).unwrap();
        let (failure, _) = *check("lossy_faultplan", &root).unwrap_err();
        assert!(
            matches!(
                failure,
                GoldenFailure::Trace(_) | GoldenFailure::Divergence(_)
            ),
            "tampering produced {failure:?}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
