//! Wall-clock benchmark of the CPX reproduction.
//!
//! Virtual time is the paper's result and is checked bit for bit;
//! wall-clock time is this program's performance and is what the
//! benchmark measures. A run repeats *passes* of one workload until its
//! time budget is spent:
//!
//! * untraced (`--trace 0`): every pass is timed with no spans, and
//!   the end-to-end metrics are medians over passes;
//! * traced (`--trace 1`): untraced and traced passes alternate. A
//!   traced pass records one span around every call the benchmark makes
//!   into a layer, then runs *probes* that repeat parts of composite
//!   calls and must match them bit for bit. Per-layer metrics are self
//!   times per traced pass; the tracing overhead is the median traced
//!   pass minus the median untraced one.
//!
//! Output checks run in both modes; each counts as attempted.

use std::collections::BTreeMap;
use std::time::Instant;

pub mod checks;
pub mod coupled;
pub mod des;
mod reference;
pub mod spans;
pub mod stats;

use checks::Checks;
use coupled::{CoupledSpec, CoupledWorkload};
use des::{DesSpec, DesWorkload};
use spans::{self_time_by_name, Span, Tracer};
use stats::{median, percentile, tail_percentile};

/// Exact per-pass counts by metric name.
pub type Counts = BTreeMap<&'static str, u64>;

/// Density steps a `coupled-step` run makes at least, so that ten step
/// samples lie beyond p90.
pub const MIN_STEPS: usize = 100;

/// One workload: set-up, the timed pipeline, its output checks and, on
/// traced passes, its probes.
pub trait Workload {
    /// Build the inputs of one pass; returns the measured set-up time.
    fn setup(&mut self, tr: &mut Tracer) -> f64;
    /// The pipeline a user runs; returns its latency samples.
    fn pipeline(&mut self, tr: &mut Tracer, ck: &mut Checks) -> Vec<f64>;
    /// Check the pass's outputs and record its exact counts.
    fn check(&mut self, ck: &mut Checks, counts: &mut Counts);
    /// Repeat parts of the composite calls of the last pass.
    fn probes(&mut self, _tr: &mut Tracer, _ck: &mut Checks, _counts: &mut Counts) {}
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Fig 9 pipeline at 40,000 ranks, then the Fig 8a pipeline at
    /// 5,000 ranks with the critical-path analysis.
    Fig9Fig8a,
    /// Real coupled numerics, one density step at a time.
    CoupledStep,
}

impl WorkloadKind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 2] = [WorkloadKind::Fig9Fig8a, WorkloadKind::CoupledStep];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Fig9Fig8a => "fig9-fig8a",
            WorkloadKind::CoupledStep => "coupled-step",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Benchmark size or the smoke size of the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs with their own reference values.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload.
    pub workload: WorkloadKind,
    /// Input seed.
    pub seed: u64,
    /// Measuring time; passes repeat until it is spent.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Checks made.
    pub attempted: u64,
    /// Failed checks, one message each.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Every recorded span (traced runs).
    pub spans: Vec<Span>,
    /// Passes made: (traced, wall seconds, latency samples).
    pub passes: Vec<(bool, f64, usize)>,
    /// Seed-independent values observed, for the reference tables.
    pub observed: Vec<(String, u64)>,
}

/// The per-layer metrics: name, unit, and the end-to-end metric and
/// workload each should move. Time metrics are self seconds per traced
/// pass of the span named without the `_s` suffix; counts are exact per
/// pass and gated against stored references. A layer idle on a
/// workload reads 0 there.
#[rustfmt::skip]
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    // Calibration.
    ("core.model.calibrate_s", "s", "latency_s, wall_s on fig9-fig8a"),
    ("perfmodel.allocate_s", "s", "latency_s on fig9-fig8a"),
    ("mgcfd.calib_curve_s", "s", "probe: latency_s on fig9-fig8a"),
    ("simpic.calib_curve_s", "s", "probe: latency_s on fig9-fig8a"),
    ("coupler.calib_curve_s", "s", "probe: latency_s on fig9-fig8a"),
    // Trace build and DES.
    ("core.sim.run_coupled_s", "s", "wall_s on fig9-fig8a"),
    ("core.sim.resilient_s", "s", "wall_s on fig9-fig8a"),
    ("core.sim.program_build_s", "s", "wall_s on fig9-fig8a"),
    ("machine.trace.ops", "count", "wall_s on fig9-fig8a"),
    ("machine.trace.expanded_ops", "count", "wall_s on fig9-fig8a"),
    ("machine.des.replay_s", "s", "wall_s on fig9-fig8a"),
    ("machine.des.messages", "count", "wall_s on fig9-fig8a"),
    ("machine.des.bytes", "B", "wall_s on fig9-fig8a"),
    ("machine.des.msgs_per_s", "1/s", "wall_s on fig9-fig8a"),
    // Task graph (the Fig 8a part).
    ("machine.graph.build_s", "s", "wall_s on fig9-fig8a"),
    ("obs.critical.nodes", "count", "wall_s on fig9-fig8a"),
    ("obs.critical.schedule_s", "s", "wall_s on fig9-fig8a"),
    ("obs.critical.path_s", "s", "wall_s on fig9-fig8a"),
    ("obs.critical.whatif_s", "s", "wall_s on fig9-fig8a"),
    // Numerics.
    ("amg.setup_s", "s", "setup_s on coupled-step"),
    ("mgcfd.euler.mg_cycle_s", "s", "latency_s on coupled-step"),
    ("mgcfd.cells", "count", "latency_s on coupled-step"),
    ("coupler.unit.step_s", "s", "latency_s on coupled-step"),
    ("coupler.unit.transfer_s", "s", "latency_s on coupled-step"),
    ("coupler.unit.remaps", "count", "latency_s on coupled-step"),
    ("pressure.field_s", "s", "latency_s on coupled-step"),
    ("amg.pcg_iters", "count", "latency_s on coupled-step"),
    ("pressure.spray_s", "s", "latency_s on coupled-step"),
    ("pressure.spray.bytes", "B", "latency_s on coupled-step"),
    ("simpic.pic.step_s", "s", "latency_s on coupled-step"),
    ("simpic.push.flops", "count", "latency_s on coupled-step"),
    ("step_p90_ms", "ms", "latency_s tail on coupled-step (fig9-fig8a has no steps)"),
    // The trace itself.
    ("trace.uncovered_frac", "frac", "pass time no layer span covers"),
    ("trace.overhead_s", "s", "traced minus untraced wall_s"),
];

/// One pass as measured.
struct PassRecord {
    traced: bool,
    setup_s: f64,
    wall_s: f64,
    /// Latency samples: the prediction time, or one per density step.
    latencies: Vec<f64>,
    counts: Counts,
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> RunReport {
    let (seed, full) = (cfg.seed, cfg.size == Size::Full);
    let mut wl: Box<dyn Workload> = match cfg.workload {
        WorkloadKind::Fig9Fig8a => Box::new(DesWorkload::new(
            if full {
                vec![DesSpec::ENGINE_40K, DesSpec::FIG8A_5K]
            } else {
                vec![DesSpec::ENGINE_SMOKE, DesSpec::FIG8A_SMOKE]
            },
            seed,
        )),
        WorkloadKind::CoupledStep => Box::new(CoupledWorkload::new(
            if full {
                CoupledSpec::FULL
            } else {
                CoupledSpec::SMOKE
            },
            seed,
        )),
    };
    let min_samples = if cfg.workload == WorkloadKind::CoupledStep {
        MIN_STEPS
    } else {
        1
    };
    let mut ck = Checks::new(reference::table(cfg.workload, cfg.size));
    let mut tr = Tracer::new();
    let mut passes: Vec<PassRecord> = Vec::new();
    let start = Instant::now();
    loop {
        let traced = cfg.trace && passes.len() % 2 == 1;
        tr.set_enabled(traced);
        let setup_s = tr.span("setup", |t| wl.setup(t));
        let t0 = Instant::now();
        let latencies = tr.span("pass", |t| wl.pipeline(t, &mut ck));
        let wall_s = t0.elapsed().as_secs_f64();
        let mut counts = Counts::new();
        wl.check(&mut ck, &mut counts);
        if traced {
            tr.span("probe", |t| wl.probes(t, &mut ck, &mut counts));
        }
        for (name, &v) in &counts {
            ck.count(&format!("count.{name}"), v);
        }
        passes.push(PassRecord {
            traced,
            setup_s,
            wall_s,
            latencies,
            counts,
        });

        let measured: usize = passes
            .iter()
            .filter(|p| !p.traced || cfg.trace)
            .map(|p| p.latencies.len())
            .sum();
        let both_kinds = !cfg.trace || passes.len() >= 2;
        // Stop before a pass that would overrun the budget, so a
        // workload whose pass takes most of the budget always makes the
        // same number of passes.
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed * (passes.len() + 1) as f64 / passes.len() as f64;
        if both_kinds && measured >= min_samples && next_end > cfg.seconds {
            break;
        }
    }

    let untraced: Vec<&PassRecord> = passes.iter().filter(|p| !p.traced).collect();
    let med =
        |f: fn(&PassRecord) -> f64| median(&untraced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let metrics = if !cfg.trace {
        let latencies: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.latencies.iter().copied())
            .collect();
        vec![
            Metric {
                name: "wall_s",
                value: med(|p| p.wall_s),
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: med(|p| p.setup_s),
                unit: "s",
            },
            Metric {
                name: "latency_s",
                value: median(&latencies),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
        ]
    } else {
        layer_metrics(cfg.workload, &passes, tr.spans())
    };
    RunReport {
        attempted: ck.attempted(),
        failures: ck.failures().to_vec(),
        metrics,
        spans: tr.spans().to_vec(),
        passes: passes
            .iter()
            .map(|p| (p.traced, p.wall_s, p.latencies.len()))
            .collect(),
        observed: std::mem::take(&mut ck.observed),
    }
}

fn layer_metrics(workload: WorkloadKind, passes: &[PassRecord], spans: &[Span]) -> Vec<Metric> {
    let traced: Vec<&PassRecord> = passes.iter().filter(|p| p.traced).collect();
    let n = traced.len() as f64;
    let busy = self_time_by_name(spans, &["setup", "pass", "probe"]);
    let probe_replay = self_time_by_name(spans, &["probe"])
        .get("machine.des.replay")
        .copied()
        .unwrap_or(0.0);
    let in_pass = self_time_by_name(spans, &["pass"]);
    let pass_total: f64 = spans
        .iter()
        .filter(|s| s.name == "pass")
        .map(Span::dur)
        .sum();
    let counts = &traced[0].counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let steps: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    let wall = |t: bool| {
        median(
            &passes
                .iter()
                .filter(|p| p.traced == t)
                .map(|p| p.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "machine.des.msgs_per_s" if probe_replay > 0.0 => {
                    count("machine.des.messages") / (probe_replay / n)
                }
                "step_p90_ms" if workload == WorkloadKind::CoupledStep => {
                    assert!(
                        tail_percentile(steps.len()) >= Some(90),
                        "too few steps for p90"
                    );
                    percentile(&steps, 90.0) * 1e3
                }
                "trace.uncovered_frac" => in_pass["pass"] / pass_total,
                "trace.overhead_s" => wall(true) - wall(false),
                _ if unit == "s" => {
                    let span = name.strip_suffix("_s").expect("time metrics end in _s");
                    busy.get(span).copied().unwrap_or(0.0) / n
                }
                _ => count(name),
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
