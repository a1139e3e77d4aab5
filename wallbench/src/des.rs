//! The `fig9-fig8a` workload: the paper's two prediction pipelines back
//! to back. Each runs calibrate → Alg-1 → coupled DES replay for both
//! STC variants, then the resilient replay (Fig 9 engine case) or the
//! critical-path analysis (Fig 8a case).

use std::time::Instant;

use cpx_core::instance::{AppKind, FaultScenario, Scenario, StcVariant};
use cpx_core::model::{self, ScenarioModels};
use cpx_core::sim::{self, CoupledRun};
use cpx_core::testcases;
use cpx_coupler::{CouplerTraceModel, MpmdLayout};
use cpx_machine::{build_task_graph, Machine, ReplayOutcome, Replayer};
use cpx_mgcfd::MgCfdConfig;
use cpx_obs::Rescale;
use cpx_perfmodel::{allocate, AllocConfig, Allocation, RuntimeCurve};

use crate::checks::Checks;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Counts, Workload};

/// Replay noise amplitude of the coupled "measurement", as in
/// `figures fig8a`/`fig9bc`.
pub const NOISE_AMPLITUDE: f64 = 0.04;

/// The coupler-unit calibration grid `model::build_models_with_grid`
/// uses (not exported by `cpx-core`; the probe must match it).
const CU_GRID: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Set-up is microseconds; repeat it and report the median.
const SETUP_REPEATS: usize = 101;

/// What follows the coupled replay in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// `run_coupled_resilient`: bottleneck crash at half the predicted
    /// runtime, checkpoints every 100 iterations (Fig 9 engine case).
    Resilient,
    /// `critical_study` on the phased program: clean DES replay, task
    /// graph, schedule, critical path and one what-if schedule.
    Critical,
}

/// One prediction pipeline at one size.
#[derive(Debug, Clone)]
pub struct DesSpec {
    /// Label prefix of its checks.
    pub name: &'static str,
    /// The paper's test case.
    pub scenario: fn(StcVariant) -> Scenario,
    /// Alg-1 rank budget.
    pub budget: usize,
    /// Calibration rank grid.
    pub grid: &'static [usize],
    /// Density iterations the models are scaled to.
    pub window: f64,
    /// Density iterations replayed.
    pub sample_iters: u64,
    /// What follows the coupled replay.
    pub tail: Tail,
}

impl DesSpec {
    /// Fig 9 (`coupled_engine`, `figures fig9bc`) at 40,000 ranks.
    pub const ENGINE_40K: DesSpec = DesSpec {
        name: "engine",
        scenario: testcases::large_engine,
        budget: 40_000,
        grid: &[100, 200, 400, 800, 1600, 3200, 6400, 12_800, 25_600, 40_000],
        window: 1000.0,
        sample_iters: 20,
        tail: Tail::Resilient,
    };

    /// Fig 8a (`figures fig8a`) at 5,000 ranks.
    pub const FIG8A_5K: DesSpec = DesSpec {
        name: "fig8a",
        scenario: testcases::small_150m_28m,
        budget: 5000,
        grid: &[100, 200, 400, 800, 1600, 3200, 5000],
        window: 100.0,
        sample_iters: 20,
        tail: Tail::Critical,
    };

    /// Smoke-sized engine pipeline for the benchmark's own tests.
    pub const ENGINE_SMOKE: DesSpec = DesSpec {
        budget: 4000,
        grid: &[100, 400, 1600, 4000],
        sample_iters: 2,
        ..DesSpec::ENGINE_40K
    };

    /// Smoke-sized Fig 8a pipeline (the `bench_coupled` configuration).
    pub const FIG8A_SMOKE: DesSpec = DesSpec {
        budget: 1200,
        grid: &[100, 400, 1600],
        window: 20.0,
        sample_iters: 8,
        ..DesSpec::FIG8A_5K
    };
}

/// Everything one STC variant's pipeline produced.
struct VariantRun {
    /// Index of its pipeline in [`DesWorkload`]'s specs.
    case: usize,
    variant: StcVariant,
    models: ScenarioModels,
    alloc: Allocation,
    noisy: CoupledRun,
    /// Noise-free per-app runtimes, scaled to the window.
    clean_apps: Vec<f64>,
    tail: TailRun,
}

enum TailRun {
    Resilient(CoupledRun),
    Critical {
        measured_total: f64,
        des_makespan: f64,
        graph_makespan: f64,
        nodes: usize,
        path_makespan: f64,
        path_end: f64,
        path_coverage: f64,
        whatif_makespan: f64,
    },
}

/// A DES workload instance.
pub struct DesWorkload {
    specs: Vec<DesSpec>,
    seed: u64,
    machine: Machine,
    /// (pipeline index, variant, scenario), in run order.
    scenarios: Vec<(usize, StcVariant, Scenario)>,
    runs: Vec<VariantRun>,
}

impl DesWorkload {
    /// The pipelines of `specs`, in order, with replay noise seeded by
    /// `seed`.
    pub fn new(specs: Vec<DesSpec>, seed: u64) -> DesWorkload {
        DesWorkload {
            specs,
            seed,
            machine: Machine::archer2(),
            scenarios: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn run_variant(
        &self,
        tr: &mut Tracer,
        case: usize,
        variant: StcVariant,
        scenario: &Scenario,
    ) -> (VariantRun, f64) {
        let spec = &self.specs[case];
        let m = &self.machine;
        let t0 = Instant::now();
        let models = tr.span("core.model.calibrate", |_| {
            model::build_models_with_grid(scenario, m, spec.window, spec.grid)
        });
        let alloc = tr.span("perfmodel.allocate", |_| {
            allocate(
                &models.apps,
                &models.cus,
                AllocConfig {
                    budget: spec.budget,
                },
            )
        });
        let predict_s = t0.elapsed().as_secs_f64();
        let noise = Some((NOISE_AMPLITUDE, self.seed));
        let noisy = tr.span("core.sim.run_coupled", |_| {
            sim::run_coupled_with(scenario, &alloc, m, spec.sample_iters, noise)
        });
        let scale = scenario.density_iters as f64 / spec.sample_iters as f64;
        let (clean_apps, tail) = match spec.tail {
            Tail::Resilient => {
                let faulty = scenario.clone().with_fault(
                    FaultScenario::crash(alloc.bottleneck_app(), alloc.predicted_runtime() * 0.5)
                        .with_checkpoint_interval(100),
                );
                let res = tr.span("core.sim.resilient", |_| {
                    sim::run_coupled_resilient(&faulty, &alloc, m, spec.sample_iters)
                });
                (res.app_runtimes.clone(), TailRun::Resilient(res))
            }
            Tail::Critical => {
                let names = sim::coupled_phase_names(scenario);
                let (program, layout) = tr.span("core.sim.program_build", |_| {
                    sim::coupled_program_phased(scenario, &alloc, m, spec.sample_iters)
                });
                let clean = tr.span("machine.des.replay", |_| {
                    Replayer::new(m.clone()).run(&program)
                });
                let clean = clean.expect("phased coupled program replays");
                let graph = tr.span("machine.graph.build", |_| {
                    build_task_graph(&program, m, &names)
                });
                let graph = graph.expect("coupled task graph builds");
                let sched = tr.span("obs.critical.schedule", |_| {
                    graph.schedule(&Rescale::none())
                });
                let sched = sched.expect("task graph is acyclic");
                let path = tr.span("obs.critical.path", |_| graph.critical_path(&sched));
                // What if the pressure-solver proxy ran twice as fast?
                let simpic_phase = 1 + simpic_index(scenario);
                let mut rescale = Rescale::none();
                rescale.compute_by_phase = vec![1.0; simpic_phase + 1];
                rescale.compute_by_phase[simpic_phase] = 0.5;
                let whatif = tr.span("obs.critical.whatif", |_| graph.schedule(&rescale));
                let whatif = whatif.expect("rescaled graph is acyclic");
                let apps = app_runtimes(&clean, &layout, scale);
                let tail = TailRun::Critical {
                    measured_total: clean.makespan() * scale,
                    des_makespan: clean.makespan(),
                    graph_makespan: sched.makespan,
                    nodes: graph.nodes.len(),
                    path_makespan: path.makespan,
                    path_end: path.segments.last().map_or(0.0, |s| s.t1),
                    path_coverage: path.coverage(),
                    whatif_makespan: whatif.makespan,
                };
                (apps, tail)
            }
        };
        let run = VariantRun {
            case,
            variant,
            models,
            alloc,
            noisy,
            clean_apps,
            tail,
        };
        (run, predict_s)
    }
}

impl Workload for DesWorkload {
    fn setup(&mut self, _tr: &mut Tracer) -> f64 {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        for _ in 0..SETUP_REPEATS {
            let t0 = Instant::now();
            self.machine = Machine::archer2();
            self.scenarios.clear();
            for (case, spec) in self.specs.iter().enumerate() {
                for v in [StcVariant::Base, StcVariant::Optimized] {
                    self.scenarios.push((case, v, (spec.scenario)(v)));
                }
            }
            times.push(t0.elapsed().as_secs_f64());
        }
        median(&times)
    }

    fn pipeline(&mut self, tr: &mut Tracer, _ck: &mut Checks) -> Vec<f64> {
        let scenarios = std::mem::take(&mut self.scenarios);
        let mut predict_s = 0.0;
        self.runs.clear();
        for (case, variant, scenario) in &scenarios {
            let (run, p) = self.run_variant(tr, *case, *variant, scenario);
            predict_s += p;
            self.runs.push(run);
        }
        self.scenarios = scenarios;
        vec![predict_s]
    }

    fn check(&mut self, ck: &mut Checks, counts: &mut Counts) {
        let amp = 1.0 + 2.0 * NOISE_AMPLITUDE;
        for r in &self.runs {
            let v = format!("{}.{:?}", self.specs[r.case].name, r.variant);
            for (i, &p) in r.alloc.app_ranks.iter().enumerate() {
                ck.count(&format!("{v}.app{i}.ranks"), p as u64);
            }
            for (i, &p) in r.alloc.cu_ranks.iter().enumerate() {
                ck.count(&format!("{v}.cu{i}.ranks"), p as u64);
            }
            ck.vtime(&format!("{v}.predicted_s"), r.alloc.predicted_runtime());
            for (i, &t) in r.clean_apps.iter().enumerate() {
                ck.vtime(&format!("{v}.app{i}.measured_s"), t);
            }
            // Noise only ever slows a compute op, by at most `amp`, and
            // the replay is monotone in op durations.
            for (i, (&noisy, &clean)) in r.noisy.app_runtimes.iter().zip(&r.clean_apps).enumerate()
            {
                ck.check(
                    clean * (1.0 - 1e-12) <= noisy && noisy <= amp * clean * (1.0 + 1e-12),
                    || format!("{v}: noisy runtime {noisy} of app {i} outside [{clean}, {amp}×]"),
                );
            }
            match &r.tail {
                TailRun::Resilient(res) => {
                    ck.vtime(&format!("{v}.resilient_total_s"), res.total_runtime);
                    ck.vtime(&format!("{v}.recovery_s"), res.recovery_overhead);
                    ck.count(&format!("{v}.faults_survived"), res.faults_survived as u64);
                }
                &TailRun::Critical {
                    measured_total,
                    des_makespan,
                    graph_makespan,
                    nodes,
                    path_makespan,
                    path_end,
                    path_coverage,
                    whatif_makespan,
                } => {
                    ck.vtime(&format!("{v}.measured_total_s"), measured_total);
                    ck.check(graph_makespan.to_bits() == des_makespan.to_bits(), || {
                        format!("{v}: graph makespan {graph_makespan} != DES {des_makespan}")
                    });
                    ck.check(
                        path_makespan.to_bits() == graph_makespan.to_bits()
                            && path_end.to_bits() == graph_makespan.to_bits()
                            && (path_coverage - 1.0).abs() < 1e-9,
                        || format!("{v}: critical path does not tile [0, {graph_makespan}]"),
                    );
                    ck.check(
                        whatif_makespan > 0.0 && whatif_makespan <= graph_makespan,
                        || {
                            format!(
                                "{v}: what-if makespan {whatif_makespan} vs base {graph_makespan}"
                            )
                        },
                    );
                    *counts.entry("obs.critical.nodes").or_insert(0) += nodes as u64;
                }
            }
        }
    }

    fn probes(&mut self, tr: &mut Tracer, ck: &mut Checks, counts: &mut Counts) {
        let m = &self.machine;
        for (r, (_, _, s)) in self.runs.iter().zip(&self.scenarios) {
            let spec = &self.specs[r.case];
            let v = format!("{}.{:?}", spec.name, r.variant);
            // Calibration, split by trace model: the curves must be the
            // ones `build_models_with_grid` fitted.
            let base = AppKind::MgCfd(MgCfdConfig::base_8m());
            let mg = tr.span("mgcfd.calib_curve", |_| {
                fit(spec.grid, |p| model::app_step_runtime(&base, p, m))
            });
            let mut simpic: Vec<(&AppKind, RuntimeCurve)> = Vec::new();
            for (i, app) in s.apps.iter().enumerate() {
                let want = &r.models.apps[i].curve;
                let got = match &app.kind {
                    AppKind::MgCfd(_) => mg.clone(),
                    AppKind::Simpic(_) => match simpic.iter().find(|(k, _)| **k == app.kind) {
                        Some((_, c)) => c.clone(),
                        None => {
                            let c = tr.span("simpic.calib_curve", |_| {
                                fit(spec.grid, |p| model::app_step_runtime(&app.kind, p, m))
                            });
                            simpic.push((&app.kind, c.clone()));
                            c
                        }
                    },
                };
                ck.check(got == *want, || {
                    format!("{v}: calibration probe of app {i} differs")
                });
            }
            for (j, cu) in s.cus.iter().enumerate() {
                let cm = CouplerTraceModel::new(cu.kind, cu.interface_points, cu.interface_points);
                let got = tr.span("coupler.calib_curve", |_| {
                    fit(&CU_GRID, |p| model::cu_step_runtime(&cm, p, m).max(1e-12))
                });
                ck.check(got == r.models.cus[j].curve, || {
                    format!("{v}: calibration probe of CU {j} differs")
                });
            }

            // Trace build and the noisy DES replay inside run_coupled_with.
            let (program, layout) = tr.span("core.sim.program_build", |_| {
                sim::coupled_program(s, &r.alloc, m, spec.sample_iters)
            });
            let ops: usize = program.traces.iter().map(|t| t.len()).sum();
            let expanded: usize = program.traces.iter().map(|t| t.expanded_len()).sum();
            let out = tr.span("machine.des.replay", |_| {
                Replayer::new(m.clone())
                    .with_noise(NOISE_AMPLITUDE, self.seed)
                    .run(&program)
            });
            let out = out.expect("coupled program replays");
            let scale = s.density_iters as f64 / spec.sample_iters as f64;
            let apps = app_runtimes(&out, &layout, scale);
            ck.check(
                bits(&apps) == bits(&r.noisy.app_runtimes)
                    && (out.makespan() * scale).to_bits() == r.noisy.total_runtime.to_bits(),
                || format!("{v}: replay probe differs from run_coupled_with"),
            );
            *counts.entry("machine.trace.ops").or_insert(0) += ops as u64;
            *counts.entry("machine.trace.expanded_ops").or_insert(0) += expanded as u64;
            *counts.entry("machine.des.messages").or_insert(0) += out.messages;
            *counts.entry("machine.des.bytes").or_insert(0) += out.bytes;
        }
    }
}

fn fit(grid: &[usize], runtime: impl Fn(usize) -> f64) -> RuntimeCurve {
    let samples: Vec<(usize, f64)> = grid.iter().map(|&p| (p, runtime(p))).collect();
    RuntimeCurve::fit(&samples)
}

fn app_runtimes(out: &ReplayOutcome, layout: &MpmdLayout, scale: f64) -> Vec<f64> {
    layout
        .apps
        .iter()
        .map(|r| out.makespan_of(&r.ranks()) * scale)
        .collect()
}

fn simpic_index(s: &Scenario) -> usize {
    s.apps
        .iter()
        .position(|a| matches!(a.kind, AppKind::Simpic(_)))
        .expect("scenario has a SIMPIC instance")
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}
