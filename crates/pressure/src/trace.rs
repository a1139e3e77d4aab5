//! The pressure solver's scale model (trace generation + calibration).
//!
//! Cost constants are calibrated jointly against two anchors from the
//! paper:
//!
//! 1. **SIMPIC equivalence** (Fig 3/4): a 28M-cell case over one
//!    timestep costs the same order as its SIMPIC proxy over 5,000
//!    SIMPIC steps (serial runtimes agree to <1%, and across core
//!    counts within the paper's quoted ≤22% worst case);
//! 2. **the 2048-core profile** (Fig 5a): pressure field ≈ 46% of
//!    runtime (≈25% compute + ≈21% MPI), spray next at ≈24% with ≈96%
//!    of its time in communication.
//!
//! The scaling *mechanisms* are structural, not fitted: the spray's
//! elapsed time is pinned by the nozzle-core particle share
//! ([`crate::spray`]), the pressure field's by AMG load imbalance
//! growing with rank count plus latency-bound coarse levels, and the
//! transport phases by ordinary surface-to-volume halo costs.

use cpx_machine::des::PhaseBreakdown;
use cpx_machine::trace::PhaseId;
use cpx_machine::{CollectiveKind, KernelCost, Machine, Op, Replayer, TraceProgram};
use cpx_mesh::SurfaceModel;

use crate::config::{PressureConfig, PressureVariant};
use crate::spray;

/// Phase labels used in traces and profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressurePhase {
    /// Momentum (velocity field) update.
    Velocity,
    /// Scalar transport.
    Scalars,
    /// k-ε turbulence model.
    Turbulence,
    /// Pressure-correction solve (CG + AMG).
    PressureField,
    /// Lagrangian spray.
    Spray,
    /// AMG setup (once per run).
    Setup,
}

impl PressurePhase {
    /// All phases in id order.
    pub const ALL: [PressurePhase; 6] = [
        PressurePhase::Velocity,
        PressurePhase::Scalars,
        PressurePhase::Turbulence,
        PressurePhase::PressureField,
        PressurePhase::Spray,
        PressurePhase::Setup,
    ];

    /// Trace phase id.
    pub fn id(self) -> PhaseId {
        match self {
            PressurePhase::Velocity => 0,
            PressurePhase::Scalars => 1,
            PressurePhase::Turbulence => 2,
            PressurePhase::PressureField => 3,
            PressurePhase::Spray => 4,
            PressurePhase::Setup => 5,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PressurePhase::Velocity => "velocity fields",
            PressurePhase::Scalars => "scalar transport",
            PressurePhase::Turbulence => "k-eps turbulence",
            PressurePhase::PressureField => "pressure field",
            PressurePhase::Spray => "particle spray",
            PressurePhase::Setup => "AMG setup",
        }
    }
}

/// Opt-in sub-phases of the pressure-field solve, used by detailed
/// profiling (Fig 5's AMG-level hotspots). Ids continue after
/// [`PressurePhase`] so both labellings can share one breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfSubPhase {
    /// AMG smoothing sweeps + fine-level halo (SpMV-bound).
    Smoothing,
    /// Latency-bound coarse-level exchanges.
    CoarseLevels,
    /// CG dot-product reductions.
    Reductions,
}

impl PfSubPhase {
    /// All sub-phases in id order.
    pub const ALL: [PfSubPhase; 3] = [
        PfSubPhase::Smoothing,
        PfSubPhase::CoarseLevels,
        PfSubPhase::Reductions,
    ];

    /// Trace phase id (continues after the last [`PressurePhase`] id).
    pub fn id(self) -> PhaseId {
        match self {
            PfSubPhase::Smoothing => 6,
            PfSubPhase::CoarseLevels => 7,
            PfSubPhase::Reductions => 8,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PfSubPhase::Smoothing => "amg smoothing (spmv)",
            PfSubPhase::CoarseLevels => "amg coarse levels",
            PfSubPhase::Reductions => "cg reductions",
        }
    }
}

/// Number of phase ids a detailed profile uses (`PressurePhase` +
/// `PfSubPhase`).
pub const N_DETAILED_PHASES: usize = 9;

/// Phase names in id order, for detailed traces and reports.
pub fn detailed_phase_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = PressurePhase::ALL.iter().map(|p| p.name()).collect();
    names.extend(PfSubPhase::ALL.iter().map(|p| p.name()));
    names
}

/// Seconds of (memory-bound) work per cell per step, pressure field.
pub const PF_PER_CELL: f64 = 250.0e-6;
/// Seconds per cell per step, momentum.
pub const VEL_PER_CELL: f64 = 125.0e-6;
/// Seconds per cell per step, scalar transport.
pub const SCAL_PER_CELL: f64 = 100.0e-6;
/// Seconds per cell per step, turbulence.
pub const KEPS_PER_CELL: f64 = 78.0e-6;
/// Seconds per spray droplet per step.
pub const SPRAY_PER_PARTICLE: f64 = 23.0e-6;
/// Seconds per cell for the one-off AMG setup.
pub const SETUP_PER_CELL: f64 = 4.0e-6;
/// CG iteration groups per pressure solve (sync granularity).
const CG_GROUPS: usize = 8;
/// Speedup the §IV solver optimizations give the pressure field.
pub const OPTIMIZED_PF_SPEEDUP: f64 = 5.0;
/// Pressure-field speedup in the §V-C worst-case sensitivity scenario
/// ("run-time is reduced only by 30%").
pub const WORST_CASE_PF_SPEEDUP: f64 = 1.0 / 0.7;

/// The trace/cost model of one pressure-solver instance.
#[derive(Debug, Clone)]
pub struct PressureTraceModel {
    /// Case configuration.
    pub config: PressureConfig,
    /// Halo extrapolation model.
    pub surface: SurfaceModel,
}

/// Memory bandwidth per core of the calibration machine (ARCHER2): the
/// per-cell costs above are *seconds on ARCHER2*, stored as bytes so
/// that running the model on a different [`Machine`] rescales them by
/// that machine's own bandwidth (see the `machines` figure).
pub const CALIBRATION_BW: f64 = 1.56e9;

/// Convert calibrated seconds of memory-bound work into a kernel cost.
fn secs(_machine_bw: f64, t: f64) -> KernelCost {
    KernelCost::bytes(t * CALIBRATION_BW)
}

impl PressureTraceModel {
    /// Model for `config`.
    pub fn new(config: PressureConfig) -> PressureTraceModel {
        PressureTraceModel {
            config,
            surface: SurfaceModel::default_box(),
        }
    }

    /// AMG/pressure-field load imbalance at `p` ranks (max/mean),
    /// calibrated to the 21%-comm/25%-compute split at 2048 cores.
    pub fn pf_imbalance(&self, p: usize) -> f64 {
        (1.0 + 0.0186 * (p as f64).sqrt()).min(3.5)
    }

    /// Per-rank pressure-field cells: rank 0 carries the imbalance.
    fn pf_cells(&self, i: usize, p: usize) -> f64 {
        let total = self.config.cells;
        if p == 1 {
            return total;
        }
        let max = total / p as f64 * self.pf_imbalance(p);
        if i == 0 {
            max
        } else {
            (total - max) / (p - 1) as f64
        }
    }

    /// Halo bytes per neighbour per exchange.
    fn halo_bytes(&self, p: usize) -> usize {
        let halo = self.surface.halo(self.config.cells, p) / 3.0;
        (halo * 5.0 * 8.0) as usize
    }

    /// Emit the one-off AMG setup phase.
    fn setup_ops(&self, bw: f64, p: usize, group: usize) -> Vec<Op> {
        let mut ops = vec![Op::Phase(PressurePhase::Setup.id())];
        ops.push(Op::Compute(secs(
            bw,
            SETUP_PER_CELL * self.config.cells / p as f64,
        )));
        // Galerkin coarsening exchanges (grow with rank count; the
        // reason the paper caps the study at 40k cores).
        ops.push(Op::Collective {
            kind: CollectiveKind::Alltoall,
            group,
            bytes: 4096,
        });
        // Coarse-level construction has a serialized component that
        // grows with the number of parts (coarse rows per rank stop
        // shrinking while their stencils densify).
        ops.push(Op::ComputeSecs(2.0e-5 * p as f64));
        ops
    }

    /// The ops of one timestep for group-index `i` of `p`. With
    /// `detailed`, the pressure-field solve is labelled with
    /// [`PfSubPhase`] ids instead of the single `PressureField` phase;
    /// the op stream is otherwise identical (Phase markers are free),
    /// so timings match the coarse labelling exactly.
    fn step_ops(
        &self,
        bw: f64,
        i: usize,
        p: usize,
        ranks: &[usize],
        group: usize,
        detailed: bool,
    ) -> Vec<Op> {
        let spray_balanced = self.config.variant != PressureVariant::Base;
        let cells_per_rank = self.config.cells / p as f64;
        let halo = self.halo_bytes(p);
        let mut ops = Vec::new();

        let transport = |ops: &mut Vec<Op>, phase: PressurePhase, per_cell: f64| {
            ops.push(Op::Phase(phase.id()));
            ops.push(Op::Compute(secs(bw, per_cell * cells_per_rank)));
            if p > 1 {
                let tag = 400 + phase.id() as u32;
                ops.push(Op::Send {
                    dst: ranks[(i + 1) % p],
                    bytes: halo,
                    tag,
                });
                ops.push(Op::Send {
                    dst: ranks[(i + p - 1) % p],
                    bytes: halo,
                    tag,
                });
                ops.push(Op::Recv {
                    src: ranks[(i + p - 1) % p],
                    tag,
                });
                ops.push(Op::Recv {
                    src: ranks[(i + 1) % p],
                    tag,
                });
            }
            ops.push(Op::Collective {
                kind: CollectiveKind::Allreduce,
                group,
                bytes: 8,
            });
        };

        // --- transport phases (scale well) ---------------------------
        transport(&mut ops, PressurePhase::Velocity, VEL_PER_CELL);
        transport(&mut ops, PressurePhase::Scalars, SCAL_PER_CELL);
        transport(&mut ops, PressurePhase::Turbulence, KEPS_PER_CELL);

        // --- pressure field -------------------------------------------
        ops.push(Op::Phase(PressurePhase::PressureField.id()));
        let pf_per_cell = match self.config.variant {
            PressureVariant::Base => PF_PER_CELL,
            PressureVariant::Optimized => PF_PER_CELL / OPTIMIZED_PF_SPEEDUP,
            PressureVariant::WorstCase => PF_PER_CELL / WORST_CASE_PF_SPEEDUP,
        };
        let my_pf = pf_per_cell * self.pf_cells(i, p) / CG_GROUPS as f64;
        for _ in 0..CG_GROUPS {
            if detailed {
                ops.push(Op::Phase(PfSubPhase::Smoothing.id()));
            }
            ops.push(Op::Compute(secs(bw, my_pf)));
            if p > 1 {
                let tag = 410;
                ops.push(Op::Send {
                    dst: ranks[(i + 1) % p],
                    bytes: halo,
                    tag,
                });
                ops.push(Op::Recv {
                    src: ranks[(i + p - 1) % p],
                    tag,
                });
                // Latency-bound coarse-level exchanges.
                if detailed {
                    ops.push(Op::Phase(PfSubPhase::CoarseLevels.id()));
                }
                for lvl in 0..3u32 {
                    let tag = 420 + lvl;
                    ops.push(Op::Send {
                        dst: ranks[(i + 1) % p],
                        bytes: 64,
                        tag,
                    });
                    ops.push(Op::Recv {
                        src: ranks[(i + p - 1) % p],
                        tag,
                    });
                }
            }
            // Two dot products per CG group.
            if detailed {
                ops.push(Op::Phase(PfSubPhase::Reductions.id()));
            }
            ops.push(Op::Collective {
                kind: CollectiveKind::Allreduce,
                group,
                bytes: 8,
            });
            ops.push(Op::Collective {
                kind: CollectiveKind::Allreduce,
                group,
                bytes: 8,
            });
        }

        // --- spray -----------------------------------------------------
        ops.push(Op::Phase(PressurePhase::Spray.id()));
        let my_particles = if spray_balanced {
            // Async task-based spray: balanced and overlapped (§IV-A,
            // modelled as perfect scaling per §IV-C).
            self.config.particles / p as f64
        } else {
            let fracs = spray::rank_fractions(p);
            self.config.particles * fracs[i]
        };
        ops.push(Op::Compute(secs(bw, SPRAY_PER_PARTICLE * my_particles)));
        // Spray/solver synchronisation point.
        ops.push(Op::Collective {
            kind: CollectiveKind::Allreduce,
            group,
            bytes: 8,
        });
        ops
    }

    /// Emit the setup plus `steps` timesteps onto `program`.
    pub fn emit(
        &self,
        program: &mut TraceProgram,
        ranks: &[usize],
        group: usize,
        steps: u32,
        machine: &Machine,
    ) {
        self.emit_with(program, ranks, group, steps, machine, false);
    }

    /// [`PressureTraceModel::emit`] with optional [`PfSubPhase`]
    /// labelling of the pressure-field solve.
    pub fn emit_with(
        &self,
        program: &mut TraceProgram,
        ranks: &[usize],
        group: usize,
        steps: u32,
        machine: &Machine,
        detailed: bool,
    ) {
        let p = ranks.len();
        let bw = machine.mem_bw_per_core;
        for (i, &world_rank) in ranks.iter().enumerate() {
            let mut ops = self.setup_ops(bw, p, group);
            ops.push(Op::Repeat {
                count: steps,
                body: self.step_ops(bw, i, p, ranks, group, detailed),
            });
            program.rank(world_rank).ops.extend(ops);
        }
    }

    /// Build a standalone trace program (setup + `steps` timesteps on
    /// ranks `0..p`), optionally with detailed PF sub-phase labels.
    pub fn build_program(
        &self,
        p: usize,
        machine: &Machine,
        steps: u32,
        detailed: bool,
    ) -> TraceProgram {
        let mut prog = TraceProgram::new(p);
        let ranks: Vec<usize> = (0..p).collect();
        let group = prog.add_world_group();
        self.emit_with(&mut prog, &ranks, group, steps, machine, detailed);
        prog
    }

    /// Replay a short standalone run; returns `(per_step_seconds,
    /// setup_seconds, phase breakdown over the sampled steps)`.
    pub fn profile(&self, p: usize, machine: &Machine, steps: u32) -> (f64, f64, PhaseBreakdown) {
        assert!(steps >= 1);
        // Setup-only program to isolate setup time.
        let setup_time = {
            let mut prog = TraceProgram::new(p);
            let ranks: Vec<usize> = (0..p).collect();
            let group = prog.add_world_group();
            let bw = machine.mem_bw_per_core;
            for (i, _) in ranks.iter().enumerate() {
                let ops = self.setup_ops(bw, p, group);
                prog.rank(i).ops.extend(ops);
            }
            Replayer::new(machine.clone())
                .run(&prog)
                .expect("setup")
                .makespan()
        };
        let mut prog = TraceProgram::new(p);
        let ranks: Vec<usize> = (0..p).collect();
        let group = prog.add_world_group();
        self.emit(&mut prog, &ranks, group, steps, machine);
        let mut breakdown = PhaseBreakdown::new(6);
        let out = Replayer::new(machine.clone())
            .run_probed(&prog, &mut breakdown)
            .expect("pressure trace must replay");
        let per_step = (out.makespan() - setup_time) / steps as f64;
        (per_step, setup_time, breakdown)
    }

    /// [`PressureTraceModel::profile`] with the pressure-field solve
    /// split into [`PfSubPhase`] buckets (ids 6..9). The op stream is
    /// identical apart from the free phase markers, so the returned
    /// timings match the coarse profile exactly.
    pub fn profile_detailed(
        &self,
        p: usize,
        machine: &Machine,
        steps: u32,
    ) -> (f64, f64, PhaseBreakdown) {
        assert!(steps >= 1);
        let setup_time = {
            let mut prog = TraceProgram::new(p);
            let group = prog.add_world_group();
            let bw = machine.mem_bw_per_core;
            for i in 0..p {
                let ops = self.setup_ops(bw, p, group);
                prog.rank(i).ops.extend(ops);
            }
            Replayer::new(machine.clone())
                .run(&prog)
                .expect("setup")
                .makespan()
        };
        let prog = self.build_program(p, machine, steps, true);
        let mut breakdown = PhaseBreakdown::new(N_DETAILED_PHASES);
        let out = Replayer::new(machine.clone())
            .run_probed(&prog, &mut breakdown)
            .expect("pressure trace must replay");
        let per_step = (out.makespan() - setup_time) / steps as f64;
        (per_step, setup_time, breakdown)
    }

    /// Virtual runtime of one timestep at `p` ranks.
    pub fn per_step_runtime(&self, p: usize, machine: &Machine) -> f64 {
        self.profile(p, machine, 4).0
    }

    /// Virtual runtime of the configured full run (setup + steps).
    pub fn standalone_runtime(&self, p: usize, machine: &Machine) -> f64 {
        let (step, setup, _) = self.profile(p, machine, 4);
        setup + step * self.config.timesteps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PressureConfig;

    fn base_28m() -> PressureTraceModel {
        PressureTraceModel::new(PressureConfig::swirl_28m())
    }

    fn pe(model: &PressureTraceModel, p0: usize, p: usize) -> f64 {
        let m = Machine::archer2();
        let t0 = model.per_step_runtime(p0, &m);
        let t = model.per_step_runtime(p, &m);
        (t0 * p0 as f64) / (t * p as f64)
    }

    #[test]
    fn fig5a_phase_shares_at_2048() {
        let m = Machine::archer2();
        let (step, _, ph) = base_28m().profile(2048, &m, 4);
        let total = step * 4.0;
        let share = |phase: PressurePhase| {
            let id = phase.id() as usize;
            let n = 2048.0;
            (
                ph.compute[id].iter().sum::<f64>() / n / total,
                ph.comm[id].iter().sum::<f64>() / n / total,
            )
        };
        let (pf_comp, pf_comm) = share(PressurePhase::PressureField);
        // Paper: 46% total (25% compute, 21% comm).
        assert!(
            (0.38..0.55).contains(&(pf_comp + pf_comm)),
            "pressure field share {}",
            pf_comp + pf_comm
        );
        assert!((0.17..0.33).contains(&pf_comp), "pf compute {pf_comp}");
        assert!((0.13..0.29).contains(&pf_comm), "pf comm {pf_comm}");
        // Spray: next most consuming, ~96% of its time in comm.
        let (sp_comp, sp_comm) = share(PressurePhase::Spray);
        let spray_total = sp_comp + sp_comm;
        assert!(
            (0.12..0.35).contains(&spray_total),
            "spray share {spray_total}"
        );
        let spray_comm_frac = sp_comm / spray_total;
        assert!(
            (0.90..0.995).contains(&spray_comm_frac),
            "spray comm fraction {spray_comm_frac}"
        );
        // Transport phases are minor individually.
        let (v_comp, v_comm) = share(PressurePhase::Velocity);
        assert!(v_comp + v_comm < 0.2);
    }

    #[test]
    fn detailed_profile_matches_coarse_timings() {
        // Phase markers are free in the replayer, so the detailed
        // program must cost exactly the same as the coarse one.
        let m = Machine::archer2();
        let model = base_28m();
        let (step_c, setup_c, _) = model.profile(256, &m, 2);
        let (step_d, setup_d, ph) = model.profile_detailed(256, &m, 2);
        assert_eq!(step_c, step_d);
        assert_eq!(setup_c, setup_d);
        // Each PF sub-phase is individually visible at multi-rank scale.
        for sub in PfSubPhase::ALL {
            let id = sub.id() as usize;
            assert!(ph.elapsed(id) > 0.0, "{} carries no time", sub.name());
        }
    }

    #[test]
    fn solver_pe_knee_near_3000() {
        // Fig 4b: the 28M case drops below 50% PE around 3,000 cores.
        let m = base_28m();
        let e2048 = pe(&m, 128, 2048);
        let e4500 = pe(&m, 128, 4500);
        assert!(e2048 > 0.5, "PE at 2048 = {e2048}");
        assert!(e4500 < 0.5, "PE at 4500 = {e4500}");
    }

    #[test]
    fn spray_elapsed_nearly_flat_beyond_256() {
        // Fig 5b: spray PE < 50% at ~256 cores, collapsing thereafter —
        // its elapsed time barely shrinks with more ranks.
        let m = Machine::archer2();
        let elapsed = |p: usize| {
            let (_, _, ph) = base_28m().profile(p, &m, 2);
            ph.elapsed(PressurePhase::Spray.id() as usize)
        };
        let e128 = elapsed(128);
        let e512 = elapsed(512);
        let e2048 = elapsed(2048);
        assert!(
            e512 > 0.55 * e128,
            "spray must stop scaling: {e512} vs {e128}"
        );
        assert!(e2048 > 0.6 * e512);
        // Spray PE at 512 vs 128 is then below 50% (4x ranks, <2x faster).
        let spray_pe = (e128 * 128.0) / (e512 * 512.0);
        assert!(spray_pe < 0.5, "spray PE at 512 = {spray_pe}");
    }

    #[test]
    fn transport_phases_scale_well() {
        let m = Machine::archer2();
        let elapsed = |p: usize| {
            let (_, _, ph) = base_28m().profile(p, &m, 2);
            ph.elapsed(PressurePhase::Velocity.id() as usize)
        };
        let pe_vel = (elapsed(128) * 128.0) / (elapsed(2048) * 2048.0);
        assert!(pe_vel > 0.8, "velocity PE 128→2048 = {pe_vel}");
    }

    #[test]
    fn serial_runtime_matches_simpic_proxy() {
        // Fig 3/4 calibration anchor: the 28M pressure case and its
        // SIMPIC proxy agree on serial per-(pressure)step runtime.
        let machine = Machine::archer2();
        let pressure = base_28m().per_step_runtime(1, &machine);
        let simpic = cpx_simpic::SimpicTraceModel::new(cpx_simpic::SimpicConfig::base_28m())
            .per_pressure_step_runtime(1, &machine);
        let err = (pressure - simpic).abs() / pressure;
        // The proxy is calibrated against the *measured* range
        // (128–4096 cores, see `simpic_tracks_pressure_within_paper_error`);
        // the serial extrapolations agree to within the paper's worst
        // case.
        assert!(
            err < 0.22,
            "serial mismatch {err:.2}: pressure {pressure} vs simpic {simpic}"
        );
    }

    #[test]
    fn simpic_tracks_pressure_within_paper_error() {
        // Fig 4: max error ≤ ~22%, mean < ~9% over the measured range.
        let machine = Machine::archer2();
        let pm = base_28m();
        let sm = cpx_simpic::SimpicTraceModel::new(cpx_simpic::SimpicConfig::base_28m());
        let mut errs = Vec::new();
        for p in [128usize, 256, 512, 1024, 2048, 4096] {
            let tp = pm.per_step_runtime(p, &machine);
            let ts = sm.per_pressure_step_runtime(p, &machine);
            errs.push((tp - ts).abs() / tp);
        }
        let max = errs.iter().copied().fold(0.0, f64::max);
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(max < 0.30, "max error {max:.2} ({errs:?})");
        assert!(mean < 0.15, "mean error {mean:.2}");
    }

    #[test]
    fn optimized_variant_faster_and_scales_further() {
        let machine = Machine::archer2();
        let base = base_28m();
        let opt = PressureTraceModel::new(PressureConfig::swirl_28m().optimized());
        let p = 2048;
        let tb = base.per_step_runtime(p, &machine);
        let to = opt.per_step_runtime(p, &machine);
        assert!(to < tb / 2.0, "optimized {to} vs base {tb}");
        // Fig 6a: optimized PE curve sits above the base curve.
        let eb = pe(&base, 128, 4096);
        let eo = pe(&opt, 128, 4096);
        assert!(eo > eb, "optimized PE {eo} vs base {eb}");
        assert!(eo > 0.5, "optimized PE at 4096 = {eo}");
    }

    #[test]
    fn bigger_case_scales_further() {
        let base84 = PressureTraceModel::new(PressureConfig::swirl_84m());
        let e84 = pe(&base84, 128, 4096);
        let e28 = pe(&base_28m(), 128, 4096);
        assert!(e84 > e28, "84M {e84} vs 28M {e28}");
    }

    #[test]
    fn setup_cost_grows_relative_at_scale() {
        let machine = Machine::archer2();
        let model = PressureTraceModel::new(PressureConfig::full_380m());
        let ratio = |p: usize| {
            let (step, setup, _) = model.profile(p, &machine, 2);
            setup / step
        };
        assert!(ratio(16_384) > ratio(1024));
    }

    #[test]
    fn phases_all_ids_unique() {
        let mut seen = std::collections::HashSet::new();
        for ph in PressurePhase::ALL {
            assert!(seen.insert(ph.id()));
            assert!(!ph.name().is_empty());
        }
    }
}
