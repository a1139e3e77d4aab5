//! The `coupled-step` workload: real numerics, serial. Two MG-CFD
//! annulus sectors coupled through a sliding-plane `CouplerUnit`, the
//! mini pressure solver (field half, then spray half, as `run_stc`'s
//! synchronous organisation runs them) and a SIMPIC `Pic1D` taking two
//! steps per density step. No DES runs.

use std::f64::consts::TAU;
use std::time::Instant;

use cpx_coupler::unit::{CouplerUnit, UnitKind};
use cpx_mesh::{annulus_sector, sliding_plane_pair, MeshHierarchy};
use cpx_mgcfd::EulerSolver;
use cpx_pressure::solver::MiniPressureSolver;
use cpx_pressure::spray::SprayCloud;
use cpx_simpic::{Pic1D, SimpicConfig};

use crate::checks::Checks;
use crate::spans::Tracer;
use crate::{Counts, Workload};

/// Projection must leave interior divergence below this (the pressure
/// solver's own test tolerance for `rtol = 1e-10`).
const DIVERGENCE_TOL: f64 = 1e-6;
/// MG-CFD conserves mass to roundoff.
const MASS_DRIFT_TOL: f64 = 1e-12;
/// Transferred densities stay near the ρ ≈ 1 background.
const DENSITY_RANGE: std::ops::Range<f64> = 0.5..2.0;
/// Pressure-solver timestep.
const DT: f64 = 0.01;
/// Multigrid smoothing sweeps per coarse level (`MgCfdConfig` default).
const MG_SWEEPS: usize = 2;

/// Problem sizes of one coupled step.
#[derive(Debug, Clone)]
pub struct CoupledSpec {
    /// Cells per MG-CFD sector (axial, radial, azimuthal).
    pub sector: [usize; 3],
    /// MG-CFD multigrid levels.
    pub mg_levels: usize,
    /// Sliding-plane steps per revolution.
    pub steps_per_rev: u32,
    /// Pressure grid points per axis.
    pub pressure_n: usize,
    /// Spray droplets.
    pub droplets: usize,
    /// SIMPIC cells (100 particles per cell, the Base-STC ratio).
    pub pic_cells: usize,
    /// Density steps per pass; every pass starts from a fresh set-up.
    pub steps_per_pass: usize,
}

impl CoupledSpec {
    /// The benchmark size: 12,288 interface points, 3 MG levels,
    /// pressure n=24 with 100k droplets, SIMPIC 4,096 cells × 100 ppc.
    pub const FULL: CoupledSpec = CoupledSpec {
        sector: [4, 32, 384],
        mg_levels: 3,
        steps_per_rev: 96,
        pressure_n: 24,
        droplets: 100_000,
        pic_cells: 4096,
        steps_per_pass: 25,
    };

    /// Smoke size for the benchmark's own tests.
    pub const SMOKE: CoupledSpec = CoupledSpec {
        sector: [2, 8, 48],
        mg_levels: 2,
        steps_per_rev: 24,
        pressure_n: 8,
        droplets: 2000,
        pic_cells: 256,
        steps_per_pass: 25,
    };
}

struct State {
    a: EulerSolver,
    b: EulerSolver,
    mass0: [f64; 2],
    unit: CouplerUnit,
    pressure: MiniPressureSolver,
    pcg_iters: u64,
    pic: Pic1D,
}

/// The coupled-step workload.
pub struct CoupledWorkload {
    spec: CoupledSpec,
    seed: u64,
    state: Option<State>,
}

impl CoupledWorkload {
    /// The workload at `spec`, with inputs generated from `seed`.
    pub fn new(spec: CoupledSpec, seed: u64) -> CoupledWorkload {
        CoupledWorkload {
            spec,
            seed,
            state: None,
        }
    }
}

impl Workload for CoupledWorkload {
    fn setup(&mut self, tr: &mut Tracer) -> f64 {
        self.state = None;
        let s = &self.spec;
        let [na, nr, nt] = s.sector;
        // Seeded inputs: the pulse amplitude, the spray cloud and the
        // PIC jitter and Langmuir displacement.
        let (u1, u2) = (unit_interval(self.seed, 1), unit_interval(self.seed, 2));
        let t0 = Instant::now();
        let mesh_a = annulus_sector(na, nr, nt, 1.0, 2.0, 0.0, 1.0, TAU);
        let mesh_b = annulus_sector(na, nr, nt, 1.0, 2.0, 1.0, 1.0, TAU);
        let (iface_a, iface_b) = sliding_plane_pair(&mesh_a, &mesh_b);
        let amplitude = 0.03 + 0.04 * u1;
        let a = EulerSolver::acoustic_pulse(MeshHierarchy::build(mesh_a, s.mg_levels), amplitude);
        let b = EulerSolver::acoustic_pulse(MeshHierarchy::build(mesh_b, s.mg_levels), amplitude);
        let mut pressure = tr.span("amg.setup", |_| {
            MiniPressureSolver::new(s.pressure_n, 0, self.seed)
        });
        pressure.spray = SprayCloud::inject(s.droplets, self.seed);
        let pic_cfg = SimpicConfig::base_28m().functional(s.pic_cells, 2 * s.steps_per_pass);
        let pic = Pic1D::quiet_start(&pic_cfg, 0.01 + 0.02 * u2, self.seed);
        let unit = CouplerUnit::new(
            UnitKind::SlidingPlane {
                steps_per_rev: s.steps_per_rev,
            },
            iface_a,
            iface_b,
        );
        let setup_s = t0.elapsed().as_secs_f64();
        self.state = Some(State {
            mass0: [a.total_mass(), b.total_mass()],
            a,
            b,
            unit,
            pressure,
            pcg_iters: 0,
            pic,
        });
        setup_s
    }

    fn pipeline(&mut self, tr: &mut Tracer, ck: &mut Checks) -> Vec<f64> {
        let st = self.state.as_mut().expect("set up before the pipeline");
        let mut steps = Vec::with_capacity(self.spec.steps_per_pass);
        for step in 0..self.spec.steps_per_pass {
            let t0 = Instant::now();
            tr.span("mgcfd.euler.mg_cycle", |_| st.a.mg_cycle(MG_SWEEPS));
            tr.span("mgcfd.euler.mg_cycle", |_| st.b.mg_cycle(MG_SWEEPS));
            let field_a: Vec<f64> = st
                .unit
                .side_a
                .cells
                .iter()
                .map(|&c| st.a.state[c][0])
                .collect();
            tr.span("coupler.unit.step", |_| st.unit.step());
            let field_b = tr.span("coupler.unit.transfer", |_| st.unit.transfer(&field_a));
            // The spray reads the field as it stood at the step's fence
            // while the solver advances it.
            let p = &mut st.pressure;
            let (n, field) = (p.n, p.u.clone());
            tr.span("pressure.spray", |_| {
                p.spray.update(DT, |x| {
                    let cell = |v: f64| ((v * n as f64) as usize).min(n - 1);
                    field[(cell(x[0]) * n + cell(x[1])) * n + cell(x[2])]
                })
            });
            tr.span("pressure.field", |_| p.advance_field(DT));
            st.pcg_iters += p.last_pressure_iters as u64;
            tr.span("simpic.pic.step", |_| st.pic.step());
            tr.span("simpic.pic.step", |_| st.pic.step());
            steps.push(t0.elapsed().as_secs_f64());

            let div = p.interior_divergence_norm();
            ck.check(div < DIVERGENCE_TOL, || {
                format!("step {step}: interior divergence {div:e} ≥ {DIVERGENCE_TOL:e}")
            });
            let bad = field_b.iter().find(|v| !DENSITY_RANGE.contains(v));
            ck.check(bad.is_none(), || {
                format!("step {step}: transferred density {bad:?} outside {DENSITY_RANGE:?}")
            });
        }
        steps
    }

    fn check(&mut self, ck: &mut Checks, counts: &mut Counts) {
        let st = self.state.as_ref().expect("pipeline ran");
        let s = &self.spec;
        for (name, solver, m0) in [("A", &st.a, st.mass0[0]), ("B", &st.b, st.mass0[1])] {
            let drift = (solver.total_mass() - m0).abs() / m0;
            ck.check(drift < MASS_DRIFT_TOL, || {
                format!("MG-CFD sector {name}: relative mass drift {drift:e}")
            });
            ck.check(solver.is_physical(), || {
                format!("MG-CFD sector {name}: unphysical state")
            });
        }
        let pic = &st.pic;
        let n = s.pic_cells * SimpicConfig::base_28m().particles_per_cell;
        let inside = pic
            .particles
            .iter()
            .all(|q| (0.0..=pic.length).contains(&q.x));
        ck.check(pic.particles.len() == n && inside, || {
            format!(
                "SIMPIC holds {} particles (in domain: {inside}), expected {n}",
                pic.particles.len()
            )
        });

        let k = s.steps_per_pass as u64;
        let spray = st.pressure.spray.update_counts();
        let push = pic.push_counts();
        counts.insert(
            "mgcfd.cells",
            (st.a.mesh().n_cells() + st.b.mesh().n_cells()) as u64,
        );
        counts.insert("coupler.unit.remaps", st.unit.remaps);
        counts.insert("amg.pcg_iters", st.pcg_iters);
        counts.insert(
            "pressure.spray.bytes",
            k * (spray.bytes_read + spray.bytes_written) as u64,
        );
        counts.insert("simpic.push.flops", 2 * k * push.flops as u64);
    }
}

/// A seeded value in `[0, 1)` (splitmix64 of `seed` and a stream id).
fn unit_interval(seed: u64, stream: u64) -> f64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}
