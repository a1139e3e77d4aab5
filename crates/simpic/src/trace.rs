//! SIMPIC scale model for the virtual testbed.
//!
//! The limiter that shapes SIMPIC's parallel-efficiency curve — and
//! makes it such a good pressure-solver proxy — is the field solve's
//! pipelined sweep across the rank chain: its cost grows linearly with
//! rank count while the particle work shrinks as `1/p`, so efficiency
//! collapses past `p* ≈ √(particle_work / chain_coefficient)`. That is
//! exactly why Fig 3's calibration controls the efficiency knee through
//! *particles per cell*: 18× the particles (28M → 380M proxy) moves the
//! knee out by ≈ √18 ≈ 4×.
//!
//! The sweep is emitted honestly as a serialized message chain (forward
//! and backward passes), amortized over [`CHAIN_INTERVAL`] steps — the
//! mini-app batches field solves against particle work, as the real
//! code overlaps its pipeline.

use cpx_machine::{CollectiveKind, KernelCost, Machine, Op, Replayer, TraceProgram};

use crate::config::SimpicConfig;

/// FLOPs per particle per step (gather + push + deposit).
pub const PARTICLE_FLOPS: f64 = 69.0;
/// Memory traffic per particle per step.
pub const PARTICLE_BYTES: f64 = 110.0;
/// FLOPs per grid cell per step (field arithmetic).
pub const CELL_FLOPS: f64 = 30.0;
/// Memory traffic per grid cell per step.
pub const CELL_BYTES: f64 = 48.0;
/// Steps between full pipelined field sweeps.
pub const CHAIN_INTERVAL: u32 = 4;
/// Bytes of the per-step neighbour (guard cell + migration) exchange.
const NEIGHBOR_BYTES: usize = 1536;

/// The trace/cost model of one SIMPIC instance.
#[derive(Debug, Clone)]
pub struct SimpicTraceModel {
    /// Instance configuration (a Fig 3 calibration case).
    pub config: SimpicConfig,
}

impl SimpicTraceModel {
    /// Model for `config`.
    pub fn new(config: SimpicConfig) -> SimpicTraceModel {
        SimpicTraceModel { config }
    }

    /// The Fig 3 Base-STC configuration proxying a pressure-solver mesh
    /// of `pressure_cells` cells (28M/84M/380M rows of the table).
    pub fn for_pressure_mesh(pressure_cells: f64) -> SimpicTraceModel {
        let config = if pressure_cells <= 30.0e6 {
            SimpicConfig::base_28m()
        } else if pressure_cells <= 100.0e6 {
            SimpicConfig::base_84m()
        } else {
            SimpicConfig::base_380m()
        };
        SimpicTraceModel::new(config)
    }

    /// Per-step, per-rank compute cost at `p` ranks.
    fn step_compute(&self, p: usize) -> KernelCost {
        let particles = self.config.total_particles() / p as f64;
        let cells = self.config.cells as f64 / p as f64;
        KernelCost::new(
            particles * PARTICLE_FLOPS + cells * CELL_FLOPS,
            particles * PARTICLE_BYTES + cells * CELL_BYTES,
        )
    }

    /// Ops of one ordinary step for group-index `i` of `p`.
    fn step_ops(&self, i: usize, p: usize, ranks: &[usize], group: usize) -> Vec<Op> {
        let mut ops = vec![Op::Compute(self.step_compute(p))];
        if p > 1 {
            const TAG: u32 = 200;
            // Guard-cell / migration exchange with both neighbours.
            if i > 0 {
                ops.push(Op::Send {
                    dst: ranks[i - 1],
                    bytes: NEIGHBOR_BYTES,
                    tag: TAG,
                });
            }
            if i + 1 < p {
                ops.push(Op::Send {
                    dst: ranks[i + 1],
                    bytes: NEIGHBOR_BYTES,
                    tag: TAG,
                });
            }
            if i > 0 {
                ops.push(Op::Recv {
                    src: ranks[i - 1],
                    tag: TAG,
                });
            }
            if i + 1 < p {
                ops.push(Op::Recv {
                    src: ranks[i + 1],
                    tag: TAG,
                });
            }
        }
        // Diagnostics / solve normalization.
        ops.push(Op::Collective {
            kind: CollectiveKind::Allreduce,
            group,
            bytes: 8,
        });
        ops
    }

    /// Ops of the pipelined field sweep (forward + backward pass) for
    /// group-index `i` of `p`.
    fn chain_ops(&self, i: usize, p: usize, ranks: &[usize]) -> Vec<Op> {
        if p <= 1 {
            return vec![Op::Compute(KernelCost::new(
                self.config.cells as f64 * 9.0,
                self.config.cells as f64 * 40.0,
            ))];
        }
        const TF: u32 = 300;
        const TB: u32 = 301;
        let block = self.config.cells as f64 / p as f64;
        // Local block elimination runs in parallel on every rank before
        // the serialized boundary sweep (block-cyclic reduction
        // structure); only a tiny boundary coefficient crosses per hop.
        let block_cost = KernelCost::new(block * 9.0, block * 40.0);
        let hop_cost = KernelCost::new(8.0, 64.0);
        let mut ops = Vec::with_capacity(8);
        ops.push(Op::Compute(block_cost));
        // Forward elimination sweep of the boundary system.
        if i > 0 {
            ops.push(Op::Recv {
                src: ranks[i - 1],
                tag: TF,
            });
        }
        ops.push(Op::Compute(hop_cost));
        if i + 1 < p {
            ops.push(Op::Send {
                dst: ranks[i + 1],
                bytes: 32,
                tag: TF,
            });
        }
        // Backward substitution sweep.
        if i + 1 < p {
            ops.push(Op::Recv {
                src: ranks[i + 1],
                tag: TB,
            });
        }
        ops.push(Op::Compute(hop_cost));
        if i > 0 {
            ops.push(Op::Send {
                dst: ranks[i - 1],
                bytes: 32,
                tag: TB,
            });
        }
        ops
    }

    /// Emit `steps` SIMPIC timesteps for an instance on `ranks` with
    /// collective group `group`. A full pipelined sweep runs every
    /// [`CHAIN_INTERVAL`] steps.
    pub fn emit(&self, program: &mut TraceProgram, ranks: &[usize], group: usize, steps: u32) {
        let p = ranks.len();
        let blocks = steps / CHAIN_INTERVAL;
        let leftover = steps % CHAIN_INTERVAL;
        for (i, &world_rank) in ranks.iter().enumerate() {
            // One block: a sweep followed by CHAIN_INTERVAL plain steps.
            let mut body = Vec::new();
            body.extend(self.chain_ops(i, p, ranks));
            for _ in 0..CHAIN_INTERVAL {
                body.extend(self.step_ops(i, p, ranks, group));
            }
            let trace = program.rank(world_rank);
            if blocks > 0 {
                trace.ops.push(Op::Repeat {
                    count: blocks,
                    body,
                });
            }
            for _ in 0..leftover {
                trace.ops.extend(self.step_ops(i, p, ranks, group));
            }
        }
    }

    /// Standalone virtual runtime of the configured full run at `p`
    /// ranks.
    pub fn standalone_runtime(&self, p: usize, machine: &Machine) -> f64 {
        let sample_steps = 4 * CHAIN_INTERVAL;
        let mut program = TraceProgram::new(p);
        let ranks: Vec<usize> = (0..p).collect();
        let group = program.add_world_group();
        self.emit(&mut program, &ranks, group, sample_steps);
        let out = Replayer::new(machine.clone())
            .run(&program)
            .expect("SIMPIC trace must replay");
        out.makespan() * self.config.timesteps as f64 / sample_steps as f64
    }

    /// Virtual runtime of one SIMPIC timestep at `p` ranks.
    pub fn per_step_runtime(&self, p: usize, machine: &Machine) -> f64 {
        self.standalone_runtime(p, machine) / self.config.timesteps as f64
    }

    /// Virtual runtime per *equivalent pressure-solver timestep*.
    pub fn per_pressure_step_runtime(&self, p: usize, machine: &Machine) -> f64 {
        self.per_step_runtime(p, machine) * self.config.steps_per_pressure_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup(model: &SimpicTraceModel, p_base: usize, p: usize) -> f64 {
        let m = Machine::archer2();
        model.per_step_runtime(p_base, &m) / model.per_step_runtime(p, &m)
    }

    fn pe(model: &SimpicTraceModel, p_base: usize, p: usize) -> f64 {
        speedup(model, p_base, p) * p_base as f64 / p as f64
    }

    #[test]
    fn runtime_positive_and_scales_down() {
        let m = SimpicTraceModel::new(SimpicConfig::base_28m());
        let machine = Machine::archer2();
        let t128 = m.per_step_runtime(128, &machine);
        let t1024 = m.per_step_runtime(1024, &machine);
        assert!(t128 > t1024);
        assert!(t1024 > 0.0);
    }

    #[test]
    fn base_28m_efficiency_knee_near_3000_cores() {
        // Fig 4b: the 28M-cell pressure solver (and its SIMPIC proxy)
        // drops below 50% parallel efficiency around 3,000 cores.
        let m = SimpicTraceModel::new(SimpicConfig::base_28m());
        let e2000 = pe(&m, 128, 2000);
        let e5000 = pe(&m, 128, 5000);
        assert!(e2000 > 0.5, "PE at 2000 = {e2000}");
        assert!(e5000 < 0.5, "PE at 5000 = {e5000}");
    }

    #[test]
    fn base_380m_speedup_about_6x_from_1000_to_10000() {
        // Fig 4c: 1,000→10,000 cores gives a maximum speedup ≈ 6×
        // (PE approaching 50%).
        let m = SimpicTraceModel::new(SimpicConfig::base_380m());
        let s = speedup(&m, 1000, 10_000);
        assert!((4.5..8.0).contains(&s), "speedup 1k→10k = {s}");
    }

    #[test]
    fn more_particles_per_cell_scale_better() {
        // Fig 3/4: the 84M and 380M proxies (300/1800 ppc) hold
        // efficiency further than the 28M proxy (100 ppc).
        let p = 4000;
        let e28 = pe(&SimpicTraceModel::new(SimpicConfig::base_28m()), 128, p);
        let e84 = pe(&SimpicTraceModel::new(SimpicConfig::base_84m()), 128, p);
        let e380 = pe(&SimpicTraceModel::new(SimpicConfig::base_380m()), 128, p);
        assert!(e84 > e28, "84M {e84} vs 28M {e28}");
        assert!(e380 > e84, "380M {e380} vs 84M {e84}");
    }

    #[test]
    fn optimized_stc_efficient_at_32k_ranks() {
        // §V-B: the model predicts 87% parallel efficiency for the
        // Optimized-STC at 32,201 ranks.
        let m = SimpicTraceModel::new(SimpicConfig::optimized_stc());
        let e = pe(&m, 1000, 32_201);
        assert!((0.75..1.01).contains(&e), "Optimized-STC PE at 32k = {e}");
    }

    #[test]
    fn base_stc_knee_near_13k_for_380m() {
        // Fig 9b: the Base-STC SIMPIC instance reaches ~50% PE around
        // 13,428 ranks.
        let m = SimpicTraceModel::new(SimpicConfig::base_380m());
        let e = pe(&m, 128, 13_428);
        assert!((0.3..0.7).contains(&e), "PE at 13,428 = {e}");
    }

    #[test]
    fn for_pressure_mesh_picks_fig3_rows() {
        assert_eq!(
            SimpicTraceModel::for_pressure_mesh(28.0e6).config,
            SimpicConfig::base_28m()
        );
        assert_eq!(
            SimpicTraceModel::for_pressure_mesh(84.0e6).config,
            SimpicConfig::base_84m()
        );
        assert_eq!(
            SimpicTraceModel::for_pressure_mesh(380.0e6).config,
            SimpicConfig::base_380m()
        );
    }

    #[test]
    fn emit_composes_into_shared_program() {
        let mut program = TraceProgram::new(6);
        let g = program.add_group((0..6).collect());
        let m = SimpicTraceModel::new(SimpicConfig::base_28m());
        m.emit(&mut program, &[0, 1, 2, 3, 4, 5], g, 20);
        assert!(program.validate().is_ok());
        let out = Replayer::new(Machine::archer2()).run(&program).unwrap();
        assert!(out.makespan() > 0.0);
    }

    #[test]
    fn single_rank_has_no_messages() {
        let mut program = TraceProgram::new(1);
        let g = program.add_world_group();
        let m = SimpicTraceModel::new(SimpicConfig::base_28m());
        m.emit(&mut program, &[0], g, 16);
        let out = Replayer::new(Machine::archer2()).run(&program).unwrap();
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn pressure_step_equivalence() {
        let m = SimpicTraceModel::new(SimpicConfig::base_28m());
        let machine = Machine::archer2();
        let per_press = m.per_pressure_step_runtime(256, &machine);
        let per_step = m.per_step_runtime(256, &machine);
        assert!((per_press / per_step - 5000.0).abs() < 1.0);
    }
}
