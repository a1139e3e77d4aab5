//! A functional miniature of the pressure solver.
//!
//! One timestep follows the production loop (Fig 2): an explicit
//! velocity update, a **pressure projection** whose Poisson solve uses
//! the same AMG-preconditioned CG machinery as the production code
//! (`cpx-amg`), and the Lagrangian spray update. The discrete operators
//! are chosen compatibly (backward-difference divergence,
//! forward-difference gradient ⇒ their composition is exactly the
//! 7-point Laplacian), so projection annihilates interior divergence to
//! solver tolerance — the correctness invariant the tests pin.

use cpx_amg::{pcg_with, CgConfig, CycleType, Hierarchy, HierarchyConfig, Preconditioner};
use cpx_sparse::spgemm::GalerkinWorkspace;
use cpx_sparse::{Csr, KernelPolicy, LayoutMatrix};

use crate::spray::SprayCloud;

/// The miniature solver state on an `n³` unit box (unit grid spacing in
/// index space).
pub struct MiniPressureSolver {
    /// Grid dimension per axis.
    pub n: usize,
    /// Cell-centred velocity.
    pub u: Vec<[f64; 3]>,
    /// The Poisson operator and its AMG hierarchy.
    hierarchy: Hierarchy,
    a: LayoutMatrix,
    /// Kernel execution policy threaded through the pressure solve.
    policy: KernelPolicy,
    /// The spray cloud.
    pub spray: SprayCloud,
    /// Iterations used by the last pressure solve.
    pub last_pressure_iters: usize,
}

impl MiniPressureSolver {
    /// Initialise with a swirling velocity field and an injected cloud.
    pub fn new(n: usize, droplets: usize, seed: u64) -> MiniPressureSolver {
        MiniPressureSolver::new_with_policy(n, droplets, seed, KernelPolicy::current())
    }

    /// [`MiniPressureSolver::new`] with an explicit kernel policy: the
    /// AMG hierarchy, its cycles and the CG matvec all dispatch
    /// through it (a SELL layout prepares views at build time).
    /// Every policy computes bit-identical fields.
    pub fn new_with_policy(
        n: usize,
        droplets: usize,
        seed: u64,
        policy: KernelPolicy,
    ) -> MiniPressureSolver {
        assert!(n >= 4);
        let a = Csr::poisson3d(n, n, n);
        let mut ws = GalerkinWorkspace::new();
        let hierarchy =
            Hierarchy::build_with(a.clone(), HierarchyConfig::default(), policy, &mut ws);
        let a = LayoutMatrix::new(a, &policy);
        let idx = |i: usize, j: usize, k: usize| (i * n + j) * n + k;
        let mut u = vec![[0.0; 3]; n * n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (x, y) = ((i as f64 + 0.5) / n as f64, (j as f64 + 0.5) / n as f64);
                    // A compressing axial stream plus a swirl —
                    // deliberately not divergence-free (u_x varies
                    // along x).
                    u[idx(i, j, k)] = [
                        1.0 + 0.3 * (std::f64::consts::TAU * x).sin(),
                        0.4 * (std::f64::consts::TAU * x).sin(),
                        0.2 * (std::f64::consts::TAU * (x + y)).cos(),
                    ];
                }
            }
        }
        MiniPressureSolver {
            n,
            u,
            hierarchy,
            a,
            policy,
            spray: SprayCloud::inject(droplets, seed),
            last_pressure_iters: 0,
        }
    }

    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.n + j) * self.n + k
    }

    /// Backward-difference divergence (walls contribute zero velocity).
    pub fn divergence(&self) -> Vec<f64> {
        let n = self.n;
        let mut div = vec![0.0; n * n * n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let c = self.idx(i, j, k);
                    let mut d = 0.0;
                    d += self.u[c][0]
                        - if i > 0 {
                            self.u[self.idx(i - 1, j, k)][0]
                        } else {
                            0.0
                        };
                    d += self.u[c][1]
                        - if j > 0 {
                            self.u[self.idx(i, j - 1, k)][1]
                        } else {
                            0.0
                        };
                    d += self.u[c][2]
                        - if k > 0 {
                            self.u[self.idx(i, j, k - 1)][2]
                        } else {
                            0.0
                        };
                    div[c] = d;
                }
            }
        }
        div
    }

    /// Infinity norm of the divergence over interior cells.
    pub fn interior_divergence_norm(&self) -> f64 {
        let n = self.n;
        let div = self.divergence();
        let mut worst: f64 = 0.0;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    worst = worst.max(div[self.idx(i, j, k)].abs());
                }
            }
        }
        worst
    }

    /// Project the velocity onto (discretely) divergence-free space:
    /// solve `−∇²p = −div` and subtract the forward-difference gradient.
    pub fn project(&mut self) {
        let div = self.divergence();
        let rhs: Vec<f64> = div.iter().map(|d| -d).collect();
        let mut p = vec![0.0; rhs.len()];
        let out = pcg_with(
            self.a.as_ref(),
            &self.policy,
            &rhs,
            &mut p,
            &Preconditioner::Amg {
                hierarchy: &self.hierarchy,
                cycle: CycleType::V,
            },
            CgConfig {
                rtol: 1e-10,
                max_iters: 200,
            },
        );
        self.last_pressure_iters = out.iters;
        let n = self.n;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let c = self.idx(i, j, k);
                    let grad = [
                        if i + 1 < n {
                            p[self.idx(i + 1, j, k)] - p[c]
                        } else {
                            0.0
                        },
                        if j + 1 < n {
                            p[self.idx(i, j + 1, k)] - p[c]
                        } else {
                            0.0
                        },
                        if k + 1 < n {
                            p[self.idx(i, j, k + 1)] - p[c]
                        } else {
                            0.0
                        },
                    ];
                    for d in 0..3 {
                        self.u[c][d] -= grad[d];
                    }
                }
            }
        }
    }

    /// One full timestep: explicit velocity relaxation, projection,
    /// spray update.
    pub fn step(&mut self, dt: f64) {
        self.advance_field(dt);
        // Spray sees the projected carrier field.
        let n_cells = self.n;
        let u_snapshot = self.u.clone();
        let idx = move |i: usize, j: usize, k: usize| (i * n_cells + j) * n_cells + k;
        self.spray.update(dt, move |x| {
            let cell = |v: f64| ((v * n_cells as f64) as usize).min(n_cells - 1);
            u_snapshot[idx(cell(x[0]), cell(x[1]), cell(x[2]))]
        });
    }

    /// The solver half of a timestep: explicit velocity relaxation and
    /// the pressure projection, leaving the spray untouched (the
    /// task-based STC split runs this concurrently with the spray).
    pub fn advance_field(&mut self, dt: f64) {
        // Mild explicit diffusion of the velocity (keeps the field
        // evolving so repeated projections have work to do).
        let n = self.n;
        let mut u_new = self.u.clone();
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    let c = self.idx(i, j, k);
                    for d in 0..3 {
                        let lap = self.u[self.idx(i - 1, j, k)][d]
                            + self.u[self.idx(i + 1, j, k)][d]
                            + self.u[self.idx(i, j - 1, k)][d]
                            + self.u[self.idx(i, j + 1, k)][d]
                            + self.u[self.idx(i, j, k - 1)][d]
                            + self.u[self.idx(i, j, k + 1)][d]
                            - 6.0 * self.u[c][d];
                        u_new[c][d] = self.u[c][d] + 0.1 * dt * lap;
                    }
                }
            }
        }
        self.u = u_new;
        self.project();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_kills_interior_divergence() {
        let mut s = MiniPressureSolver::new(10, 1000, 1);
        let before = s.interior_divergence_norm();
        assert!(before > 0.01, "initial field should be divergent: {before}");
        s.project();
        let after = s.interior_divergence_norm();
        assert!(
            after < 1e-6,
            "projection left divergence {after} (was {before})"
        );
    }

    #[test]
    fn amg_pcg_converges_quickly() {
        let mut s = MiniPressureSolver::new(12, 100, 2);
        s.project();
        assert!(
            s.last_pressure_iters <= 25,
            "pressure solve took {} iterations",
            s.last_pressure_iters
        );
        assert!(s.last_pressure_iters >= 1);
    }

    #[test]
    fn repeated_steps_stay_divergence_free_and_bounded() {
        let mut s = MiniPressureSolver::new(8, 2000, 3);
        for _ in 0..5 {
            s.step(0.01);
            assert!(s.interior_divergence_norm() < 1e-6);
        }
        // Velocity stays bounded.
        let max_u =
            s.u.iter()
                .flat_map(|v| v.iter())
                .fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_u < 10.0, "velocity blew up: {max_u}");
    }

    #[test]
    fn spray_rides_the_flow() {
        let mut s = MiniPressureSolver::new(8, 3000, 4);
        let mean_x_before: f64 =
            s.spray.pos.iter().map(|p| p[0]).sum::<f64>() / s.spray.pos.len() as f64;
        for _ in 0..10 {
            s.step(0.02);
        }
        let mean_x_after: f64 =
            s.spray.pos.iter().map(|p| p[0]).sum::<f64>() / s.spray.pos.len() as f64;
        // The axial stream carries droplets downstream.
        assert!(
            mean_x_after > mean_x_before + 0.01,
            "{mean_x_before} -> {mean_x_after}"
        );
        assert_eq!(s.spray.pos.len(), 3000);
    }
}
