//! Base-case scaling (the preamble of Algorithm 1).
//!
//! Mini-apps are benchmarked once on a *base case* (e.g. MG-CFD on an
//! 8M mesh for 25 timesteps). An instance in the coupled run is then
//! modelled by scaling the fitted base curve by its mesh size and
//! iteration count: a 24M-cell instance running 250 timesteps costs
//! `(24/8)·(250/25) = 30×` the base case — exactly the paper's example.

use crate::curve::RuntimeCurve;

/// The model of one instance (solver or coupler unit) in a coupled run.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceModel {
    /// Display name.
    pub name: String,
    /// Fitted base-case runtime curve.
    pub curve: RuntimeCurve,
    /// Base-case problem size (cells / interface points).
    pub base_size: f64,
    /// Base-case iteration count.
    pub base_iters: f64,
    /// This instance's problem size.
    pub size: f64,
    /// This instance's iteration count over the coupled window.
    pub iters: f64,
    /// Minimum ranks the allocator may assign (the paper starts at 100
    /// for solver instances on the large case).
    pub min_ranks: usize,
}

impl InstanceModel {
    /// Construct, validating the scaling inputs.
    pub fn new(
        name: &str,
        curve: RuntimeCurve,
        base_size: f64,
        base_iters: f64,
        size: f64,
        iters: f64,
        min_ranks: usize,
    ) -> InstanceModel {
        assert!(base_size > 0.0 && base_iters > 0.0 && size > 0.0 && iters > 0.0);
        assert!(min_ranks >= 1);
        InstanceModel {
            name: name.to_string(),
            curve,
            base_size,
            base_iters,
            size,
            iters,
            min_ranks,
        }
    }

    /// The Alg 1 scale factor `(size/base_size)·(iters/base_iters)`.
    pub fn scale_factor(&self) -> f64 {
        (self.size / self.base_size) * (self.iters / self.base_iters)
    }

    /// Predicted runtime at `p` ranks.
    pub fn predicted_time(&self, p: usize) -> f64 {
        self.curve.predict(p) * self.scale_factor()
    }

    /// Runtime reduction from one additional rank at `p`.
    pub fn marginal_gain(&self, p: usize) -> f64 {
        self.predicted_time(p) - self.predicted_time(p + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_curve(a: f64) -> RuntimeCurve {
        RuntimeCurve {
            a,
            b: 0.0,
            c: 0.0,
            d: 0.0,
        }
    }

    #[test]
    fn paper_example_30x() {
        // 8M/25-step base; instance 24M cells, 250 steps → 30×.
        let m = InstanceModel::new("mgcfd", ideal_curve(100.0), 8e6, 25.0, 24e6, 250.0, 1);
        assert!((m.scale_factor() - 30.0).abs() < 1e-12);
        assert!((m.predicted_time(10) - 300.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_gain_positive_for_scaling_instance() {
        let m = InstanceModel::new("x", ideal_curve(100.0), 1.0, 1.0, 1.0, 1.0, 1);
        assert!(m.marginal_gain(10) > 0.0);
        assert!(m.marginal_gain(10) > m.marginal_gain(100));
    }

    #[test]
    fn marginal_gain_negative_past_sweet_spot() {
        let m = InstanceModel::new(
            "x",
            RuntimeCurve {
                a: 10.0,
                b: 0.0,
                c: 0.0,
                d: 1.0,
            },
            1.0,
            1.0,
            1.0,
            1.0,
            1,
        );
        // Sweet spot ≈ √10 ≈ 3; beyond it more ranks hurt.
        assert!(m.marginal_gain(10) < 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_size() {
        InstanceModel::new("x", ideal_curve(1.0), 1.0, 1.0, 0.0, 1.0, 1);
    }
}
