//! Measured thread-scaling curves.
//!
//! The `bench_kernels` binary times each hot kernel across thread
//! counts on real hardware (via `cpx-par`) and emits the medians; this
//! module turns those samples into the same [`RuntimeCurve`] /
//! [`InstanceModel`] machinery Algorithm 1 uses — an *empirical*
//! alternative to the synthetic efficiency curves, closing the paper's
//! loop from code optimisation to predictive model (§V).

use crate::curve::RuntimeCurve;
use crate::scale::InstanceModel;

/// Measured `(threads, median_seconds)` samples for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredScaling {
    /// Kernel name (e.g. `"spmv"`).
    pub name: String,
    /// Samples in ascending thread order; the first entry is the
    /// baseline every speedup/efficiency is relative to.
    pub samples: Vec<(usize, f64)>,
}

impl MeasuredScaling {
    /// Construct, validating the samples: at least two, ascending
    /// distinct thread counts, positive times.
    pub fn new(name: &str, samples: Vec<(usize, f64)>) -> MeasuredScaling {
        assert!(samples.len() >= 2, "need at least two samples");
        assert!(
            samples.windows(2).all(|w| w[0].0 < w[1].0),
            "thread counts must be ascending and distinct"
        );
        assert!(
            samples.iter().all(|&(p, t)| p >= 1 && t > 0.0),
            "samples must have threads >= 1, t > 0"
        );
        MeasuredScaling {
            name: name.to_string(),
            samples,
        }
    }

    /// Speedup of each sample relative to the first (baseline) sample.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        let base = self.samples[0].1;
        self.samples.iter().map(|&(p, t)| (p, base / t)).collect()
    }

    /// Parallel efficiency of each sample relative to the baseline:
    /// `speedup · base_threads / threads`.
    pub fn efficiencies(&self) -> Vec<(usize, f64)> {
        let (p0, t0) = self.samples[0];
        self.samples
            .iter()
            .map(|&(p, t)| (p, (t0 / t) * p0 as f64 / p as f64))
            .collect()
    }

    /// Fit the four-term strong-scaling model to the measured samples.
    pub fn fit_curve(&self) -> RuntimeCurve {
        RuntimeCurve::fit(&self.samples)
    }

    /// Wrap the measured curve as an [`InstanceModel`] so the allocator
    /// can weigh this kernel against the synthetic-curve instances.
    pub fn instance_model(
        &self,
        base_size: f64,
        base_iters: f64,
        size: f64,
        iters: f64,
        min_ranks: usize,
    ) -> InstanceModel {
        InstanceModel::new(
            &self.name,
            self.fit_curve(),
            base_size,
            base_iters,
            size,
            iters,
            min_ranks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near_ideal() -> MeasuredScaling {
        MeasuredScaling::new("spmv", vec![(1, 1.0), (2, 0.52), (4, 0.28), (8, 0.16)])
    }

    #[test]
    fn speedups_relative_to_baseline() {
        let m = near_ideal();
        let s = m.speedups();
        assert_eq!(s[0], (1, 1.0));
        assert!((s[2].1 - 1.0 / 0.28).abs() < 1e-12);
    }

    #[test]
    fn efficiencies_decline_with_overhead() {
        let e = near_ideal().efficiencies();
        assert!((e[0].1 - 1.0).abs() < 1e-12);
        assert!(e.iter().all(|&(_, eff)| eff <= 1.0 + 1e-12));
        assert!(e[3].1 < e[1].1, "efficiency should decay: {e:?}");
    }

    #[test]
    fn fitted_curve_tracks_measurements() {
        let m = near_ideal();
        let fit = m.fit_curve();
        for &(p, t) in &m.samples {
            let rel = (fit.predict(p) - t).abs() / t;
            assert!(rel < 0.15, "p={p}: predicted {} vs {t}", fit.predict(p));
        }
    }

    #[test]
    fn instance_model_scales_measured_curve() {
        let m = near_ideal();
        let inst = m.instance_model(1e6, 10.0, 3e6, 10.0, 1);
        assert!((inst.scale_factor() - 3.0).abs() < 1e-12);
        assert!(inst.predicted_time(4) > 0.0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unordered_samples() {
        MeasuredScaling::new("x", vec![(4, 1.0), (2, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "two samples")]
    fn rejects_single_sample() {
        MeasuredScaling::new("x", vec![(1, 1.0)]);
    }
}
