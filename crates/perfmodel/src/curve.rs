//! Runtime-curve fitting.
//!
//! Standalone benchmark samples `(p, t)` are fitted to the four-term
//! strong-scaling model
//!
//! ```text
//! t(p) = A/p  +  B  +  C·log2(p)  +  D·p
//! ```
//!
//! (perfectly-parallel work, fixed serial fraction, tree-collective
//! latency, serialized/pipeline term), with non-negative coefficients
//! fitted by projected least squares on *relative* error so small-`t`
//! samples at high `p` are not drowned out. The fitted curve is what
//! Algorithm 1 interrogates when it asks "how much does one more core
//! help this instance?".

/// A fitted runtime curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeCurve {
    /// Perfectly-parallel coefficient (`A/p`).
    pub a: f64,
    /// Serial-fraction constant (`B`).
    pub b: f64,
    /// Logarithmic (collective) coefficient (`C·log2 p`).
    pub c: f64,
    /// Linear (pipeline/serialization) coefficient (`D·p`).
    pub d: f64,
}

impl RuntimeCurve {
    /// Fit to samples `(ranks, seconds)`. Requires at least two samples
    /// with distinct rank counts.
    pub fn fit(samples: &[(usize, f64)]) -> RuntimeCurve {
        assert!(samples.len() >= 2, "need at least two samples");
        assert!(
            samples.iter().any(|&(p, _)| p != samples[0].0),
            "need at least two distinct rank counts"
        );
        assert!(
            samples.iter().all(|&(p, t)| p >= 1 && t > 0.0),
            "samples must have p >= 1, t > 0"
        );
        // Basis functions, weighted by 1/t (relative least squares).
        let rows: Vec<([f64; 4], f64, f64)> = samples
            .iter()
            .map(|&(p, t)| {
                let pf = p as f64;
                ([1.0 / pf, 1.0, pf.log2(), pf], t, 1.0 / t)
            })
            .collect();

        // Projected coordinate descent on ½‖w(Xβ − t)‖² with β ≥ 0.
        let mut beta = [0.0f64; 4];
        // Initialise A from the first sample assuming ideal scaling.
        beta[0] = samples[0].1 * samples[0].0 as f64;
        for _ in 0..2000 {
            for j in 0..4 {
                let mut num = 0.0;
                let mut den = 0.0;
                for (x, t, w) in &rows {
                    let w2 = w * w;
                    let pred_minus_j: f64 =
                        (0..4).filter(|&k| k != j).map(|k| beta[k] * x[k]).sum();
                    num += w2 * x[j] * (t - pred_minus_j);
                    den += w2 * x[j] * x[j];
                }
                beta[j] = if den > 0.0 { (num / den).max(0.0) } else { 0.0 };
            }
        }
        RuntimeCurve {
            a: beta[0],
            b: beta[1],
            c: beta[2],
            d: beta[3],
        }
    }

    /// Predicted runtime at `p` ranks.
    pub fn predict(&self, p: usize) -> f64 {
        assert!(p >= 1);
        let pf = p as f64;
        self.a / pf + self.b + self.c * pf.log2() + self.d * pf
    }

    /// Predicted speedup from `p0` to `p`.
    pub fn speedup(&self, p0: usize, p: usize) -> f64 {
        self.predict(p0) / self.predict(p)
    }

    /// Predicted parallel efficiency at `p`, relative to `p0`.
    pub fn parallel_efficiency(&self, p0: usize, p: usize) -> f64 {
        self.speedup(p0, p) * p0 as f64 / p as f64
    }

    /// The rank count minimising predicted runtime (within `1..=max_p`);
    /// beyond it, the `C`/`D` terms make more ranks *slower*.
    pub fn sweet_spot(&self, max_p: usize) -> usize {
        let mut best = (f64::INFINITY, 1usize);
        let mut p = 1usize;
        while p <= max_p {
            let t = self.predict(p);
            if t < best.0 {
                best = (t, p);
            }
            p = (p as f64 * 1.05).ceil() as usize;
        }
        best.1
    }

    /// Leave-one-out cross-validation: refit with each sample held out
    /// and report the mean relative error of predicting the held-out
    /// point — the honest generalization estimate the model-building
    /// pipeline reports alongside a fit.
    pub fn cross_validate(samples: &[(usize, f64)]) -> f64 {
        assert!(samples.len() >= 3, "LOO-CV needs at least three samples");
        let mut total = 0.0;
        let mut count = 0usize;
        for hold in 0..samples.len() {
            let train: Vec<(usize, f64)> = samples
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != hold)
                .map(|(_, &s)| s)
                .collect();
            // Need two distinct rank counts in the training set.
            if !train.iter().any(|&(p, _)| p != train[0].0) {
                continue;
            }
            let fit = RuntimeCurve::fit(&train);
            let (p, t) = samples[hold];
            total += ((fit.predict(p) - t) / t).abs();
            count += 1;
        }
        if count == 0 {
            f64::INFINITY
        } else {
            total / count as f64
        }
    }

    /// Mean relative error of the fit on `samples`.
    pub fn relative_error(&self, samples: &[(usize, f64)]) -> f64 {
        let total: f64 = samples
            .iter()
            .map(|&(p, t)| ((self.predict(p) - t) / t).abs())
            .sum();
        total / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a: f64, b: f64, c: f64, d: f64, ps: &[usize]) -> Vec<(usize, f64)> {
        ps.iter()
            .map(|&p| {
                let pf = p as f64;
                (p, a / pf + b + c * pf.log2() + d * pf)
            })
            .collect()
    }

    #[test]
    fn recovers_synthetic_curve() {
        let samples = synth(1000.0, 0.5, 0.02, 1e-4, &[1, 2, 8, 64, 512, 4096]);
        let fit = RuntimeCurve::fit(&samples);
        assert!(
            fit.relative_error(&samples) < 0.02,
            "fit error {} ({fit:?})",
            fit.relative_error(&samples)
        );
        // Extrapolation to unseen rank counts stays close.
        let pf = 16384f64;
        let truth = 1000.0 / pf + 0.5 + 0.02 * pf.log2() + 1e-4 * pf;
        let pred = fit.predict(16384);
        assert!((pred - truth).abs() / truth < 0.15, "{pred} vs {truth}");
    }

    #[test]
    fn coefficients_nonnegative() {
        // Noisy, nearly-ideal scaling data must not produce negative
        // terms.
        let samples: Vec<(usize, f64)> = [1usize, 4, 16, 64, 256]
            .iter()
            .map(|&p| (p, 100.0 / p as f64 * (1.0 + 0.03 * ((p % 3) as f64 - 1.0))))
            .collect();
        let fit = RuntimeCurve::fit(&samples);
        assert!(fit.a >= 0.0 && fit.b >= 0.0 && fit.c >= 0.0 && fit.d >= 0.0);
    }

    #[test]
    fn predict_monotone_decreasing_for_ideal() {
        let fit = RuntimeCurve {
            a: 100.0,
            b: 0.0,
            c: 0.0,
            d: 0.0,
        };
        assert!(fit.predict(10) > fit.predict(100));
        assert_eq!(fit.speedup(1, 100), 100.0);
        assert!((fit.parallel_efficiency(1, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sweet_spot_found() {
        // t(p) = 1000/p + 1e-3 p has its minimum at p = 1000.
        let fit = RuntimeCurve {
            a: 1000.0,
            b: 0.0,
            c: 0.0,
            d: 1e-3,
        };
        let sweet = fit.sweet_spot(100_000);
        assert!(
            (800..1300).contains(&sweet),
            "sweet spot {sweet}, expected ~1000"
        );
    }

    #[test]
    fn efficiency_declines_with_latency_term() {
        let fit = RuntimeCurve {
            a: 100.0,
            b: 0.0,
            c: 0.1,
            d: 0.0,
        };
        let e1 = fit.parallel_efficiency(1, 64);
        let e2 = fit.parallel_efficiency(1, 4096);
        assert!(e2 < e1);
        assert!(e1 < 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn rejects_single_sample() {
        RuntimeCurve::fit(&[(1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "distinct rank counts")]
    fn rejects_degenerate_samples() {
        RuntimeCurve::fit(&[(4, 1.0), (4, 1.1)]);
    }

    #[test]
    fn fit_handles_flat_curves() {
        // An instance that does not scale at all (constant runtime).
        let samples: Vec<(usize, f64)> = [1usize, 8, 64].iter().map(|&p| (p, 5.0)).collect();
        let fit = RuntimeCurve::fit(&samples);
        assert!((fit.predict(32) - 5.0).abs() < 0.5);
    }

    #[test]
    fn cross_validation_small_for_clean_data() {
        let samples = synth(5000.0, 0.2, 0.01, 1e-4, &[1, 4, 16, 64, 256, 1024, 4096]);
        let cv = RuntimeCurve::cross_validate(&samples);
        assert!(cv < 0.15, "LOO-CV error {cv}");
    }

    #[test]
    fn cross_validation_flags_wrong_model_family() {
        // Data with a p^2 term the basis cannot represent: CV must be
        // visibly worse than on representable data.
        let bad: Vec<(usize, f64)> = [1usize, 4, 16, 64, 256, 1024]
            .iter()
            .map(|&p| (p, 1000.0 / p as f64 + 1e-5 * (p * p) as f64))
            .collect();
        let good = synth(1000.0, 0.0, 0.0, 1e-3, &[1, 4, 16, 64, 256, 1024]);
        let cv_bad = RuntimeCurve::cross_validate(&bad);
        let cv_good = RuntimeCurve::cross_validate(&good);
        assert!(cv_bad > cv_good, "bad {cv_bad} vs good {cv_good}");
    }
}
