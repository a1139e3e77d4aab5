//! Roofline-style kernel cost accounting.
//!
//! Mini-apps in this workspace never time host execution with a wall
//! clock; instead every computational phase reports the floating-point
//! work and memory traffic it performs as a [`KernelCost`], and the
//! machine model converts that into virtual seconds. This keeps the
//! virtual testbed deterministic and independent of the machine the
//! reproduction happens to run on.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Work performed by one rank in one computational phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// Double-precision floating-point operations.
    pub flops: f64,
    /// Bytes moved to/from memory (reads + writes).
    pub bytes: f64,
}

impl KernelCost {
    /// A kernel performing `flops` FLOPs and moving `bytes` bytes.
    #[inline]
    pub fn new(flops: f64, bytes: f64) -> Self {
        KernelCost { flops, bytes }
    }

    /// A purely compute-bound kernel.
    #[inline]
    pub fn flops(flops: f64) -> Self {
        KernelCost { flops, bytes: 0.0 }
    }

    /// A purely bandwidth-bound kernel.
    #[inline]
    pub fn bytes(bytes: f64) -> Self {
        KernelCost { flops: 0.0, bytes }
    }

    /// The zero cost.
    #[inline]
    pub fn zero() -> Self {
        KernelCost::default()
    }

    /// Arithmetic intensity in FLOP/byte (`inf` for pure compute,
    /// `0` for pure streaming).
    #[inline]
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }

    /// Whether both components are finite and non-negative.
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.flops.is_finite() && self.bytes.is_finite() && self.flops >= 0.0 && self.bytes >= 0.0
    }
}

impl Add for KernelCost {
    type Output = KernelCost;
    #[inline]
    fn add(self, rhs: KernelCost) -> KernelCost {
        KernelCost {
            flops: self.flops + rhs.flops,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

impl AddAssign for KernelCost {
    #[inline]
    fn add_assign(&mut self, rhs: KernelCost) {
        self.flops += rhs.flops;
        self.bytes += rhs.bytes;
    }
}

impl Mul<f64> for KernelCost {
    type Output = KernelCost;
    #[inline]
    fn mul(self, k: f64) -> KernelCost {
        KernelCost {
            flops: self.flops * k,
            bytes: self.bytes * k,
        }
    }
}

impl Sum for KernelCost {
    fn sum<I: Iterator<Item = KernelCost>>(iter: I) -> Self {
        iter.fold(KernelCost::zero(), |a, b| a + b)
    }
}

/// A running tally of kernel work, used by the numerics crates to report
/// what they actually did (e.g. FLOPs per AMG V-cycle) so that trace
/// generation is grounded in measured operation counts rather than
/// hand-waved estimates.
#[derive(Debug, Clone, Default)]
pub struct WorkCounter {
    total: KernelCost,
    phases: Vec<(String, KernelCost)>,
}

impl WorkCounter {
    /// An empty counter.
    pub fn new() -> Self {
        WorkCounter::default()
    }

    /// Record `cost` against phase `name` (phases accumulate).
    pub fn record(&mut self, name: &str, cost: KernelCost) {
        self.total += cost;
        if let Some((_, c)) = self.phases.iter_mut().find(|(n, _)| n == name) {
            *c += cost;
        } else {
            self.phases.push((name.to_string(), cost));
        }
    }

    /// Total work across all phases.
    pub fn total(&self) -> KernelCost {
        self.total
    }

    /// Work recorded for `name`, zero if absent.
    pub fn phase(&self, name: &str) -> KernelCost {
        self.phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// All phases in insertion order.
    pub fn phases(&self) -> &[(String, KernelCost)] {
        &self.phases
    }

    /// Reset the counter.
    pub fn clear(&mut self) {
        self.total = KernelCost::zero();
        self.phases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_scale() {
        let a = KernelCost::new(10.0, 20.0);
        let b = KernelCost::new(1.0, 2.0);
        let c = a + b * 2.0;
        assert_eq!(c, KernelCost::new(12.0, 24.0));
    }

    #[test]
    fn sum_over_iterator() {
        let total: KernelCost = (0..4).map(|i| KernelCost::new(i as f64, 1.0)).sum();
        assert_eq!(total, KernelCost::new(6.0, 4.0));
    }

    #[test]
    fn intensity_edges() {
        assert_eq!(KernelCost::flops(8.0).intensity(), f64::INFINITY);
        assert_eq!(KernelCost::bytes(8.0).intensity(), 0.0);
        assert!((KernelCost::new(8.0, 4.0).intensity() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn work_counter_accumulates_per_phase() {
        let mut w = WorkCounter::new();
        w.record("spmv", KernelCost::new(100.0, 800.0));
        w.record("spmv", KernelCost::new(100.0, 800.0));
        w.record("dot", KernelCost::new(10.0, 80.0));
        assert_eq!(w.phase("spmv"), KernelCost::new(200.0, 1600.0));
        assert_eq!(w.phase("dot"), KernelCost::new(10.0, 80.0));
        assert_eq!(w.phase("missing"), KernelCost::zero());
        assert_eq!(w.total(), KernelCost::new(210.0, 1680.0));
        assert_eq!(w.phases().len(), 2);
        w.clear();
        assert_eq!(w.total(), KernelCost::zero());
    }

    #[test]
    fn validity() {
        assert!(KernelCost::new(1.0, 1.0).is_valid());
        assert!(!KernelCost::new(-1.0, 1.0).is_valid());
        assert!(!KernelCost::new(f64::NAN, 1.0).is_valid());
    }
}
