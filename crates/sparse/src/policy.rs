//! Kernel execution policy: layout + chunking + pool as one value.
//!
//! Every hot kernel grew a `*_with(pool, chunks, …)` variant in PR 4;
//! [`KernelPolicy`] folds that zoo into a single parameter object that
//! also selects the storage layout ([`Layout`]), so call sites in AMG,
//! pressure and the benches pick "how to run" in one place — and a
//! GPU-shaped backend can later slot in as another `Layout`/pool pair
//! without another method explosion.
//!
//! [`LayoutMatrix`] owns a [`Csr`] plus the optional prepared
//! [`SellCSigma`] views; [`MatRef`] is the cheap borrowed form that
//! solvers (PCG, AMG cycles) thread through without cloning matrices.
//! Every layout is bit-identical to serial CSR, so switching a policy
//! never changes a result byte — only wall time.

use cpx_par::ParPool;

use crate::csr::Csr;
use crate::sell::SellCSigma;
use crate::SpOpStats;

/// Storage layout for the SpMV-shaped kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Row-major CSR: one serial dot product per row.
    Csr,
    /// SELL-C-σ: slot-major chunks of `c` rows, length-sorted within
    /// windows of `sigma` rows (see [`SellCSigma`]).
    Sell { c: usize, sigma: usize },
}

impl Layout {
    /// The default SELL shape: C=16 won the measured sweep (two cache
    /// lines of accumulators, wide enough to amortize the per-slot
    /// column base, narrow enough to stay register-resident); σ=256
    /// sorts broadly enough for ragged AMG coarse operators while
    /// keeping parallel windows fine-grained.
    pub fn sell_default() -> Layout {
        Layout::Sell { c: 16, sigma: 256 }
    }
}

/// How a kernel call should execute: storage layout, work partitions,
/// and the pool that runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPolicy {
    pub layout: Layout,
    /// Work partitions for parallel kernels (the determinism-bearing
    /// chunk count; results are keyed to it, never to thread count).
    pub chunks: usize,
    pub pool: ParPool,
}

impl KernelPolicy {
    /// Serial CSR — the reference policy every other one must match
    /// bit-for-bit.
    pub fn serial() -> KernelPolicy {
        KernelPolicy {
            layout: Layout::Csr,
            chunks: 1,
            pool: ParPool::serial(),
        }
    }

    /// CSR on the global pool (`CPX_THREADS`), one chunk per worker —
    /// the behaviour of the pre-policy `spmv`/`smooth` entry points.
    pub fn current() -> KernelPolicy {
        let pool = ParPool::current();
        KernelPolicy {
            layout: Layout::Csr,
            chunks: pool.chunks().max(1),
            pool,
        }
    }

    /// The default SELL-C-σ policy on the global pool.
    pub fn sell() -> KernelPolicy {
        KernelPolicy {
            layout: Layout::sell_default(),
            ..KernelPolicy::current()
        }
    }

    /// This policy with a different layout.
    pub fn with_layout(self, layout: Layout) -> KernelPolicy {
        KernelPolicy { layout, ..self }
    }

    /// This policy with an explicit pool and matching chunk count.
    pub fn with_pool(self, pool: ParPool) -> KernelPolicy {
        KernelPolicy {
            chunks: pool.chunks().max(1),
            pool,
            ..self
        }
    }

    /// The pool to actually run `work_units` on: granularity- and
    /// hardware-limited so tiny problems take the serial fast path.
    pub fn pool_for(&self, work_units: usize) -> ParPool {
        self.pool.limited(work_units)
    }
}

impl Default for KernelPolicy {
    fn default() -> Self {
        KernelPolicy::current()
    }
}

/// A [`Csr`] with optional prepared alternative-layout views. The CSR
/// stays the source of truth (SpGEMM, smoothers and structural queries
/// read it); prepared views accelerate the SpMV-shaped kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutMatrix {
    csr: Csr,
    sell: Option<SellCSigma>,
    /// `(k, tail)` for identity-top operators: SELL over rows `k..`.
    sell_tail: Option<(usize, SellCSigma)>,
}

impl LayoutMatrix {
    /// Wrap a CSR, preparing the views the policy's layout needs.
    pub fn new(csr: Csr, policy: &KernelPolicy) -> LayoutMatrix {
        let sell = match policy.layout {
            Layout::Csr => None,
            Layout::Sell { c, sigma } => Some(SellCSigma::from_csr(&csr, c, sigma)),
        };
        LayoutMatrix {
            csr,
            sell,
            sell_tail: None,
        }
    }

    /// Additionally prepare the tail view for
    /// [`MatRef::spmv_identity_top_p`] with this `k`.
    pub fn prepare_identity_top(&mut self, k: usize, policy: &KernelPolicy) {
        if let Layout::Sell { c, sigma } = policy.layout {
            self.sell_tail = Some((k, SellCSigma::from_csr_tail(&self.csr, k, c, sigma)));
        }
    }

    /// The underlying CSR.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The prepared SELL view, if any.
    #[inline]
    pub fn sell(&self) -> Option<&SellCSigma> {
        self.sell.as_ref()
    }

    /// Borrowed view for kernel dispatch.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            csr: &self.csr,
            sell: self.sell.as_ref(),
            sell_tail: self.sell_tail.as_ref().map(|(k, s)| (*k, s)),
        }
    }

    /// Policy-dispatched `y = A x` (see [`MatRef::spmv_p`]).
    pub fn spmv_p(&self, policy: &KernelPolicy, x: &[f64], y: &mut [f64]) -> SpOpStats {
        self.as_ref().spmv_p(policy, x, y)
    }
}

/// A borrowed matrix view that dispatches kernels by [`KernelPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    csr: &'a Csr,
    sell: Option<&'a SellCSigma>,
    sell_tail: Option<(usize, &'a SellCSigma)>,
}

impl<'a> MatRef<'a> {
    /// A plain CSR view (always valid; dispatches every policy's
    /// layout to CSR).
    pub fn from_csr(csr: &'a Csr) -> MatRef<'a> {
        MatRef {
            csr,
            sell: None,
            sell_tail: None,
        }
    }

    /// A CSR view with an optional prepared SELL companion (e.g. an
    /// AMG level that prepared its operator at build time).
    pub fn with_sell(csr: &'a Csr, sell: Option<&'a SellCSigma>) -> MatRef<'a> {
        MatRef {
            csr,
            sell,
            sell_tail: None,
        }
    }

    /// The underlying CSR.
    #[inline]
    pub fn csr(&self) -> &'a Csr {
        self.csr
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// `y = A x` dispatched by policy. A SELL layout request without a
    /// prepared view falls back to CSR — same bits either way.
    ///
    /// Always reports the **CSR-modelled** [`SpOpStats`]: the modelled
    /// cost is part of the frozen virtual-time contract, so switching a
    /// layout changes wall time only, never a trace. The layout's true
    /// footprint is available via [`SellCSigma::spmv_stats`] for
    /// roofline studies.
    pub fn spmv_p(&self, policy: &KernelPolicy, x: &[f64], y: &mut [f64]) -> SpOpStats {
        let pool = policy.pool_for(self.nnz());
        match (policy.layout, self.sell) {
            (Layout::Sell { .. }, Some(sell)) => {
                sell.spmv_with(&pool, policy.chunks, x, y);
                self.csr.spmv_stats()
            }
            _ => self.csr.spmv_with(&pool, policy.chunks, x, y),
        }
    }

    /// Identity-top SpMV dispatched by policy: the top `k` rows are a
    /// serial copy, the tail uses the prepared tail view when its `k`
    /// matches (else the CSR tail loop).
    pub fn spmv_identity_top_p(
        &self,
        policy: &KernelPolicy,
        k: usize,
        x: &[f64],
        y: &mut [f64],
    ) -> SpOpStats {
        match (policy.layout, self.sell_tail) {
            (Layout::Sell { .. }, Some((tk, tail))) if tk == k => {
                assert!(k <= self.csr.nrows());
                assert_eq!(x.len(), self.csr.ncols());
                assert_eq!(y.len(), self.csr.nrows());
                y[..k].copy_from_slice(&x[..k]);
                let pool = policy.pool_for(tail.nnz());
                tail.spmv_with(&pool, policy.chunks, x, &mut y[k..]);
                // Report the CSR identity-top stats: the modelled
                // formula is the paper's §IV-B accounting and must not
                // drift with the layout choice.
                self.csr.spmv_identity_top_stats(k)
            }
            _ => {
                let pool = policy.pool_for(self.nnz());
                self.csr
                    .spmv_identity_top_with(&pool, policy.chunks, k, x, y)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_are_bit_identical_across_layouts() {
        let a = Csr::poisson3d(9, 8, 7);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut want = vec![0.0; a.nrows()];
        a.spmv_with(&ParPool::serial(), 1, &x, &mut want);
        for policy in [
            KernelPolicy::serial(),
            KernelPolicy::current(),
            KernelPolicy::sell(),
            KernelPolicy::serial().with_layout(Layout::Sell { c: 3, sigma: 17 }),
            KernelPolicy::sell().with_pool(ParPool::with_threads(4)),
        ] {
            let m = LayoutMatrix::new(a.clone(), &policy);
            let mut y = vec![f64::NAN; a.nrows()];
            let stats = m.spmv_p(&policy, &x, &mut y);
            assert_eq!(y, want, "policy {policy:?}");
            assert_eq!(stats, a.spmv_stats(), "modelled stats drift: {policy:?}");
        }
    }

    #[test]
    fn sell_policy_prepares_view_and_csr_policy_does_not() {
        let a = Csr::poisson2d(8, 8);
        assert!(LayoutMatrix::new(a.clone(), &KernelPolicy::sell())
            .sell()
            .is_some());
        assert!(LayoutMatrix::new(a, &KernelPolicy::current())
            .sell()
            .is_none());
    }

    #[test]
    fn identity_top_dispatch_matches_csr_and_reports_same_stats() {
        // [I; B]-shaped operator.
        let mut coo = crate::coo::Coo::new(40, 20);
        for i in 0..20 {
            coo.push(i, i, 1.0);
        }
        for i in 20..40 {
            coo.push(i, i % 20, 0.5);
            coo.push(i, (i + 7) % 20, 0.25);
        }
        let a = coo.to_csr();
        let k = 20;
        let x: Vec<f64> = (0..20).map(|i| i as f64 - 9.5).collect();
        let mut want = vec![0.0; 40];
        let want_stats = a.spmv_identity_top(k, &x, &mut want);

        let policy = KernelPolicy::sell();
        let mut m = LayoutMatrix::new(a, &policy);
        m.prepare_identity_top(k, &policy);
        let mut y = vec![f64::NAN; 40];
        let stats = m.as_ref().spmv_identity_top_p(&policy, k, &x, &mut y);
        assert_eq!(y, want);
        assert_eq!(stats, want_stats, "modelled stats must not drift by layout");

        // Mismatched k falls back to the CSR tail loop, still correct.
        let mut want10 = vec![0.0; 40];
        m.csr().spmv_identity_top(10, &x, &mut want10);
        let mut y10 = vec![f64::NAN; 40];
        m.as_ref().spmv_identity_top_p(&policy, 10, &x, &mut y10);
        assert_eq!(y10, want10);
    }
}
