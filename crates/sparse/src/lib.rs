//! # cpx-sparse
//!
//! Sparse linear algebra substrate for the CPX reproduction.
//!
//! The production pressure solver the paper profiles spends the bulk of
//! its time in an algebraic-multigrid preconditioned conjugate-gradient
//! pressure solve whose hot kernels are SpMV and SpGEMM (§IV). This crate
//! provides those kernels, including the specific SpGEMM/SpMV
//! optimizations the paper's §IV-B analyses:
//!
//! * [`spgemm::spgemm_twopass`] — the traditional two-pass SpGEMM that
//!   reads its inputs twice (symbolic sizing pass + numeric pass);
//! * [`spgemm::spgemm_spa`] — single-pass Gustavson with a **sparse
//!   accumulator (SPA)** giving constant-time access to output entries,
//!   with per-chunk output buffers copied into contiguous memory at the
//!   end (the "allocate each thread a large chunk" optimization);
//! * [`spgemm::spgemm_hash`] — hash-map accumulation, the variant used
//!   for the distributed column-renumbering comparison;
//! * [`renumber`] — baseline sort-based vs optimized hash+merge column
//!   renumbering for distributed CSR after halo exchange;
//! * [`csr::Csr::spmv_identity_top`] — SpMV exploiting an identity block
//!   in reordered interpolation/restriction operators.
//!
//! It also provides the distribution machinery the solvers share:
//! [`dist::DistCsr`] (row-block distributed CSR with halo exchange over
//! `cpx-comm`) and [`partition`] (recursive coordinate bisection and
//! greedy graph growing).
//!
//! For silent-data-corruption resilience, [`abft`] wraps the kernels
//! with Huang–Abraham checksum verification ([`abft::AbftCsr`], the
//! `*_checked` SpGEMM variants), and [`dist::DistCsr`] offers a
//! checksummed halo exchange whose per-peer packets are verified after
//! assembly.
//!
//! The hot kernels (SpMV, SpGEMM, renumbering) execute on the
//! `cpx-par` deterministic thread pool: chunk layout — and therefore
//! every result bit and every modelled [`SpOpStats`] — is keyed to the
//! chunk count, never the runtime thread count, so `CPX_THREADS=N`
//! changes wall time only. `*_with` variants take an explicit
//! [`cpx_par::ParPool`] for benchmarks and tests.
//!
//! Every kernel reports its operation counts ([`SpOpStats`]) so that
//! trace generation is grounded in what the code actually does.

pub mod abft;
pub mod coo;
pub mod csr;
pub mod dist;
pub mod multilevel;
pub mod partition;
pub mod policy;
pub mod renumber;
pub mod sell;
pub mod spgemm;
pub mod tridiag;

pub use abft::{AbftCsr, AbftError};
pub use coo::Coo;
pub use csr::Csr;
pub use dist::DistCsr;
pub use multilevel::{multilevel_partition, MultilevelConfig};
pub use partition::{greedy_graph_partition, rcb_partition, PartitionQuality};
pub use policy::{KernelPolicy, Layout, LayoutMatrix, MatRef};
pub use sell::{SellCSigma, SELL_MAX_C};

/// Operation counts for a sparse kernel invocation, used to drive the
/// roofline cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpOpStats {
    /// Floating-point operations performed.
    pub flops: f64,
    /// Bytes read from matrix/vector storage.
    pub bytes_read: f64,
    /// Bytes written.
    pub bytes_written: f64,
    /// Number of passes over the input matrices (2 for the classic
    /// SpGEMM, 1 for the SPA variant — the optimization's whole point).
    pub input_passes: u32,
}

impl SpOpStats {
    /// Total memory traffic.
    pub fn bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in flops per byte of traffic (0 when the
    /// kernel moved no bytes) — the roofline x-coordinate.
    pub fn intensity(&self) -> f64 {
        let bytes = self.bytes();
        if bytes > 0.0 {
            self.flops / bytes
        } else {
            0.0
        }
    }
}
