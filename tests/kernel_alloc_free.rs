//! Steady-state allocation contracts of the hot kernels: after one
//! warm-up invocation, the SpMV kernels (CSR and SELL-C-σ), the hybrid
//! Gauss–Seidel sweep through a reused [`cpx_amg::SweepScratch`], and
//! the arena-SPA SpGEMM through a reused
//! [`cpx_sparse::spgemm::SpaWorkspace`] must not touch the allocator at
//! all — the layouts, scratch arenas and output buffers are sized once
//! and reused. Uses the same counting global allocator as
//! `tests/netstats_overhead.rs` (its own test binary, since a
//! `#[global_allocator]` is process-wide).
//!
//! All assertions run the serial pool: the claim is about the kernels'
//! own buffer discipline, not about thread-spawn bookkeeping (and the
//! thread-local counter only sees this thread anyway).
//!
//! The DES replayer has the matching contract per replay: its channel
//! tables and queues are sized by the program's structure and by the
//! messages in flight, so a longer `Repeat` count replays with the same
//! allocations, and a `Repeat` that never runs allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cpx_amg::{Smoother, SweepScratch};
use cpx_machine::{CollectiveKind, KernelCost, Machine, Op, ReplayError, Replayer, TraceProgram};
use cpx_par::ParPool;
use cpx_sparse::spgemm::{spgemm_spa_reuse, SpaWorkspace};
use cpx_sparse::{Csr, SellCSigma};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations and bytes requested on this thread while `f` runs.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (allocs_on_this_thread(), BYTES.with(Cell::get));
    let out = f();
    let (a1, b1) = (allocs_on_this_thread(), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

/// Run `f` once (warm-up), then `reps` more times counting allocations.
fn steady_state_allocs(reps: usize, mut f: impl FnMut()) -> u64 {
    f();
    let before = allocs_on_this_thread();
    for _ in 0..reps {
        f();
    }
    allocs_on_this_thread() - before
}

#[test]
fn csr_spmv_is_allocation_free_in_steady_state() {
    let a = Csr::poisson3d(12, 12, 12);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.nrows()];
    let pool = ParPool::serial();
    let allocs = steady_state_allocs(50, || {
        a.spmv_with(&pool, 8, &x, &mut y);
    });
    assert_eq!(allocs, 0, "CSR spmv must not allocate after warm-up");
}

#[test]
fn sell_spmv_is_allocation_free_in_steady_state() {
    let a = Csr::poisson3d(12, 12, 12);
    let sell = SellCSigma::from_csr(&a, 16, 256);
    let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64).sin()).collect();
    let mut y = vec![0.0; a.nrows()];
    let allocs = steady_state_allocs(50, || {
        sell.spmv(&x, &mut y);
    });
    assert_eq!(allocs, 0, "SELL spmv must not allocate after warm-up");
    // The parallel entry point on a serial pool takes the same
    // zero-allocation fast path.
    let pool = ParPool::serial();
    let allocs = steady_state_allocs(50, || {
        sell.spmv_with(&pool, 8, &x, &mut y);
    });
    assert_eq!(allocs, 0, "serial-pool SELL spmv must not allocate");
}

#[test]
fn hybrid_gs_sweep_through_scratch_is_allocation_free() {
    let a = Csr::poisson2d(40, 40);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut x = vec![0.0; n];
    let smoother = Smoother::HybridGaussSeidel { blocks: 8 };
    let pool = ParPool::serial();
    let mut scratch = SweepScratch::new();
    let allocs = steady_state_allocs(20, || {
        smoother.sweep_scratch_with(&pool, &a, &b, &mut x, &mut scratch);
    });
    assert_eq!(
        allocs, 0,
        "hybrid GS through a reused scratch must not allocate"
    );
    // Sanity: the convenience wrapper without a caller-held scratch
    // does allocate its frozen-iterate buffer — the contract is about
    // the scratch path, not magic.
    let wrapper_allocs = steady_state_allocs(5, || {
        smoother.sweep_with(&pool, &a, &b, &mut x);
    });
    assert!(wrapper_allocs > 0, "scratch-less wrapper allocates");
}

#[test]
fn arena_spa_spgemm_is_allocation_free_in_steady_state() {
    let a = Csr::poisson2d(24, 24);
    let pool = ParPool::serial();
    let mut ws = SpaWorkspace::new();
    let mut rowptr = Vec::new();
    let mut colidx = Vec::new();
    let mut vals = Vec::new();
    let allocs = steady_state_allocs(20, || {
        spgemm_spa_reuse(
            &pool,
            &a,
            &a,
            4,
            &mut ws,
            &mut rowptr,
            &mut colidx,
            &mut vals,
        );
    });
    assert_eq!(
        allocs, 0,
        "arena-SPA SpGEMM with reused workspace and output buffers \
         must not allocate after warm-up"
    );
    // The warm-sized product is still the real product.
    let expected = cpx_sparse::spgemm::spgemm_spa_with(&pool, &a, &a, 4).product;
    assert_eq!(rowptr, expected.rowptr().to_vec());
    assert_eq!(vals, expected.vals().to_vec());
}

/// `steps` iterations of compute → send right → receive left →
/// allreduce on `n` ranks, as one `Repeat` per rank.
fn ring_program(n: usize, steps: u32) -> TraceProgram {
    let mut p = TraceProgram::new(n);
    let world = p.add_world_group();
    for r in 0..n {
        p.rank(r).ops.push(Op::Repeat {
            count: steps,
            body: vec![
                Op::Compute(KernelCost::flops(1e6 * (r + 1) as f64)),
                Op::Send {
                    dst: (r + 1) % n,
                    bytes: 4096,
                    tag: 3,
                },
                Op::Recv {
                    src: (r + n - 1) % n,
                    tag: 3,
                },
                Op::Collective {
                    kind: CollectiveKind::Allreduce,
                    group: world,
                    bytes: 8,
                },
            ],
        });
    }
    p
}

#[test]
fn des_replay_makes_no_per_message_allocation() {
    let replayer = Replayer::new(Machine::archer2());
    let (short, long) = (ring_program(16, 4), ring_program(16, 64));
    let (out4, allocs4, _) = allocs_during(|| replayer.run(&short).unwrap());
    let (out64, allocs64, _) = allocs_during(|| replayer.run(&long).unwrap());
    assert_eq!(out4.messages, 16 * 4);
    assert_eq!(out64.messages, 16 * 64);
    assert_eq!(
        allocs4, allocs64,
        "a replay 16x longer must make the same allocations"
    );
}

#[test]
fn des_deadlock_before_a_huge_repeat_allocates_nothing_for_it() {
    // Rank 0 blocks on a receive that never arrives; the u32::MAX sends
    // behind it must never be expanded or reserved for.
    let mut p = TraceProgram::new(2);
    p.rank(0).recv(1, 0);
    p.rank(0).ops.push(Op::Repeat {
        count: u32::MAX,
        body: vec![Op::Send {
            dst: 1,
            bytes: 8,
            tag: 0,
        }],
    });
    let replayer = Replayer::new(Machine::archer2());
    let (err, _, bytes) = allocs_during(|| replayer.run(&p).unwrap_err());
    assert!(matches!(err, ReplayError::Deadlock { .. }), "{err:?}");
    assert!(bytes < 1 << 16, "plain replay requested {bytes} bytes");
    // A logged replay reserves a bounded log up front, never one event
    // per expanded op of the repeat.
    let (err, _, bytes) = allocs_during(|| replayer.run_logged(&p).unwrap_err());
    assert!(matches!(err, ReplayError::Deadlock { .. }), "{err:?}");
    assert!(bytes <= 1 << 26, "logged replay requested {bytes} bytes");
}
