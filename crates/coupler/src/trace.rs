//! Coupler-unit cost model for the virtual testbed.
//!
//! A CU exchange has three phases: gather interface data from the donor
//! solver's surface ranks, remap (search) + interpolate on the CU
//! ranks, and scatter to the target solver's surface ranks. The search
//! algorithm choice is the paper's coupling-overhead story:
//! brute-force donor search made the coupler a serious bottleneck in
//! the earlier work; the tree-based search with next-iteration
//! prefetching brought coupling below 0.5% of runtime (§V-B).

use cpx_machine::{KernelCost, Machine, Op, PhaseId, Replayer, TraceProgram};

/// Phase ids labelling the four stages of a CU exchange, for replays
/// observed through a phase probe ([`cpx_machine::PhaseBreakdown`],
/// [`cpx_machine::PhaseSpans`]). The caller picks the ids; ranks left
/// in one of these phases should be switched back to their own phase
/// id after the exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangePhases {
    /// Donor-side pack/send and CU-side receive.
    pub gather: PhaseId,
    /// Donor search / remap on the CU ranks.
    pub search: PhaseId,
    /// Interpolation on the CU ranks.
    pub interpolate: PhaseId,
    /// CU-side send and target-side receive/unpack.
    pub scatter: PhaseId,
}

/// Donor-search algorithm (cost class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgo {
    /// O(n·m) exhaustive search (the original bottleneck).
    Brute,
    /// O(n·log m) k-d tree.
    Tree,
    /// Tree + sliding-plane prefetch: O(n) verification per step.
    TreePrefetch,
}

/// Interface regime of the unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplerKind {
    /// Density–density sliding plane: remap + exchange every density
    /// iteration.
    Sliding {
        /// Search algorithm used for the per-step remap.
        search: SearchAlgo,
    },
    /// Density–pressure steady state: mapped once; exchange every
    /// `period` density iterations.
    Steady {
        /// Exchange period in density iterations.
        period: u32,
    },
}

/// Seconds per donor-pair comparison (brute search).
const BRUTE_PAIR_SECS: f64 = 1.0e-10;
/// Seconds per point·log2(donors) (tree search).
const TREE_POINT_SECS: f64 = 5.0e-8;
/// Seconds per point (prefetch verification).
const PREFETCH_POINT_SECS: f64 = 1.0e-8;
/// Seconds per point for interpolation (weights + apply, 5 variables).
const INTERP_POINT_SECS: f64 = 2.0e-8;
/// Coupled variables.
const VARS: f64 = 5.0;

/// The trace/cost model of one coupler unit.
#[derive(Debug, Clone)]
pub struct CouplerTraceModel {
    /// Regime and search algorithm.
    pub kind: CouplerKind,
    /// Donor-side interface points.
    pub n_a: f64,
    /// Target-side interface points.
    pub n_b: f64,
}

impl CouplerTraceModel {
    /// New model.
    pub fn new(kind: CouplerKind, n_a: f64, n_b: f64) -> CouplerTraceModel {
        assert!(n_a >= 1.0 && n_b >= 1.0);
        CouplerTraceModel { kind, n_a, n_b }
    }

    /// Whether an exchange fires on density iteration `iter`.
    pub fn exchanges_on(&self, iter: u64) -> bool {
        match self.kind {
            CouplerKind::Sliding { .. } => true,
            CouplerKind::Steady { period } => iter.is_multiple_of(period as u64),
        }
    }

    /// Remap compute seconds per CU rank for one exchange.
    pub fn remap_secs_per_rank(&self, cu_p: usize, first_exchange: bool) -> f64 {
        let per_unit = match self.kind {
            CouplerKind::Steady { .. } => {
                if first_exchange {
                    // One-off tree build + map.
                    TREE_POINT_SECS * self.n_b * (self.n_a.max(2.0)).log2()
                } else {
                    0.0
                }
            }
            CouplerKind::Sliding { search } => match search {
                SearchAlgo::Brute => BRUTE_PAIR_SECS * self.n_a * self.n_b,
                SearchAlgo::Tree => TREE_POINT_SECS * self.n_b * (self.n_a.max(2.0)).log2(),
                SearchAlgo::TreePrefetch => {
                    if first_exchange {
                        TREE_POINT_SECS * self.n_b * (self.n_a.max(2.0)).log2()
                    } else {
                        PREFETCH_POINT_SECS * self.n_b
                    }
                }
            },
        };
        per_unit / cu_p as f64
    }

    /// Interpolation compute seconds per CU rank per exchange.
    pub fn interp_secs_per_rank(&self, cu_p: usize) -> f64 {
        INTERP_POINT_SECS * self.n_b / cu_p as f64
    }

    /// Total gathered bytes per exchange (donor side).
    pub fn gather_bytes(&self) -> usize {
        (self.n_a * VARS * 8.0) as usize
    }

    /// Total scattered bytes per exchange (target side).
    pub fn scatter_bytes(&self) -> usize {
        (self.n_b * VARS * 8.0) as usize
    }

    /// Emit one exchange: surface ranks of app A send their shares to
    /// the CU ranks (round-robin), CU ranks remap + interpolate, then
    /// send shares to app B's surface ranks. Ops are appended to all
    /// three rank sets.
    ///
    /// When `deferred_b` is provided the target-side receive/unpack ops
    /// are pushed there instead of into the program — the caller
    /// appends them later. Steady-state couplings are *lagged*: the
    /// receiving solver works with the previous exchange's
    /// (time-averaged) data rather than synchronously waiting on the
    /// donor, so a slow donor never stalls the target (§II-A).
    ///
    /// With `phases`, the gather / search / interpolate / scatter stages
    /// are labelled with the supplied [`ExchangePhases`] ids so a
    /// phase-accounting replay can attribute time to each stage. The
    /// remap and interpolation computes are then emitted as two ops
    /// (instead of one combined op) so they land in separate phases;
    /// the total charged work is unchanged.
    #[allow(clippy::too_many_arguments)]
    pub fn emit_exchange(
        &self,
        program: &mut TraceProgram,
        cu_ranks: &[usize],
        a_surface: &[usize],
        b_surface: &[usize],
        machine: &Machine,
        first_exchange: bool,
        tag_base: u32,
        mut deferred_b: Option<&mut Vec<(usize, Vec<Op>)>>,
        phases: Option<ExchangePhases>,
    ) {
        let cu_p = cu_ranks.len();
        assert!(cu_p >= 1 && !a_surface.is_empty() && !b_surface.is_empty());
        let bw = machine.mem_bw_per_core;
        let gather_share = self.gather_bytes() / a_surface.len();
        let scatter_share = self.scatter_bytes() / b_surface.len();
        let t_gather = tag_base;
        let t_scatter = tag_base + 1;

        // Donor surface ranks: pack + send to their CU rank.
        for (k, &ar) in a_surface.iter().enumerate() {
            let cu = cu_ranks[k % cu_p];
            let t = program.rank(ar);
            if let Some(ph) = phases {
                t.phase(ph.gather);
            }
            t.compute(KernelCost::bytes(gather_share as f64 * 2.0));
            t.send(cu, gather_share, t_gather);
        }
        // CU ranks: receive shares, remap + interpolate, send results.
        for (ci, &cu) in cu_ranks.iter().enumerate() {
            let my_senders: Vec<usize> = a_surface
                .iter()
                .enumerate()
                .filter(|(k, _)| k % cu_p == ci)
                .map(|(_, &r)| r)
                .collect();
            let my_receivers: Vec<usize> = b_surface
                .iter()
                .enumerate()
                .filter(|(k, _)| k % cu_p == ci)
                .map(|(_, &r)| r)
                .collect();
            let t = program.rank(cu);
            if let Some(ph) = phases {
                t.phase(ph.gather);
            }
            for &src in &my_senders {
                t.recv(src, t_gather);
            }
            match phases {
                Some(ph) => {
                    t.phase(ph.search);
                    t.compute(KernelCost::bytes(
                        self.remap_secs_per_rank(cu_p, first_exchange) * bw,
                    ));
                    t.phase(ph.interpolate);
                    t.compute(KernelCost::bytes(self.interp_secs_per_rank(cu_p) * bw));
                    t.phase(ph.scatter);
                }
                None => {
                    let work = self.remap_secs_per_rank(cu_p, first_exchange)
                        + self.interp_secs_per_rank(cu_p);
                    t.compute(KernelCost::bytes(work * bw));
                }
            }
            for &dst in &my_receivers {
                t.send(dst, scatter_share, t_scatter);
            }
        }
        // Target surface ranks: receive + unpack (possibly deferred).
        for (k, &br) in b_surface.iter().enumerate() {
            let cu = cu_ranks[k % cu_p];
            let mut ops = Vec::with_capacity(3);
            if let Some(ph) = phases {
                ops.push(Op::Phase(ph.scatter));
            }
            ops.push(Op::Recv {
                src: cu,
                tag: t_scatter,
            });
            ops.push(Op::Compute(KernelCost::bytes(scatter_share as f64 * 2.0)));
            match deferred_b.as_deref_mut() {
                Some(buf) => buf.push((br, ops)),
                None => program.rank(br).ops.extend(ops),
            }
        }
    }

    /// Standalone per-exchange virtual runtime at `cu_p` CU ranks (with
    /// 8 synthetic surface ranks per side) — the curve Algorithm 1
    /// allocates against.
    pub fn per_exchange_runtime(&self, cu_p: usize, machine: &Machine) -> f64 {
        // Interface cells are spread over many solver surface ranks
        // (roughly the solver's p^(2/3) boundary ranks), so the gather
        // fans in from far more senders than there are CU ranks.
        let surf = (4 * cu_p).clamp(8, 256);
        let mut program = TraceProgram::new(cu_p + 2 * surf);
        let cu_ranks: Vec<usize> = (0..cu_p).collect();
        let a_surface: Vec<usize> = (cu_p..cu_p + surf).collect();
        let b_surface: Vec<usize> = (cu_p + surf..cu_p + 2 * surf).collect();
        // Steady-state / prefetch costs are dominated by the recurring
        // exchange; sample that (not the one-off build).
        self.emit_exchange(
            &mut program,
            &cu_ranks,
            &a_surface,
            &b_surface,
            machine,
            false,
            900,
            None,
            None,
        );
        Replayer::new(machine.clone())
            .run(&program)
            .expect("CU trace must replay")
            .makespan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_machine::PhaseBreakdown;

    fn sliding(search: SearchAlgo) -> CouplerTraceModel {
        // A 150M-cell blade row's sliding plane: 0.42% of cells.
        CouplerTraceModel::new(CouplerKind::Sliding { search }, 630_000.0, 630_000.0)
    }

    #[test]
    fn tree_beats_brute_prefetch_beats_tree() {
        let m = Machine::archer2();
        let brute = sliding(SearchAlgo::Brute).per_exchange_runtime(32, &m);
        let tree = sliding(SearchAlgo::Tree).per_exchange_runtime(32, &m);
        let prefetch = sliding(SearchAlgo::TreePrefetch).per_exchange_runtime(32, &m);
        assert!(tree < brute / 20.0, "tree {tree} vs brute {brute}");
        assert!(prefetch < tree, "prefetch {prefetch} vs tree {tree}");
    }

    #[test]
    fn cu_runtime_scales_with_ranks() {
        let m = Machine::archer2();
        let model = sliding(SearchAlgo::Tree);
        let t8 = model.per_exchange_runtime(8, &m);
        let t64 = model.per_exchange_runtime(64, &m);
        assert!(t64 < t8);
    }

    #[test]
    fn steady_state_recurring_cost_is_small() {
        // 5% of a 380M-cell mesh, exchanged every 20 iterations: the
        // recurring exchange must be transfer-dominated, far below the
        // one-off mapping cost.
        let m = Machine::archer2();
        let model = CouplerTraceModel::new(CouplerKind::Steady { period: 20 }, 19.0e6, 19.0e6);
        assert_eq!(model.remap_secs_per_rank(22, false), 0.0);
        assert!(model.remap_secs_per_rank(22, true) > 0.0);
        let t = model.per_exchange_runtime(22, &m);
        assert!(t < 2.0, "steady exchange {t}s");
        assert!(model.exchanges_on(0) && model.exchanges_on(20));
        assert!(!model.exchanges_on(7));
    }

    #[test]
    fn sliding_exchanges_every_iteration() {
        let model = sliding(SearchAlgo::TreePrefetch);
        for i in 0..5 {
            assert!(model.exchanges_on(i));
        }
    }

    #[test]
    fn coupling_overhead_below_one_percent_with_prefetch() {
        // §V-B: with tree search + prefetch, coupling is <0.5% of
        // runtime. Compare one prefetch exchange on 63 CU ranks against
        // a 150M-cell MG-CFD iteration on 331 ranks.
        let m = Machine::archer2();
        let cu = sliding(SearchAlgo::TreePrefetch).per_exchange_runtime(63, &m);
        let density = cpx_mgcfd::MgCfdTraceModel::new(cpx_mgcfd::MgCfdConfig::rotor37_150m())
            .per_step_runtime(331, &m);
        let overhead = cu / density;
        assert!(
            overhead < 0.01,
            "coupling overhead {overhead:.4} (cu {cu}s, step {density}s)"
        );
    }

    #[test]
    fn emit_exchange_composes_and_balances() {
        let m = Machine::archer2();
        let model = sliding(SearchAlgo::Tree);
        let mut program = TraceProgram::new(20);
        let cu: Vec<usize> = (0..4).collect();
        let a: Vec<usize> = (4..12).collect();
        let b: Vec<usize> = (12..20).collect();
        model.emit_exchange(&mut program, &cu, &a, &b, &m, true, 700, None, None);
        assert!(program.validate().is_ok());
        let out = Replayer::new(m).run(&program).unwrap();
        // 8 gathers + 8 scatters.
        assert_eq!(out.messages, 16);
    }

    #[test]
    fn phased_exchange_attributes_all_four_stages() {
        let m = Machine::archer2();
        let model = sliding(SearchAlgo::Tree);
        let mut plain = TraceProgram::new(20);
        let mut phased = TraceProgram::new(20);
        let cu: Vec<usize> = (0..4).collect();
        let a: Vec<usize> = (4..12).collect();
        let b: Vec<usize> = (12..20).collect();
        model.emit_exchange(&mut plain, &cu, &a, &b, &m, true, 700, None, None);
        let ph = ExchangePhases {
            gather: 1,
            search: 2,
            interpolate: 3,
            scatter: 4,
        };
        model.emit_exchange(&mut phased, &cu, &a, &b, &m, true, 700, None, Some(ph));
        assert!(phased.validate().is_ok());
        let t0 = Replayer::new(m.clone()).run(&plain).unwrap().makespan();
        let mut breakdown = PhaseBreakdown::new(5);
        let out = Replayer::new(m)
            .run_probed(&phased, &mut breakdown)
            .unwrap();
        // Phase markers are free; splitting the remap+interp compute
        // can only move the makespan by float rounding.
        let t1 = out.makespan();
        assert!((t0 - t1).abs() <= 1e-12 * t0, "plain {t0} vs phased {t1}");
        for (id, name) in [
            (1, "gather"),
            (2, "search"),
            (3, "interpolate"),
            (4, "scatter"),
        ] {
            assert!(breakdown.elapsed(id) > 0.0, "{name} carries no time");
        }
    }

    #[test]
    fn gather_scatter_bytes() {
        let model = CouplerTraceModel::new(CouplerKind::Steady { period: 20 }, 1000.0, 500.0);
        assert_eq!(model.gather_bytes(), 40_000);
        assert_eq!(model.scatter_bytes(), 20_000);
    }
}
