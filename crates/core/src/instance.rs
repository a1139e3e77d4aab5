//! Coupled-scenario description.

use cpx_coupler::trace::{CouplerKind, SearchAlgo};
use cpx_mgcfd::MgCfdConfig;
use cpx_simpic::SimpicConfig;

/// Base-STC or Optimized-STC pressure proxy (§III–IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StcVariant {
    /// SIMPIC calibrated to the *as-profiled* pressure solver.
    Base,
    /// SIMPIC calibrated to the theoretically-optimized pressure solver.
    Optimized,
}

/// What a solver instance runs.
#[derive(Debug, Clone, PartialEq)]
pub enum AppKind {
    /// An MG-CFD density-solver instance.
    MgCfd(MgCfdConfig),
    /// The SIMPIC pressure-solver proxy.
    Simpic(SimpicConfig),
}

/// One solver instance in the coupled run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppInstance {
    /// Display name (paper instance numbers, e.g. `"mgcfd-13"`).
    pub name: String,
    /// What it runs.
    pub kind: AppKind,
    /// Mesh cells this instance represents (SIMPIC instances quote the
    /// equivalent pressure-solver mesh, as the paper does for Fig 8b).
    pub cells: f64,
}

impl AppInstance {
    /// A density-solver instance of `cells` cells.
    pub fn mgcfd(name: &str, cells: f64) -> AppInstance {
        AppInstance {
            name: name.to_string(),
            kind: AppKind::MgCfd(MgCfdConfig::blade_row(cells)),
            cells,
        }
    }

    /// The SIMPIC pressure proxy for a pressure mesh of `cells` cells.
    pub fn simpic(name: &str, cells: f64, variant: StcVariant) -> AppInstance {
        let config = match variant {
            StcVariant::Base => {
                if cells <= 30.0e6 {
                    SimpicConfig::base_28m()
                } else if cells <= 100.0e6 {
                    SimpicConfig::base_84m()
                } else {
                    SimpicConfig::base_380m()
                }
            }
            StcVariant::Optimized => SimpicConfig::optimized_stc(),
        };
        AppInstance {
            name: name.to_string(),
            kind: AppKind::Simpic(config),
            cells,
        }
    }

    /// Whether this is the pressure-solver proxy.
    pub fn is_pressure(&self) -> bool {
        matches!(self.kind, AppKind::Simpic(_))
    }
}

/// A coupler unit between two instances (by index into
/// [`Scenario::apps`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CuSpec {
    /// Display name.
    pub name: String,
    /// Donor instance index.
    pub a: usize,
    /// Target instance index.
    pub b: usize,
    /// Regime + search algorithm.
    pub kind: CouplerKind,
    /// Interface points on each side.
    pub interface_points: f64,
}

impl CuSpec {
    /// Sliding plane between density instances `a` and `b`: interface is
    /// ~0.42% of the smaller mesh (§II-A), remapped every iteration with
    /// the production tree + prefetch search.
    pub fn sliding(name: &str, a: usize, b: usize, cells_a: f64, cells_b: f64) -> CuSpec {
        CuSpec {
            name: name.to_string(),
            a,
            b,
            kind: CouplerKind::Sliding {
                search: SearchAlgo::TreePrefetch,
            },
            interface_points: 0.0042 * cells_a.min(cells_b),
        }
    }

    /// Steady-state overlap between a density instance and the pressure
    /// proxy: ~5% of the smaller mesh, exchanged every 20 density
    /// iterations (§II-A, §V).
    pub fn steady(name: &str, a: usize, b: usize, cells_a: f64, cells_b: f64) -> CuSpec {
        CuSpec {
            name: name.to_string(),
            a,
            b,
            kind: CouplerKind::Steady { period: 20 },
            interface_points: 0.05 * cells_a.min(cells_b),
        }
    }
}

/// An injected failure plus the recovery policy a resilient coupled
/// run models against it.
///
/// One rank of `crash_app` dies at `crash_time` (virtual seconds into
/// the full run). The run takes coordinated checkpoints every
/// `checkpoint_interval` density iterations; on the crash it rolls back
/// to the last checkpoint and redistributes the dead rank's work within
/// the instance's own group (shrinking, ULFM-style), finishing the
/// window at the degraded rank count. Independently,
/// `dropped_cu_exchanges` lists density iterations whose coupler-unit
/// payloads are lost in flight — the target side falls back to its
/// last-good mapping (stale data) rather than stalling. Orthogonally,
/// `sdc_events` lists silent corruptions: with `abft` enabled the run
/// pays the per-iteration detector cost, catches each event and
/// recovers per `sdc_policy`; with it disabled they propagate silently.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// Index into [`Scenario::apps`] of the instance losing a rank.
    pub crash_app: usize,
    /// Virtual time (seconds into the full run) at which the rank dies.
    /// A time at or beyond the clean runtime means no crash occurs.
    pub crash_time: f64,
    /// Coordinated-checkpoint period in density iterations.
    pub checkpoint_interval: u64,
    /// Density iterations whose CU exchanges are dropped in flight.
    pub dropped_cu_exchanges: Vec<u64>,
    /// Injected silent corruptions.
    pub sdc_events: Vec<crate::sdc::SdcInjection>,
    /// Recovery applied to each detected corruption.
    pub sdc_policy: crate::sdc::SdcPolicy,
    /// Whether the ABFT/invariant detector layer is armed (off by
    /// default so crash-only studies price exactly as before).
    pub abft: bool,
}

impl FaultScenario {
    /// A single rank crash in `crash_app` at `crash_time`, with the
    /// default 20-iteration checkpoint period and no dropped exchanges.
    pub fn crash(crash_app: usize, crash_time: f64) -> FaultScenario {
        FaultScenario {
            crash_app,
            crash_time,
            checkpoint_interval: 20,
            dropped_cu_exchanges: Vec::new(),
            sdc_events: Vec::new(),
            sdc_policy: crate::sdc::SdcPolicy::default(),
            abft: false,
        }
    }

    /// A corruption-only scenario: no rank ever crashes (`crash_time`
    /// is infinite), the detectors are armed, and the given events
    /// strike during the run.
    pub fn sdc_only(events: Vec<crate::sdc::SdcInjection>) -> FaultScenario {
        FaultScenario {
            sdc_events: events,
            abft: true,
            ..FaultScenario::crash(0, f64::INFINITY)
        }
    }

    /// Set the checkpoint period (density iterations).
    pub fn with_checkpoint_interval(mut self, iters: u64) -> FaultScenario {
        self.checkpoint_interval = iters;
        self
    }

    /// Drop the CU exchange payloads of the given density iterations.
    pub fn with_dropped_exchanges(mut self, iters: Vec<u64>) -> FaultScenario {
        self.dropped_cu_exchanges = iters;
        self
    }

    /// Set the recovery policy for detected corruptions.
    pub fn with_sdc_policy(mut self, policy: crate::sdc::SdcPolicy) -> FaultScenario {
        self.sdc_policy = policy;
        self
    }

    /// Arm or disarm the detector layer.
    pub fn with_abft(mut self, enabled: bool) -> FaultScenario {
        self.abft = enabled;
        self
    }
}

/// A complete coupled scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// Solver instances.
    pub apps: Vec<AppInstance>,
    /// Coupler units.
    pub cus: Vec<CuSpec>,
    /// Density-solver iterations of the full run (the pressure solver
    /// takes two timesteps per density iteration, §V).
    pub density_iters: u64,
    /// Injected failure, if the run should model resilience.
    pub fault: Option<FaultScenario>,
}

impl Scenario {
    /// Total represented mesh cells (the paper quotes 1.25Bn effective
    /// for the large case).
    pub fn total_cells(&self) -> f64 {
        self.apps.iter().map(|a| a.cells).sum()
    }

    /// Validate instance indices in the CU specs and the fault config.
    pub fn validate(&self) -> Result<(), String> {
        for cu in &self.cus {
            if cu.a >= self.apps.len() || cu.b >= self.apps.len() {
                return Err(format!("{}: instance index out of range", cu.name));
            }
            if cu.a == cu.b {
                return Err(format!("{}: cannot couple an instance to itself", cu.name));
            }
        }
        if let Some(fault) = &self.fault {
            if fault.crash_app >= self.apps.len() {
                return Err(format!(
                    "fault: crash_app {} out of range ({} apps)",
                    fault.crash_app,
                    self.apps.len()
                ));
            }
            if fault.crash_time.is_nan() || fault.crash_time < 0.0 {
                return Err(format!("fault: invalid crash_time {}", fault.crash_time));
            }
            if fault.checkpoint_interval == 0 {
                return Err("fault: checkpoint_interval must be >= 1".into());
            }
        }
        Ok(())
    }

    /// This scenario with an injected failure attached.
    pub fn with_fault(mut self, fault: FaultScenario) -> Scenario {
        self.fault = Some(fault);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpic_variant_selection() {
        let base = AppInstance::simpic("s", 380.0e6, StcVariant::Base);
        match &base.kind {
            AppKind::Simpic(c) => assert_eq!(c.particles_per_cell, 1800),
            _ => panic!(),
        }
        let opt = AppInstance::simpic("s", 380.0e6, StcVariant::Optimized);
        match &opt.kind {
            AppKind::Simpic(c) => assert_eq!(c.particles_per_cell, 60_000),
            _ => panic!(),
        }
        assert!(base.is_pressure());
    }

    #[test]
    fn interface_fractions() {
        let sliding = CuSpec::sliding("cu", 0, 1, 24.0e6, 150.0e6);
        assert!((sliding.interface_points - 0.0042 * 24.0e6).abs() < 1.0);
        let steady = CuSpec::steady("cu", 0, 1, 150.0e6, 380.0e6);
        assert!((steady.interface_points - 0.05 * 150.0e6).abs() < 1.0);
    }

    #[test]
    fn scenario_validation() {
        let mut s = Scenario {
            name: "t".into(),
            apps: vec![
                AppInstance::mgcfd("a", 8.0e6),
                AppInstance::mgcfd("b", 24.0e6),
            ],
            cus: vec![CuSpec::sliding("cu", 0, 1, 8.0e6, 24.0e6)],
            density_iters: 100,
            fault: None,
        };
        assert!(s.validate().is_ok());
        assert_eq!(s.total_cells(), 32.0e6);
        s.cus[0].b = 7;
        assert!(s.validate().is_err());
    }

    #[test]
    fn fault_scenario_validation() {
        let base = Scenario {
            name: "t".into(),
            apps: vec![
                AppInstance::mgcfd("a", 8.0e6),
                AppInstance::mgcfd("b", 24.0e6),
            ],
            cus: vec![],
            density_iters: 100,
            fault: None,
        };
        let ok = base.clone().with_fault(
            FaultScenario::crash(1, 12.5)
                .with_checkpoint_interval(10)
                .with_dropped_exchanges(vec![3, 40]),
        );
        assert!(ok.validate().is_ok());
        let f = ok.fault.as_ref().unwrap();
        assert_eq!(f.checkpoint_interval, 10);
        assert_eq!(f.dropped_cu_exchanges, vec![3, 40]);

        let bad_app = base.clone().with_fault(FaultScenario::crash(5, 1.0));
        assert!(bad_app.validate().is_err());
        let bad_time = base.clone().with_fault(FaultScenario::crash(0, f64::NAN));
        assert!(bad_time.validate().is_err());
        let bad_k = base
            .clone()
            .with_fault(FaultScenario::crash(0, 1.0).with_checkpoint_interval(0));
        assert!(bad_k.validate().is_err());
    }
}
