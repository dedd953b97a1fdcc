//! Pre-run decisions shared by the real executors and their DES mirrors.
//!
//! Each is a pure function of the fault plan and the monitor's frozen
//! view, never of runtime state, so every rank thread of a real cycle and
//! every body of a modeled one reach the same answer without
//! coordination. Keeping one copy here is what keeps the real and modeled
//! fault and health digests identical.

use enkf_core::EnkfError;
use enkf_fault::{FaultConfig, FaultInjector, SubstrateError};
use enkf_health::HealthMonitor;

/// The fault plan resolved for one cycle.
pub(crate) struct FaultPrep {
    /// The injector (carries the shared [`enkf_fault::FaultLog`]).
    pub injector: FaultInjector,
    /// Sorted dropout set (empty on a fault-free run).
    pub dropped: Vec<usize>,
    /// Surviving members, ascending.
    pub alive: Vec<usize>,
}

impl FaultPrep {
    /// Build the injector and make the dropout decision: members the plan
    /// makes unrecoverable are dropped (and logged) in degraded mode; the
    /// cycle fails fast when degraded mode is off or would leave fewer
    /// than two members.
    pub(crate) fn new(cfg: &FaultConfig, members: usize) -> enkf_core::Result<Self> {
        let injector = FaultInjector::new(cfg.clone());
        let dropped = injector.unrecoverable_members(members);
        if !dropped.is_empty() {
            if !cfg.degraded {
                return Err(EnkfError::Substrate(SubstrateError::Unrecoverable {
                    members: dropped,
                }));
            }
            if members - dropped.len() < 2 {
                return Err(EnkfError::GeometryMismatch(format!(
                    "degraded mode would leave {} member(s); at least 2 are required",
                    members - dropped.len()
                )));
            }
            for &m in &dropped {
                injector.log().dropped(m);
            }
        }
        let alive = (0..members).filter(|m| !dropped.contains(m)).collect();
        Ok(FaultPrep {
            injector,
            dropped,
            alive,
        })
    }

    /// The receive timeout the plan calls for: set when it crashes a rank
    /// or drops a message, where a blocking receive could hang forever.
    pub(crate) fn timeout(&self) -> Option<f64> {
        let cfg = self.injector.config();
        let may_hang = self.injector.has_crashes() || cfg.plan.msg_faults.iter().any(|m| m.dropped);
        may_hang.then_some(cfg.recv_timeout)
    }

    /// The straggler factor of `rank`'s local analysis, reported to the
    /// monitor.
    pub(crate) fn dilation(&self, rank: usize, monitor: Option<&HealthMonitor>) -> f64 {
        let dilation = self.injector.compute_dilation(rank);
        if let Some(mon) = monitor {
            mon.observe_compute(rank, dilation);
        }
        dilation
    }
}

/// The member order a health-aware rank reads in: blacklisted-OST members
/// last (stable within each class), exactly [`enkf_health::RouteView::reorder`]
/// on the monitor's frozen view; plan order when no monitor is attached.
pub(crate) fn read_order(members: &[usize], monitor: Option<&HealthMonitor>) -> Vec<usize> {
    match monitor {
        Some(mon) => mon.view().reorder(members),
        None => members.to_vec(),
    }
}
