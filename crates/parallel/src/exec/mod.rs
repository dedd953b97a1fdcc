//! Real (threaded) executors for the four parallel EnKF variants.
//!
//! The variants differ only in how blocks reach a rank; the rest of a
//! cycle is one scaffold, [`Cycle`]. It resolves the fault plan and the
//! monitor's read order once, runs the ranks on a traced
//! [`enkf_net::Cluster`] (crash-at-start check, I/O role), gives every
//! variant the same member read, receive, abort notice and dilated local
//! analysis, and folds the ranks' spans and results into the trace, the
//! [`ExecutionReport`] and the analysis. A failed cycle reports its root
//! cause: the first error in rank order that is not a peer's abort
//! notice ([`SubstrateError::PeerAborted`]); an abort is reported only
//! when no rank has another error. So a rank that fails a read surfaces
//! its read error whichever ranks were waiting on it.

pub mod denkf;
pub mod lenkf;
pub mod penkf;
pub mod senkf;
pub mod setup;
pub mod writeback;

use crate::prep::{read_order, FaultPrep};
use crate::report::{ExecutionReport, PhaseBreakdown};
use enkf_core::{EnkfError, Ensemble, Result};
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_grid::{Decomposition, RegionRect};
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_net::{Cluster, Inbox, RankCtx};
use enkf_pfs::{read_region_adaptive, RegionData};
use enkf_trace::{RankTracer, Role, Trace};
use setup::AssimilationSetup;
use std::collections::BTreeMap;
use std::time::Instant;

/// What travels between ranks: a variant's data, or a sender's notice
/// that it failed and will send no more. Without the notice a failing
/// sender would deadlock every rank blocked on its data.
#[derive(Debug, Clone)]
pub(crate) enum Wire<T> {
    /// The variant's payload.
    Data(T),
    /// The sender failed; its own error says why.
    Abort,
}

/// Region blocks of several members for one stage of the multi-stage
/// workflow (stage is always 0 for L-EnKF) — the L- and S-EnKF payload.
#[derive(Debug, Clone)]
pub(crate) struct Blocks {
    /// Multi-stage index (`l`), 0-based.
    pub stage: usize,
    /// Global member indices, parallel to `data`.
    pub members: Vec<usize>,
    /// One region payload per member.
    pub data: Vec<RegionData>,
}

/// The next payload in `inbox`, or the typed reason there is none: a
/// timeout, every peer gone, or a peer's abort notice.
pub(crate) fn receive<T>(
    inbox: &Inbox<Wire<T>>,
    timeout: Option<f64>,
) -> std::result::Result<T, SubstrateError> {
    let env = inbox.recv(timeout)?;
    match env.payload {
        Wire::Data(data) => Ok(data),
        Wire::Abort => Err(SubstrateError::PeerAborted {
            rank: inbox.rank(),
            peer: env.from,
        }),
    }
}

/// Tell `peers` this rank failed and will send them nothing more.
pub(crate) fn abort_peers<T: Send>(ctx: &RankCtx<Wire<T>>, peers: impl IntoIterator<Item = usize>) {
    for peer in peers {
        ctx.send(peer, Wire::Abort);
    }
}

/// The cycle scaffold shared by the four real executors.
pub(crate) struct Cycle<'c, 's> {
    /// The setup being assimilated.
    pub setup: &'c AssimilationSetup<'s>,
    /// The health monitor, if any.
    pub monitor: Option<&'c HealthMonitor>,
    /// The resolved fault plan.
    pub faults: FaultPrep,
    /// Every member in the monitor's read order.
    pub order: Vec<usize>,
}

impl<'c, 's> Cycle<'c, 's> {
    /// Resolve the fault plan and the read order before any thread is
    /// spawned.
    pub(crate) fn new(
        setup: &'c AssimilationSetup<'s>,
        faults: &FaultConfig,
        monitor: Option<&'c HealthMonitor>,
    ) -> Result<Self> {
        let faults = FaultPrep::new(faults, setup.members)?;
        Ok(Cycle {
            setup,
            monitor,
            order: read_order(&(0..setup.members).collect::<Vec<_>>(), monitor),
            faults,
        })
    }

    /// Read `region` of every member in the read order and return the
    /// surviving members' blocks ascending by member. Dropped members burn
    /// their injected-failure spans and are skipped; blocks are keyed by
    /// member, so neither the monitor's reorder nor the dropout reaches
    /// the analysis input.
    pub(crate) fn read_members(
        &self,
        tracer: &mut RankTracer,
        region: &RegionRect,
    ) -> Result<Vec<RegionData>> {
        let mut by_member = BTreeMap::new();
        for &k in &self.order {
            match read_region_adaptive(
                self.setup.store,
                tracer,
                None,
                k,
                region,
                &self.faults.injector,
                self.monitor,
            ) {
                Ok(d) => {
                    by_member.insert(k, d);
                }
                Err(_) if self.faults.dropped.contains(&k) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(by_member.into_values().collect())
    }

    /// Run `work` as one compute span of `rank`, stretched to the plan's
    /// straggler factor (which the monitor observes).
    pub(crate) fn compute<T>(
        &self,
        tracer: &mut RankTracer,
        rank: usize,
        stage: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> T {
        let factor = self.faults.dilation(rank, self.monitor);
        tracer.compute(stage, || {
            let start = Instant::now();
            let out = work();
            if factor > 1.0 {
                let elapsed = start.elapsed().as_secs_f64();
                std::thread::sleep(std::time::Duration::from_secs_f64(elapsed * (factor - 1.0)));
            }
            out
        })
    }

    /// The local analysis of `target` from the background over `expansion`
    /// (built by `xb` inside the compute span), against the surviving
    /// members' observations.
    pub(crate) fn analyze(
        &self,
        tracer: &mut RankTracer,
        rank: usize,
        stage: Option<usize>,
        target: &RegionRect,
        expansion: &RegionRect,
        xb: impl FnOnce() -> Matrix,
    ) -> Result<Matrix> {
        self.compute(tracer, rank, stage, || {
            let xb = xb();
            let mut obs = self.setup.observations.localize(expansion);
            if !self.faults.dropped.is_empty() {
                obs = obs.select_members(&self.faults.alive);
            }
            let mesh = self.setup.mesh();
            self.setup
                .analysis
                .analyze(mesh, target, expansion, &xb, &obs)
        })
    }

    /// Run `body` on one traced compute rank per sub-domain of `decomp`
    /// plus `io_ranks` I/O ranks after them, and fold the cycle. A plan
    /// crash at a compute rank's start ends it before `body` runs; each
    /// compute rank returns the analysis of its sub-domain. I/O ranks run
    /// `body` under the I/O role, handle their own crash stage and return
    /// `None`. `label` names the trace.
    pub(crate) fn run<M, F>(
        self,
        label: &str,
        decomp: &Decomposition,
        io_ranks: usize,
        body: F,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)>
    where
        M: Send,
        F: Fn(&Self, RankCtx<M>, &mut RankTracer) -> Result<Option<Matrix>> + Sync,
    {
        // Build the spatial observation index and perturbation cache once
        // per cycle, before the ranks start querying it.
        self.setup.observations.prepare();
        let compute_ranks = decomp.num_subdomains();
        let t0 = Instant::now();
        let results = Cluster::run_traced(compute_ranks + io_ranks, |ctx: RankCtx<M>, tracer| {
            let rank = ctx.rank();
            if rank >= compute_ranks {
                tracer.set_role(Role::Io);
            } else if let Some(stage) = self.faults.injector.crash_stage(rank) {
                self.faults.injector.log().crashed(rank, stage);
                return Err(SubstrateError::RankCrashed { rank, stage }.into());
            }
            body(&self, ctx, tracer)
        });

        let mut trace = Trace::new(label);
        let mut compute = PhaseBreakdown::default();
        let mut io = PhaseBreakdown::default();
        let mut per_domain = Vec::with_capacity(compute_ranks);
        let mut errors = Vec::new();
        for (rank, (res, spans)) in results.into_iter().enumerate() {
            let class = if rank < compute_ranks {
                &mut compute
            } else {
                &mut io
            };
            class.merge(&PhaseBreakdown::from_spans(&spans));
            trace.extend(spans);
            match res {
                Ok(Some(local)) => {
                    per_domain.push((decomp.subdomain(decomp.id_of_rank(rank)), local))
                }
                Ok(None) => {}
                Err(e) => errors.push(e),
            }
        }
        let is_abort =
            |e: &EnkfError| matches!(e, EnkfError::Substrate(SubstrateError::PeerAborted { .. }));
        let root = errors.iter().position(|e| !is_abort(e)).unwrap_or(0);
        if let Some(e) = errors.into_iter().nth(root) {
            return Err(e);
        }

        // Every sub-domain is analyzed exactly once, so every point of the
        // mesh is written.
        assert_eq!(
            per_domain.len(),
            compute_ranks,
            "missing sub-domain results"
        );
        let mesh = self.setup.mesh();
        let mut analysis = Ensemble::new(mesh, Matrix::zeros(mesh.n(), self.faults.alive.len()));
        for (region, local) in per_domain {
            analysis.assign(&region, &local);
        }
        let report = ExecutionReport {
            compute_ranks: compute,
            io_ranks: io,
            num_compute_ranks: compute_ranks,
            num_io_ranks: io_ranks,
            wall_time: t0.elapsed().as_secs_f64(),
            dropped_members: self.faults.dropped.clone(),
        };
        Ok((analysis, report, trace, self.faults.injector.into_log()))
    }
}
