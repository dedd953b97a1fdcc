//! Modeled (discrete-event) executors for paper-scale experiments.

pub mod campaign;
pub mod denkf;
pub mod lenkf;
pub mod penkf;
pub mod reading;
pub mod senkf;

use crate::report::PhaseBreakdown;
use crate::CampaignExecutor;
use enkf_fault::{FaultConfig, FaultInjector, FaultLog};
use enkf_health::{HealthMonitor, ReadRoute};
use enkf_net::NetParams;
use enkf_pfs::{ModeledPfs, PfsParams};
use enkf_sim::{AgentId, Kind, ResourceId, Simulation, Task};
use enkf_trace::{OpTag, Trace};
use enkf_tuning::Workload;

/// The OST resource hosting OST index `ost` (mirrors the real side's
/// `member % num_osts` striping — `ModeledPfs::ost_of_file` is this very
/// modulus applied to a member index).
fn ost_resource(pfs: &ModeledPfs, ost: usize) -> ResourceId {
    pfs.osts()[ost % pfs.osts().len()]
}

/// Weave one member read into the DES graph — the model-side mirror of the
/// real executors' `read_region_adaptive` call, shared by every variant.
///
/// Without a monitor this is the classic resilient weave: per attempt of
/// the *deadline-capped* schedule, a backoff `Fault` task (attempt > 0), an
/// injected-failure `Fault` task occupying the member's OST for a full
/// service, or the successful `Read`; the fault log records
/// backoff/injected/recovered exactly as the real retry loop does.
///
/// With a monitor, the same frozen [`enkf_health::RouteView`] the real rank
/// consults picks the route first: a blacklisted primary OST adds the
/// zero-service cancelled-duplicate `Fault` marker (carrying the region's
/// bytes/seeks, mirroring the real marker span) and charges the weave at
/// the deterministic race winner's OST and slowdown factor; the served read
/// reports the same `(ost, member, ratio)` observation to the monitor. This
/// shared decision procedure is what keeps real and modeled trace, fault
/// *and* health digests byte-identical under a common seed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn weave_member_read(
    sim: &mut Simulation,
    pfs: &ModeledPfs,
    injector: &FaultInjector,
    monitor: Option<&HealthMonitor>,
    agent: AgentId,
    rank: usize,
    stage: Option<usize>,
    io: bool,
    member: usize,
    seeks: u64,
    bytes: u64,
) -> Result<(), String> {
    let retry = *injector.retry();
    let fails = injector.read_fail_attempts(member);
    let base = pfs.read_service(seeks, bytes);
    let tag = OpTag {
        io,
        stage,
        bytes,
        seeks,
        member: Some(member),
        ..OpTag::default()
    };
    let (resource, service, observed) = match monitor {
        None => (
            pfs.ost_of_file(member),
            base * injector.file_slowdown(member),
            None,
        ),
        Some(mon) => {
            let view = mon.view();
            let ost = view.ost_of(member);
            let primary_factor = injector.ost_factor(ost);
            let replica_factor = injector.ost_factor(view.replica_of(ost));
            match view.route(member, primary_factor, replica_factor) {
                ReadRoute::Primary => (
                    ost_resource(pfs, ost),
                    base * primary_factor,
                    Some((mon, ost, primary_factor)),
                ),
                ReadRoute::Speculate {
                    replica,
                    replica_wins,
                } => {
                    mon.speculated(rank, stage, member, ost, replica, replica_wins);
                    let (winner_ost, winner_factor) = if replica_wins {
                        (replica, replica_factor)
                    } else {
                        (ost, primary_factor)
                    };
                    // The losing duplicate, cancelled at first completion:
                    // a zero-service marker with the region's footprint.
                    sim.add_task(Task::new(agent, Kind::Fault, 0.0).with_op(tag))
                        .map_err(|e| e.to_string())?;
                    (
                        ost_resource(pfs, winner_ost),
                        base * winner_factor,
                        Some((mon, winner_ost, winner_factor)),
                    )
                }
            }
        }
    };
    for attempt in 0..retry.scheduled_attempts() {
        if attempt > 0 {
            injector.log().backoff(rank, stage, member, attempt - 1);
            sim.add_task(
                Task::new(agent, Kind::Fault, retry.backoff(attempt - 1)).with_op(OpTag {
                    io,
                    stage,
                    member: Some(member),
                    ..OpTag::default()
                }),
            )
            .map_err(|e| e.to_string())?;
        }
        if attempt < fails {
            // Injected failure: the attempt still occupies the OST for a
            // full service, mirroring the real read-and-discard.
            injector.log().injected(rank, stage, member, attempt);
            sim.add_task(
                Task::new(agent, Kind::Fault, service)
                    .with_resources(vec![resource])
                    .with_op(tag),
            )
            .map_err(|e| e.to_string())?;
            continue;
        }
        sim.add_task(
            Task::new(agent, Kind::Read, service)
                .with_resources(vec![resource])
                .with_op(tag),
        )
        .map_err(|e| e.to_string())?;
        if attempt > 0 {
            injector.log().recovered(rank, stage, member, attempt);
        }
        if let Some((mon, obs_ost, factor)) = observed {
            mon.observe_read(obs_ost, member, factor);
        }
        break;
    }
    Ok(())
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

/// Configuration of a modeled run: workload geometry plus substrate
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConfig {
    /// Problem geometry (mesh, members, bytes per point, radii).
    pub workload: Workload,
    /// The modeled parallel file system.
    pub pfs: PfsParams,
    /// The modeled interconnect.
    pub net: NetParams,
    /// Local-analysis cost per grid point, seconds (`c` in Table 1).
    pub compute_cost_per_point: f64,
    /// Observation network stride (every `obs_stride`-th point in each
    /// direction is observed — `ScenarioBuilder`'s uniform network). The
    /// batched D-EnKF model needs it to recompute each shard's observed
    /// row count, which sizes the exchanged observation blocks.
    pub obs_stride: usize,
}

impl ModelConfig {
    /// The paper-scale configuration: 0.1° ocean workload on the
    /// Tianhe-2-like substrate.
    pub fn paper() -> Self {
        let machine = enkf_tuning::MachineParams::tianhe2_like();
        ModelConfig {
            workload: Workload::paper_ocean(),
            pfs: PfsParams::tianhe2_like(),
            net: NetParams {
                alpha: machine.a,
                beta: machine.b,
            },
            compute_cost_per_point: machine.c,
            obs_stride: 3,
        }
    }

    /// This configuration as seen by a campaign granted a fair-share slice
    /// of the machine: the PFS and interconnect both deliver `share` of
    /// their bandwidth (seek cost and message startup unchanged). The
    /// multi-tenant scheduler re-models a campaign's cycles through this
    /// whenever its allocation changes, so contention shows up as a
    /// reshaped DES — different overlap, different queueing — rather than
    /// a scalar correction.
    pub fn with_bandwidth_share(&self, share: f64) -> ModelConfig {
        ModelConfig {
            pfs: self.pfs.with_bandwidth_share(share),
            net: self.net.with_bandwidth_share(share),
            ..*self
        }
    }

    /// The equivalent closed-form cost parameters (for model-vs-DES
    /// comparisons like Figure 12).
    pub fn cost_params(&self) -> enkf_tuning::CostParams {
        enkf_tuning::CostParams {
            workload: self.workload,
            machine: enkf_tuning::MachineParams {
                a: self.net.alpha,
                b: self.net.beta,
                c: self.compute_cost_per_point,
                theta: self.pfs.byte_time,
            },
        }
    }
}

/// The result of one modeled run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelOutcome {
    /// Virtual end-to-end runtime, seconds.
    pub makespan: f64,
    /// Mean phases per compute rank.
    pub compute_mean: PhaseBreakdown,
    /// Mean phases per I/O rank (zero for variants without I/O ranks).
    pub io_mean: PhaseBreakdown,
    /// Number of compute ranks.
    pub num_compute_ranks: usize,
    /// Number of dedicated I/O ranks.
    pub num_io_ranks: usize,
    /// Virtual time at which the first local-analysis task started — the
    /// exposed (un-overlapped) read+comm prefix of Fig. 9/13's discussion.
    pub first_compute_start: f64,
    /// Ensemble members dropped by degraded-mode execution (ascending;
    /// empty on a fault-free run).
    pub dropped_members: Vec<usize>,
}

impl ModelOutcome {
    /// Total processors used.
    pub fn total_ranks(&self) -> usize {
        self.num_compute_ranks + self.num_io_ranks
    }

    /// The fraction of the runtime during which data obtaining (reads,
    /// communication, and the I/O side's waiting) is hidden behind local
    /// computation — Figure 11's overlapped-time share. Only the first
    /// stage's acquisition is exposed ("the only part in the algorithm that
    /// could not be overlapped is the first file reading and data
    /// communication", §5.4), so the share is
    /// `1 − first_compute_start / makespan`.
    pub fn overlapped_fraction(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (1.0 - self.first_compute_start / self.makespan).clamp(0.0, 1.0)
    }
}

impl CampaignExecutor {
    /// Run one assimilation cycle of this variant as a discrete-event
    /// model: the DES mirror of [`CampaignExecutor::run`]. Under a common
    /// fault plan (and monitor state) the trace, fault-log and health
    /// digests are byte-identical to the real executor's. D-EnKF's `kernel`
    /// is not read: it changes flops, not operation structure.
    pub fn model(
        &self,
        cfg: &ModelConfig,
        faults: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(ModelOutcome, Trace, FaultLog), String> {
        match *self {
            CampaignExecutor::LEnkf { nsdx, nsdy } => {
                lenkf::model_lenkf_adaptive(cfg, nsdx, nsdy, faults, monitor)
            }
            CampaignExecutor::PEnkf { nsdx, nsdy } => {
                penkf::model_penkf_adaptive(cfg, nsdx, nsdy, faults, monitor)
            }
            CampaignExecutor::SEnkf(p) => {
                senkf::model_senkf_adaptive(cfg, p, true, faults, monitor)
            }
            CampaignExecutor::DEnkf { shards, .. } => {
                denkf::model_denkf_adaptive(cfg, shards, faults, monitor)
            }
        }
    }
}
