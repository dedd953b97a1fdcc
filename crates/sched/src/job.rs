//! Job specifications and the DES-backed capacity planner.

use enkf_fault::FaultConfig;
use enkf_parallel::{
    CampaignConfig, CampaignExecutor, CampaignModelPlan, CkptMode, CyclePrice, ModelConfig,
};
use std::collections::BTreeMap;

use crate::tenant::TenantId;

/// A job's identity: the owning tenant plus a per-tenant sequence number
/// assigned at submit. Renders as `tenant.seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Submission sequence number within the tenant, from 0.
    pub seq: u32,
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.tenant, self.seq)
    }
}

/// The DES model of a job, used by the capacity planner to price its
/// cycles under any bandwidth share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobModel {
    /// Workload geometry and full-machine substrate parameters.
    pub cfg: ModelConfig,
    /// Which executor the modeled campaign drives (normally the job's
    /// own [`JobSpec::exec`]).
    pub variant: CampaignExecutor,
    /// Whether the supervisor checkpoints after every cycle.
    pub checkpoint: bool,
}

/// What one campaign asks of the service.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The real executor the campaign drives when dispatched.
    pub exec: CampaignExecutor,
    /// The campaign itself (mesh, cycles, seed, restart policy, …).
    pub campaign: CampaignConfig,
    /// Fault plan the campaign runs under.
    pub fault: FaultConfig,
    /// How the dispatched campaign commits checkpoints: synchronous (on
    /// the critical path) or pipelined behind the next cycle. One field
    /// drives both worlds — the real dispatcher passes it to
    /// `run_campaign_ctx` and the DES planner prices the matching
    /// schedule, so admission reasoning and execution can't disagree.
    pub ckpt_mode: CkptMode,
    /// DES model for capacity planning; `None` opts out of SLA admission
    /// (the job is best-effort and only rank/quota-gated).
    pub model: Option<JobModel>,
    /// Service-level agreement: the most virtual seconds the campaign may
    /// take from dispatch to completion. Requires `model`.
    pub sla: Option<f64>,
    /// Fraction of the aggregate OST bandwidth this job can usefully
    /// drive, in `(0, 1]` — its fair-share demand cap.
    pub bw_demand: f64,
}

impl JobSpec {
    /// A best-effort job (no SLA, full bandwidth demand) for `exec`.
    pub fn best_effort(exec: CampaignExecutor, campaign: CampaignConfig) -> Self {
        JobSpec {
            exec,
            campaign,
            fault: FaultConfig::none(),
            ckpt_mode: CkptMode::default(),
            model: None,
            sla: None,
            bw_demand: 1.0,
        }
    }

    /// Switch the campaign (and its DES pricing) to pipelined checkpoint
    /// commits.
    pub fn pipelined(mut self) -> Self {
        self.ckpt_mode = CkptMode::Pipelined;
        self
    }

    /// Compute ranks the job's executor occupies while running.
    pub fn ranks(&self) -> usize {
        self.exec.num_ranks()
    }
}

/// What one scheduling step of a job costs in virtual seconds at a given
/// bandwidth share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCost {
    /// One assimilation cycle, including its checkpoint commit.
    pub cycle: f64,
    /// The initial (cycle-0 recovery line) checkpoint paid at dispatch.
    pub init: f64,
}

/// Prices a job's scheduling steps under a bandwidth share. The DES
/// planner is the real implementation; tests may stub it.
pub trait Planner {
    /// Virtual cost of one cycle (and the dispatch-time initialization)
    /// of `spec` when granted `share` of the machine's bandwidth.
    fn step(&mut self, id: JobId, spec: &JobSpec, share: f64) -> StepCost;
}

/// The capacity planner: prices `(job, share)` by running the job's
/// single-cycle discrete-event model against the share-scaled substrate
/// ([`ModelConfig::with_bandwidth_share`]) and caching the result. One
/// price is one [`CyclePrice`] — one cycle DES for a synchronous campaign,
/// two for a pipelined one (the second on the substrate the background
/// writer leaves) — stitched span-free into the 1- and 2-cycle campaign
/// makespans it differences. Shares recur (they are ratios of a small
/// weight set), so a campaign's whole lifetime usually costs a handful of
/// DES runs.
#[derive(Debug, Default)]
pub struct DesPlanner {
    cache: BTreeMap<(JobId, u64), StepCost>,
}

impl DesPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Price a one-shot spec without an id (solo predictions).
    pub fn price(spec: &JobSpec, share: f64) -> StepCost {
        let model = spec
            .model
            .expect("capacity planning requires a JobSpec with a model");
        let shared = model.cfg.with_bandwidth_share(share);
        let plan = CampaignModelPlan {
            cycles: 2,
            checkpoint: model.checkpoint,
            pipelined: spec.ckpt_mode == CkptMode::Pipelined,
            restart: spec.campaign.restart,
        };
        let fault = FaultConfig::none();
        // One cycle price serves both campaign lengths: the cycle DES runs
        // once (plus once on the shared substrate when pipelined), and
        // each length is a span-free walk over the same numbers.
        let priced =
            CyclePrice::new(&shared, &model.variant, &plan, &fault).expect("campaign model failed");
        let run = |cycles: usize| {
            priced
                .stitch(cycles, None, None)
                .expect("campaign model failed")
                .makespan
        };
        // The steady-state step is the 2-cycle/1-cycle makespan difference
        // — exact for both commit modes: synchronous campaigns add
        // `cycle + ckpt` per extra cycle, pipelined ones add
        // `cycle + dilation + tail` (the drained final write merely shifts
        // from cycle K−1 to cycle K). `init` is whatever the first cycle
        // costs beyond that, so `init + K·cycle` reproduces the K-cycle
        // model makespan exactly.
        let t1 = run(1);
        let cycle = run(2) - t1;
        StepCost {
            cycle,
            init: t1 - cycle,
        }
    }
}

impl Planner for DesPlanner {
    fn step(&mut self, id: JobId, spec: &JobSpec, share: f64) -> StepCost {
        *self
            .cache
            .entry((id, share.to_bits()))
            .or_insert_with(|| DesPlanner::price(spec, share))
    }
}

/// A planner that prices every step at zero — for best-effort scheduling
/// paths (the real dispatcher) where no SLA reasoning happens.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPlanner;

impl Planner for NoPlanner {
    fn step(&mut self, _id: JobId, _spec: &JobSpec, _share: f64) -> StepCost {
        StepCost {
            cycle: 0.0,
            init: 0.0,
        }
    }
}
