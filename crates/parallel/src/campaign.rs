//! Supervised multi-cycle assimilation campaigns with crash recovery.
//!
//! A *campaign* runs K forecast–observe–analyze cycles of a
//! [`CycledExperiment`] through one of the parallel executors
//! (L/P/S/D-EnKF), checkpointing the resumable state after every cycle via
//! [`enkf_ckpt::CheckpointStore`]. The supervisor wraps each cycle's
//! [`CampaignExecutor::run`] call and turns substrate failures — rank
//! crashes, helper thread deaths, retry exhaustion, receive timeouts — into
//! *recoveries*: tear the cycle down, restore the last durable checkpoint
//! **from disk**, and re-run under an exponential-backoff restart budget.
//! Members the fault plan makes unrecoverable degrade the campaign to the
//! N−1 path (the ensemble continues on the survivors) instead of consuming
//! restarts.
//!
//! Restoring from disk even for in-process recoveries is what makes the
//! headline invariant hold: **kill–resume determinism**. A campaign killed
//! after any completed cycle and resumed from the checkpoint directory
//! produces bit-identical final ensembles, per-cycle statistics, and
//! per-cycle trace digests to an uninterrupted run — recovery replays the
//! exact RNG cursor, truth state and ensembles the uninterrupted run had at
//! that cycle boundary, so there is nothing left to diverge.
//!
//! With [`CkptMode::Pipelined`] the supervisor additionally moves each
//! checkpoint write off the critical path: cycle k's durable write runs on
//! a background [`AsyncCheckpointer`] thread while cycle k+1's forecast
//! and read phase proceed, with at most one write in flight and drain
//! barriers at campaign end, before every restore, and on error paths.
//! The durable frontier then lags the computed frontier by at most one
//! cycle; recovery always restores the last *durable* cycle, and
//! kill–resume determinism is untouched (cycle digests hash executor
//! traces only, and replays from an older frontier are bit-identical).

use crate::exec::setup::AssimilationSetup;
use crate::report::ExecutionReport;
use crate::{DEnkf, LEnkf, PEnkf, SEnkf};
use enkf_ckpt::{fnv64, AsyncCheckpointer, CampaignCheckpoint, CheckpointStore, CkptError};
use enkf_core::{inflated, EnkfError, Ensemble, LocalAnalysis, Result as CoreResult};
use enkf_data::{write_ensemble, CycleConfig, CycleState, CycleStats, CycledExperiment};
use enkf_fault::{FaultConfig, FaultLog, RetryPolicy, SubstrateError};
use enkf_grid::Mesh;
use enkf_health::{HealthMonitor, HealthParams, HealthSnapshot};
use enkf_pfs::FileStore;
use enkf_trace::{RankTracer, Role, Trace};
use enkf_tuning::Params;
use std::time::{Duration, Instant};

/// One parallel variant with its configuration: the value both worlds
/// dispatch on. [`CampaignExecutor::run`] runs a cycle on the real
/// threaded executor and [`CampaignExecutor::model`] runs its DES mirror;
/// all four variants share the supervisor, the checkpoint format and the
/// recovery state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignExecutor {
    /// Single-reader baseline (§6).
    LEnkf {
        /// Sub-domains along longitude.
        nsdx: usize,
        /// Sub-domains along latitude.
        nsdy: usize,
    },
    /// Block-reading baseline (Fig. 3).
    PEnkf {
        /// Sub-domains along longitude.
        nsdx: usize,
        /// Sub-domains along latitude.
        nsdy: usize,
    },
    /// The paper's co-designed variant (Figs. 6–8).
    SEnkf(Params),
    /// The distributed-array non-sequential variant: `shards` state shards,
    /// one batched analysis with a selectable `C⁻¹` kernel.
    DEnkf {
        /// State shards (= ranks).
        shards: usize,
        /// Kernel applying `C⁻¹` in the batched transform.
        kernel: enkf_core::BatchedKernel,
    },
}

impl CampaignExecutor {
    /// Ranks the executor occupies; the supervisor traces as rank
    /// `num_ranks()` so its spans never collide with an executor rank.
    pub fn num_ranks(&self) -> usize {
        match *self {
            CampaignExecutor::LEnkf { nsdx, nsdy } | CampaignExecutor::PEnkf { nsdx, nsdy } => {
                nsdx * nsdy
            }
            CampaignExecutor::SEnkf(p) => p.c2() + p.ncg * p.nsdy,
            CampaignExecutor::DEnkf { shards, .. } => shards,
        }
    }

    /// Run one assimilation cycle on the real executor this value names;
    /// see [`LEnkf::run`], [`PEnkf::run`], [`SEnkf::run`] and
    /// [`DEnkf::run`]. [`CampaignExecutor::model`] is the DES mirror.
    pub fn run(
        &self,
        setup: &AssimilationSetup<'_>,
        faults: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> CoreResult<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        match *self {
            CampaignExecutor::LEnkf { nsdx, nsdy } => {
                LEnkf { nsdx, nsdy }.run(setup, faults, monitor)
            }
            CampaignExecutor::PEnkf { nsdx, nsdy } => {
                PEnkf { nsdx, nsdy }.run(setup, faults, monitor)
            }
            CampaignExecutor::SEnkf(p) => SEnkf::new(p).run(setup, faults, monitor),
            CampaignExecutor::DEnkf { shards, kernel } => {
                DEnkf { shards, kernel }.run(setup, faults, monitor)
            }
        }
    }

    /// Local-analysis stages per cycle: the S-EnKF layer count `L`, one
    /// for the single-stage variants. A crash entering stage `s` has
    /// thrown away `s / L` of the cycle.
    pub(crate) fn layers(&self) -> usize {
        match *self {
            CampaignExecutor::SEnkf(p) => p.layers,
            CampaignExecutor::LEnkf { .. }
            | CampaignExecutor::PEnkf { .. }
            | CampaignExecutor::DEnkf { .. } => 1,
        }
    }
}

/// Configuration of a supervised campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Experiment mesh.
    pub mesh: Mesh,
    /// Cycles to complete.
    pub cycles: usize,
    /// Initial ensemble size.
    pub members: usize,
    /// Twin-experiment cycle configuration.
    pub cycle: CycleConfig,
    /// Campaign seed (drives truth, ensembles, observation noise).
    pub seed: u64,
    /// Local analysis kernel.
    pub analysis: LocalAnalysis,
    /// Multiplicative background inflation applied before each analysis.
    pub inflation: f64,
    /// Restart budget: how many recoveries per cycle, with what backoff.
    pub restart: RetryPolicy,
}

impl CampaignConfig {
    /// Fingerprint of everything that must match for a checkpoint to be
    /// resumable: mesh, members, seed, cycle physics, analysis kernel,
    /// inflation, and the executor (a different executor would change the
    /// per-cycle trace digests).
    pub fn fingerprint(&self, exec: &CampaignExecutor) -> u64 {
        fnv64(
            format!(
                "{:?}|{}|{}|{:?}|{:?}|{}|{:?}",
                self.mesh, self.members, self.seed, self.cycle, self.analysis, self.inflation, exec
            )
            .as_bytes(),
        )
    }
}

/// How the supervisor spends restart backoff between recovery attempts.
///
/// The real deployment sleeps wall-clock time ([`BackoffClock::Wall`]),
/// but that clock is injectable so the scheduler and conformance suites
/// run recoveries in virtual time: [`BackoffClock::Virtual`] skips the
/// sleep and accounts the would-be delay in
/// [`CampaignReport::virtual_backoff`] instead. Both clocks take the
/// identical recovery path — same checkpoint restores, same trace
/// operation structure (digests exclude durations), same results — so
/// tests lose the seconds of dead sleeping, not coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackoffClock {
    /// Sleep restart backoffs on the wall clock (production behaviour).
    #[default]
    Wall,
    /// Account restart backoffs in virtual time without sleeping.
    Virtual,
}

/// How the supervisor commits per-cycle checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptMode {
    /// Write each checkpoint on the critical path before starting the next
    /// cycle (the PR 5 behaviour; durable frontier == computed frontier).
    #[default]
    Sync,
    /// Hand each checkpoint to a background writer and overlap the write
    /// with the next cycle's forecast and read phase. At most one write is
    /// in flight; the durable frontier lags by ≤ 1 cycle.
    Pipelined,
}

/// Per-invocation context of a supervised campaign: who the campaign
/// belongs to and how backoff time passes. [`run_campaign`] uses the
/// default (anonymous tenant, wall-clock backoff); the multi-tenant
/// scheduler dispatches through [`run_campaign_ctx`] with a tenant tag and
/// a virtual clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignCtx {
    /// `(tenant, job)` stamped on every span of the campaign trace.
    pub tenant: Option<(u32, u32)>,
    /// The restart-backoff clock.
    pub backoff: BackoffClock,
    /// Synchronous or pipelined checkpoint commits.
    pub ckpt_mode: CkptMode,
    /// Online health monitoring: `Some(params)` attaches a cross-cycle
    /// [`HealthMonitor`] — each cycle runs through the executors' adaptive
    /// read path (blacklisted-OST members last, speculative duplicates,
    /// deadline-budgeted retries) and the detectors step at every
    /// successful cycle boundary. Detector state is in-memory only: a
    /// campaign resumed from a checkpoint restarts its detectors cold
    /// (conservative — probation clears, suspicion re-accrues), so the
    /// kill–resume bit-identity guarantee applies to non-adaptive
    /// campaigns; adaptive campaigns are deterministic per uninterrupted
    /// run of a seeded plan.
    pub health: Option<HealthParams>,
}

/// One recovery action the supervisor took.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Cycle being attempted when the failure hit.
    pub cycle: usize,
    /// Attempt number within the cycle (0 = first run).
    pub attempt: u32,
    /// The substrate failure, rendered.
    pub error: String,
    /// Whether this recovery degraded the campaign to the N−1 path
    /// instead of consuming restart budget.
    pub degraded: bool,
    /// Checkpoint cycle the supervisor restored from.
    pub restored_from: usize,
}

/// What a completed campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// Per-cycle twin-experiment statistics, cycle 0..K.
    pub stats: Vec<CycleStats>,
    /// FNV-64 hash of each cycle's executor trace digest — the kill–resume
    /// conformance artifact (bit-identical across interruptions).
    pub cycle_digests: Vec<u64>,
    /// The final analysis ensemble.
    pub final_analysis: Ensemble,
    /// Executor spans of every cycle run in *this* process, plus the
    /// supervisor's checkpoint/restore/recovery spans.
    pub trace: Trace,
    /// Every recovery the supervisor performed.
    pub recoveries: Vec<RecoveryEvent>,
    /// `Some(c)` when the campaign resumed from an on-disk checkpoint at
    /// cycle `c` instead of starting fresh.
    pub resumed_from: Option<usize>,
    /// Whether the campaign finished on the degraded (N−k) path.
    pub degraded: bool,
    /// Members dropped by degradation (by original index).
    pub dropped_members: Vec<usize>,
    /// Wall-clock seconds for this process's portion of the campaign.
    pub wall_time: f64,
    /// Restart-backoff seconds accounted but not slept
    /// ([`BackoffClock::Virtual`]); zero under the wall clock.
    pub virtual_backoff: f64,
    /// One [`HealthSnapshot`] per completed cycle when the campaign ran
    /// with [`CampaignCtx::health`]; empty otherwise. The scheduler feeds
    /// these to its rebalance to reprice SLAs against degraded capacity.
    pub health_snapshots: Vec<HealthSnapshot>,
    /// Canonical digest of every health decision the campaign's monitor
    /// made (`None` without monitoring) — the chaos-soak conformance
    /// artifact, byte-identical to the modeled campaign's under a common
    /// seeded plan.
    pub health_digest: Option<String>,
}

/// Supervisor-level failures.
#[derive(Debug)]
pub enum CampaignError {
    /// Saving or loading a checkpoint failed.
    Checkpoint(CkptError),
    /// Writing the background ensemble to the work store failed.
    Io(std::io::Error),
    /// The analysis itself failed for a non-substrate reason (geometry,
    /// linear algebra) — restarting cannot help.
    Analysis(EnkfError),
    /// A cycle kept failing past the restart budget.
    RestartBudgetExhausted {
        /// The cycle that would not complete.
        cycle: usize,
        /// Attempts made (initial + restarts).
        attempts: u32,
        /// The last substrate failure, rendered.
        last: String,
    },
    /// Recovery needed a checkpoint but no durable one survives.
    NoCheckpoint {
        /// The cycle being recovered.
        cycle: usize,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Io(e) => write!(f, "work-store write failed: {e}"),
            CampaignError::Analysis(e) => write!(f, "analysis failed: {e}"),
            CampaignError::RestartBudgetExhausted {
                cycle,
                attempts,
                last,
            } => write!(
                f,
                "cycle {cycle} failed {attempts} attempts, restart budget exhausted: {last}"
            ),
            CampaignError::NoCheckpoint { cycle } => write!(
                f,
                "recovery of cycle {cycle} found no durable checkpoint to restore"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CkptError> for CampaignError {
    fn from(e: CkptError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

fn experiment_from(cfg: &CampaignConfig, ck: &CampaignCheckpoint) -> CycledExperiment {
    CycledExperiment::restore(
        cfg.mesh,
        cfg.members,
        cfg.cycle,
        cfg.seed,
        CycleState {
            cycle: ck.cycle,
            rng_cursor: ck.rng_cursor,
            truth: ck.truth.clone(),
            background: ck.analysis.clone(),
            free_run: ck.free_run.clone(),
        },
    )
}

fn checkpoint_of(
    cfg: &CampaignConfig,
    fp: u64,
    exp: &CycledExperiment,
    stats: &[CycleStats],
    digests: &[u64],
) -> CampaignCheckpoint {
    let s = exp.snapshot();
    CampaignCheckpoint {
        cycle: s.cycle,
        seed: cfg.seed,
        members0: cfg.members,
        rng_cursor: s.rng_cursor,
        config_fp: fp,
        truth: s.truth,
        analysis: s.background,
        free_run: s.free_run,
        stats: stats.to_vec(),
        cycle_digests: digests.to_vec(),
    }
}

/// Run (or resume) a supervised campaign.
///
/// `work` is the ensemble work store the executors read from — each cycle
/// the inflated background is written there before the executor runs.
/// `ckpt` is the durable checkpoint directory: if it already holds a
/// checkpoint with a matching [`CampaignConfig::fingerprint`], the
/// campaign resumes from it; otherwise it starts fresh (and commits the
/// initial state as cycle 0's recovery line before running anything).
///
/// Failure handling per cycle attempt:
///
/// * [`SubstrateError::Unrecoverable`] — a member is *permanently* lost:
///   restore the checkpoint and re-run degraded (N−1); does not consume
///   restart budget.
/// * Any other [`SubstrateError`] (crash, helper failure, timeout, retry
///   exhaustion) — transient: sleep the restart backoff, restore the last
///   durable checkpoint from disk, re-run. Cycle-scoped crashes in the
///   plan fire only on attempt 0, modelling a replaced node.
/// * Non-substrate errors abort the campaign
///   ([`CampaignError::Analysis`]).
pub fn run_campaign(
    work: &FileStore,
    ckpt: &CheckpointStore,
    exec: &CampaignExecutor,
    cfg: &CampaignConfig,
    fault: &FaultConfig,
) -> Result<CampaignReport, CampaignError> {
    run_campaign_ctx(work, ckpt, exec, cfg, fault, &CampaignCtx::default())
}

/// [`run_campaign`] with an explicit [`CampaignCtx`]: a tenant/job tag
/// stamped on the campaign trace and an injectable restart-backoff clock.
pub fn run_campaign_ctx(
    work: &FileStore,
    ckpt: &CheckpointStore,
    exec: &CampaignExecutor,
    cfg: &CampaignConfig,
    fault: &FaultConfig,
    ctx: &CampaignCtx,
) -> Result<CampaignReport, CampaignError> {
    let t0 = Instant::now();
    let fp = cfg.fingerprint(exec);
    let mut sup = RankTracer::new(exec.num_ranks(), t0);
    sup.set_role(Role::Io);

    match ctx.ckpt_mode {
        CkptMode::Sync => {
            let eng = Engine {
                t0,
                fp,
                sup,
                writer: None,
            };
            supervise(work, ckpt, exec, cfg, fault, ctx, eng)
        }
        CkptMode::Pipelined => std::thread::scope(|s| {
            // The writer traces on a fork of the supervisor tracer (same
            // rank, role and epoch), so pipelined and synchronous
            // campaigns emit the identical Ckpt span multiset.
            let writer = AsyncCheckpointer::spawn(s, ckpt, sup.fork());
            let eng = Engine {
                t0,
                fp,
                sup,
                writer: Some(&writer),
            };
            supervise(work, ckpt, exec, cfg, fault, ctx, eng)
        }),
    }
}

/// Supervisor state threaded into [`supervise`]: the campaign clock and
/// fingerprint, the supervisor tracer, and (in pipelined mode) the
/// background checkpoint writer.
struct Engine<'a, 'scope> {
    t0: Instant,
    fp: u64,
    sup: RankTracer,
    writer: Option<&'a AsyncCheckpointer<'scope>>,
}

/// Drain barrier: wait out any in-flight asynchronous checkpoint, fold its
/// spans into the campaign trace, and surface a deferred write error. A
/// no-op in synchronous mode.
fn drain_writer(
    writer: Option<&AsyncCheckpointer<'_>>,
    trace: &mut Trace,
) -> Result<(), CampaignError> {
    if let Some(w) = writer {
        let (spans, res) = w.drain();
        trace.extend(spans);
        res.map_err(|e| CampaignError::Checkpoint(CkptError::Io(e)))?;
    }
    Ok(())
}

fn supervise(
    work: &FileStore,
    ckpt: &CheckpointStore,
    exec: &CampaignExecutor,
    cfg: &CampaignConfig,
    fault: &FaultConfig,
    ctx: &CampaignCtx,
    eng: Engine<'_, '_>,
) -> Result<CampaignReport, CampaignError> {
    let Engine {
        t0,
        fp,
        mut sup,
        writer,
    } = eng;

    let mut stats: Vec<CycleStats> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut trace = Trace::new("campaign-real");
    let mut recoveries = Vec::new();
    let mut dropped_members = Vec::new();
    let mut degraded_mode = false;
    let mut virtual_backoff = 0.0f64;
    let mut monitor = ctx.health.map(HealthMonitor::new);
    let mut health_snapshots: Vec<HealthSnapshot> = Vec::new();

    let (mut exp, resumed_from) = match ckpt.load_latest(fp, Some(&mut sup))? {
        Some((ck, _skipped)) => {
            stats = ck.stats.clone();
            digests = ck.cycle_digests.clone();
            degraded_mode = ck.analysis.size() < ck.members0;
            let cycle = ck.cycle;
            (experiment_from(cfg, &ck), Some(cycle))
        }
        None => {
            let exp = CycledExperiment::new(cfg.mesh, cfg.members, cfg.cycle, cfg.seed);
            // Commit the initial state before running anything: cycle 0 is
            // the recovery line for a crash in the very first cycle.
            ckpt.save(&checkpoint_of(cfg, fp, &exp, &[], &[]), Some(&mut sup))
                .map_err(|e| CampaignError::Checkpoint(CkptError::Io(e)))?;
            (exp, None)
        }
    };

    let mut attempt: u32 = 0; // attempts within the current cycle
    let mut restarts: u32 = 0; // budget-consuming restarts within it
    while exp.cycle() < cfg.cycles {
        let c = exp.cycle();
        let fcfg = FaultConfig {
            plan: fault.plan.for_cycle_attempt(c, attempt),
            retry: fault.retry,
            degraded: fault.degraded || degraded_mode,
            recv_timeout: fault.recv_timeout,
        };
        let mut cycle_out: Option<(ExecutionReport, Trace)> = None;
        let res = exp.run_cycle(|bg, obs| {
            let inflated_bg = inflated(bg, cfg.inflation);
            write_ensemble(work, &inflated_bg).map_err(CampaignError::Io)?;
            let setup = AssimilationSetup {
                store: work,
                members: inflated_bg.size(),
                observations: obs,
                analysis: cfg.analysis,
            };
            let (analysis, report, cycle_trace, _log) = exec
                .run(&setup, &fcfg, monitor.as_ref())
                .map_err(CampaignError::Analysis)?;
            cycle_out = Some((report, cycle_trace));
            Ok(analysis)
        });
        match res {
            Ok(s) => {
                let (report, cycle_trace) = cycle_out.expect("successful cycle produced a trace");
                stats.push(s);
                digests.push(fnv64(cycle_trace.digest().as_bytes()));
                trace.extend(cycle_trace.spans().iter().cloned());
                for m in report.dropped_members {
                    if !dropped_members.contains(&m) {
                        dropped_members.push(m);
                    }
                }
                if let Some(mon) = monitor.as_mut() {
                    // Cycle boundary: fold this cycle's observations into
                    // the detectors and refreeze the routing view the next
                    // cycle's readers will consult.
                    health_snapshots.push(mon.end_cycle());
                }
                let snapshot = checkpoint_of(cfg, fp, &exp, &stats, &digests);
                match writer {
                    // Pipelined: hand the O(1) snapshot to the background
                    // writer and start the next cycle immediately; blocks
                    // only if the previous write is still in flight.
                    Some(w) => w
                        .save_async(snapshot)
                        .map_err(|e| CampaignError::Checkpoint(CkptError::Io(e)))?,
                    None => ckpt
                        .save(&snapshot, Some(&mut sup))
                        .map_err(|e| CampaignError::Checkpoint(CkptError::Io(e)))?,
                }
                attempt = 0;
                restarts = 0;
            }
            Err(CampaignError::Analysis(EnkfError::Substrate(se))) => {
                if let Some(mon) = monitor.as_ref() {
                    // The attempt failed mid-cycle: discard its partial
                    // observations — the re-run re-observes the full cycle,
                    // keeping detection a pure function of completed cycles.
                    mon.abort_cycle();
                }
                let permanent_loss = matches!(se, SubstrateError::Unrecoverable { .. });
                if !permanent_loss {
                    if restarts >= cfg.restart.max_retries {
                        return Err(CampaignError::RestartBudgetExhausted {
                            cycle: c,
                            attempts: attempt + 1,
                            last: se.to_string(),
                        });
                    }
                    let backoff = cfg.restart.backoff(restarts);
                    match ctx.backoff {
                        BackoffClock::Wall => {
                            sup.recovery(|| std::thread::sleep(Duration::from_secs_f64(backoff)));
                        }
                        BackoffClock::Virtual => {
                            virtual_backoff += backoff;
                            sup.recovery(|| ());
                        }
                    }
                    restarts += 1;
                } else {
                    // Permanently lost member: re-run degraded on the
                    // survivors. Free of budget — the failure cannot recur
                    // once the member is dropped.
                    degraded_mode = true;
                    sup.recovery(|| ());
                }
                // Restore from *disk*, not from memory: in-process recovery
                // and a process kill + resume take the identical path. The
                // drain barrier first waits out any in-flight asynchronous
                // write, so the restore sees the freshest durable cycle and
                // never races the writer.
                drain_writer(writer, &mut trace)?;
                let Some((ck, _skipped)) = ckpt.load_latest(fp, Some(&mut sup))? else {
                    return Err(CampaignError::NoCheckpoint { cycle: c });
                };
                recoveries.push(RecoveryEvent {
                    cycle: c,
                    attempt,
                    error: se.to_string(),
                    degraded: permanent_loss,
                    restored_from: ck.cycle,
                });
                stats = ck.stats.clone();
                digests = ck.cycle_digests.clone();
                exp = experiment_from(cfg, &ck);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }

    // End-of-campaign drain barrier: the report is complete only once the
    // final cycle's checkpoint is durable (and its spans are in the trace).
    drain_writer(writer, &mut trace)?;
    let final_analysis = exp.background().clone();
    trace.extend(sup.into_spans());
    if let Some((tenant, job)) = ctx.tenant {
        trace.tag_tenant(tenant, job);
    }
    Ok(CampaignReport {
        stats,
        cycle_digests: digests,
        final_analysis,
        trace,
        recoveries,
        resumed_from,
        degraded: degraded_mode,
        dropped_members,
        wall_time: t0.elapsed().as_secs_f64(),
        virtual_backoff,
        health_snapshots,
        health_digest: monitor.map(|m| m.digest()),
    })
}
