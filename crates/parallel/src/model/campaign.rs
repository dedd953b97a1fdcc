//! DES model of a supervised, checkpointed campaign.
//!
//! The real supervisor ([`crate::campaign::run_campaign`]) interleaves
//! three kinds of work on the virtual timeline: assimilation cycles
//! (already modeled by the per-variant DES executors), checkpoint I/O (the
//! analysis members written back through the PFS after every cycle), and
//! recovery (the partial work a crashed attempt throws away, the restart
//! backoff, and the restore reads). This module stitches those into one
//! modeled campaign without re-running the cycle DES K times: a cycle's
//! operation structure is configuration-determined — every cycle of a
//! campaign has the identical span multiset, only time-shifted — so one
//! single-cycle simulation is computed and replayed along a running clock.
//! The two halves are separate steps: [`CyclePrice::new`] runs the cycle
//! DES, [`CyclePrice::stitch`] walks the K-cycle clock over its numbers,
//! so one price serves any number of campaign lengths, and a walk without
//! a span sink builds no trace at all.
//!
//! Checkpoint and restore I/O is costed through the same OST service
//! function the modeled PFS uses ([`PfsParams::read_service`]): one seek
//! plus `8·n` bytes per member, serial on the supervisor agent (matching
//! the real supervisor, which writes members through the `FileStore`
//! pooled path one at a time). A crashed attempt contributes one
//! [`Op::Recovery`] span covering the partial cycle (`stage/L` of the
//! cycle makespan), the receive-timeout detection latency, and the restart
//! backoff.
//!
//! With `checkpoint: false` the model reproduces the no-recovery-line
//! baseline: a crash throws away *all* completed cycles, which is the
//! comparison the Fig. 14-style MTTR sweep in `scripts/bench.sh` plots.

use super::{ModelConfig, ModelOutcome};
use crate::CampaignExecutor;
use enkf_ckpt::fnv64;
use enkf_fault::{FaultConfig, RetryPolicy};
use enkf_health::{HealthMonitor, HealthSnapshot};
use enkf_trace::{Op, Role, Span, Trace};
use std::collections::BTreeSet;

/// The variant value a modeled campaign drives: the same
/// [`CampaignExecutor`] the real supervisor runs. The alias stays because
/// the repository benchmark (`perfbench`) names it.
pub type ModelVariant = CampaignExecutor;

/// Campaign-level plan for the model.
#[derive(Debug, Clone, Copy)]
pub struct CampaignModelPlan {
    /// Cycles to complete.
    pub cycles: usize,
    /// Whether the supervisor checkpoints after every cycle. `false`
    /// models the no-recovery-line baseline: a crash restarts the whole
    /// campaign from cycle 0.
    pub checkpoint: bool,
    /// Whether checkpoint writes overlap the next cycle
    /// ([`crate::CkptMode::Pipelined`]). Ignored without `checkpoint`.
    pub pipelined: bool,
    /// Restart backoff policy (mirrors `CampaignConfig::restart`).
    pub restart: RetryPolicy,
}

/// What the modeled campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignModelOutcome {
    /// Virtual end-to-end campaign runtime, seconds.
    pub makespan: f64,
    /// Virtual runtime of one clean assimilation cycle.
    pub cycle_makespan: f64,
    /// Virtual seconds one checkpoint set costs (serial member writes).
    pub checkpoint_time: f64,
    /// Virtual seconds one restore costs (serial member reads).
    pub restore_time: f64,
    /// Recoveries performed.
    pub restarts: u32,
    /// Virtual seconds lost to failed attempts, backoff and re-done
    /// cycles (everything a fault-free campaign would not have spent,
    /// excluding checkpoint I/O itself).
    pub lost_time: f64,
    /// Checkpoint seconds on the critical path: time the campaign is
    /// longer than it would be with free durability. Synchronous
    /// campaigns expose every sweep; pipelined campaigns expose only the
    /// initial/final sweeps, OST contention dilation, and backpressure
    /// tails.
    pub ckpt_exposed: f64,
    /// Checkpoint seconds hidden behind overlapped cycle work (zero for
    /// synchronous campaigns).
    pub ckpt_hidden: f64,
    /// The single-cycle model outcome the campaign was stitched from (the
    /// baseline, monitor-free cycle in adaptive campaigns).
    pub cycle: ModelOutcome,
    /// FNV-64 hash of each completed cycle's trace digest, in cycle order
    /// — comparable entry for entry with the real supervisor's
    /// `CampaignReport::cycle_digests`. Without a monitor every entry is
    /// the same replayed cycle; with one, cycles re-model under the
    /// evolving routing view. Empty from a [`CyclePrice::stitch`] without
    /// a span sink.
    pub cycle_digests: Vec<u64>,
    /// One [`HealthSnapshot`] per completed cycle when a monitor was
    /// attached; empty otherwise.
    pub health_snapshots: Vec<HealthSnapshot>,
}

/// Model a K-cycle supervised campaign under `fcfg`. Cycle-scoped crashes
/// (`FaultPlan::with_crash_at_cycle`) fire on the first attempt of their
/// cycle, exactly like the real supervisor; all other faults apply to
/// every cycle (the per-cycle DES handles them). Returns the outcome plus
/// a campaign trace whose per-cycle digests equal the real supervisor's.
pub fn model_campaign(
    cfg: &ModelConfig,
    variant: &CampaignExecutor,
    camp: &CampaignModelPlan,
    fcfg: &FaultConfig,
) -> Result<(CampaignModelOutcome, Trace), String> {
    model_campaign_adaptive(cfg, variant, camp, fcfg, None)
}

/// [`model_campaign`] with online health monitoring: the mirror of
/// [`crate::run_campaign_ctx`] under [`crate::CampaignCtx::health`]. With a
/// monitor the one-cycle-replayed-K-times shortcut is no longer sound —
/// the frozen routing view evolves at every cycle boundary, reshaping the
/// next cycle's reads — so each completed cycle re-runs the per-variant
/// adaptive DES against the current view and then steps the detectors,
/// exactly the real supervisor's boundary fold. Crashed attempts feed no
/// observations on either side (the real supervisor discards the partial
/// attempt's accumulator), and their partial work is priced at the
/// baseline cycle makespan. Under a common seeded plan the returned
/// per-cycle digests and the monitor's decision log are byte-identical to
/// the real adaptive campaign's.
pub fn model_campaign_adaptive(
    cfg: &ModelConfig,
    variant: &CampaignExecutor,
    camp: &CampaignModelPlan,
    fcfg: &FaultConfig,
    monitor: Option<&mut HealthMonitor>,
) -> Result<(CampaignModelOutcome, Trace), String> {
    let mut trace = Trace::new("campaign-model");
    let out = CyclePrice::new(cfg, variant, camp, fcfg)?.stitch(
        camp.cycles,
        monitor,
        Some(&mut trace),
    )?;
    Ok((out, trace))
}

/// The cycle-level half of a campaign model: the single-cycle DES runs a
/// campaign under one plan needs, reduced to the numbers its timeline is
/// walked over. [`CyclePrice::stitch`] is the other half. Pricing once and
/// stitching several cycle counts (the capacity planner's 1- and 2-cycle
/// differencing) costs the DES runs of one campaign model, not one per
/// count: the baseline cycle, plus the shared-substrate cycle when
/// checkpoints are pipelined.
#[derive(Debug)]
pub struct CyclePrice<'a> {
    cfg: &'a ModelConfig,
    variant: &'a CampaignExecutor,
    camp: &'a CampaignModelPlan,
    fcfg: &'a FaultConfig,
    /// The per-cycle fault configuration: the campaign plan's non-cycle
    /// faults, without its cycle-scoped crashes.
    cycle_fcfg: FaultConfig,
    /// The baseline, monitor-free single-cycle outcome.
    cycle: ModelOutcome,
    /// The baseline cycle's trace, replayed along the campaign clock.
    cycle_trace: Trace,
    /// Bytes of one checkpointed member.
    member_bytes: u64,
    /// Virtual seconds one member write (or restore read) costs.
    member_service: f64,
    /// Virtual seconds one checkpoint set costs (serial member writes).
    checkpoint_time: f64,
    /// Pipelined: the contention dilation an in-flight write adds to the
    /// cycle it overlaps (zero for synchronous campaigns).
    ckpt_dilation: f64,
    /// Pipelined: the backpressure tail, the write outlasting the cycle it
    /// hides behind (zero for synchronous campaigns).
    ckpt_tail: f64,
}

impl<'a> CyclePrice<'a> {
    /// Run the cycle DES for `variant` under `camp`'s commit mode and
    /// `fcfg`'s non-cycle faults. `camp.cycles` is not read: each
    /// [`CyclePrice::stitch`] names its own cycle count.
    pub fn new(
        cfg: &'a ModelConfig,
        variant: &'a CampaignExecutor,
        camp: &'a CampaignModelPlan,
        fcfg: &'a FaultConfig,
    ) -> Result<Self, String> {
        // The steady-state cycle: the campaign plan's non-cycle faults
        // apply to every cycle, while cycle-scoped crashes are orchestrated
        // at the supervisor level (the per-cycle DES rejects crash plans).
        let cycle_fcfg = FaultConfig {
            plan: fcfg.plan.for_cycle_attempt(0, 1),
            retry: fcfg.retry,
            degraded: fcfg.degraded,
            recv_timeout: fcfg.recv_timeout,
        };
        // The baseline cycle prices checkpoint overlap and crashed partial
        // attempts in both modes; it is also the replayed cycle when no
        // monitor is attached. Run monitor-free so pricing feeds no
        // observations.
        let (cycle, cycle_trace, _) = variant.model(cfg, &cycle_fcfg, None)?;

        let member_bytes = 8 * (cfg.workload.nx * cfg.workload.ny) as u64;
        let member_service = cfg.pfs.read_service(1, member_bytes);
        let checkpoint_time = member_service * cfg.workload.members as f64;

        // Pipelined pricing: the background writer steals one of the
        // machine's `S = num_osts · streams_per_ost` PFS streams while it
        // drains, so the overlapped cycle runs against an `(S−1)/S`
        // substrate. The per-cycle checkpoint cost that *stays* on the
        // critical path is the contention dilation `Δ` (the cycle slowdown,
        // prorated by how long the write actually overlaps) plus the
        // backpressure tail `E = max(0, C − M)` (the write outlasting the
        // cycle it hides behind). Overlap stops being free exactly when
        // `Δ + E` approaches `C`.
        let (ckpt_dilation, ckpt_tail) = if camp.pipelined && camp.checkpoint {
            let streams = cfg.pfs.num_osts * cfg.pfs.streams_per_ost;
            let m = cycle.makespan;
            if streams > 1 {
                let share = (streams - 1) as f64 / streams as f64;
                let (shared, _, _) =
                    variant.model(&cfg.with_bandwidth_share(share), &cycle_fcfg, None)?;
                let dilation = (shared.makespan - m).max(0.0) * checkpoint_time.min(m)
                    / m.max(f64::MIN_POSITIVE);
                (dilation, (checkpoint_time - m).max(0.0))
            } else {
                // A single stream: the writer and the cycle fully
                // serialize, overlap buys nothing — the pipelined campaign
                // degenerates to the synchronous cost.
                (checkpoint_time.min(m), (checkpoint_time - m).max(0.0))
            }
        } else {
            (0.0, 0.0)
        };
        Ok(CyclePrice {
            cfg,
            variant,
            camp,
            fcfg,
            cycle_fcfg,
            cycle,
            cycle_trace,
            member_bytes,
            member_service,
            checkpoint_time,
            ckpt_dilation,
            ckpt_tail,
        })
    }

    /// Walk the timeline of a `cycles`-cycle campaign over this price.
    /// Spans (the replayed cycles and the supervisor's checkpoint, restore
    /// and recovery I/O) go to `sink` when one is given; so do the
    /// per-cycle digests in [`CampaignModelOutcome::cycle_digests`], which
    /// stay empty without a sink. The clock, and so every time in the
    /// outcome, is the same either way.
    pub fn stitch(
        &self,
        cycles: usize,
        mut monitor: Option<&mut HealthMonitor>,
        mut sink: Option<&mut Trace>,
    ) -> Result<CampaignModelOutcome, String> {
        let (cfg, camp, fcfg, cycle) = (self.cfg, self.camp, self.fcfg, &self.cycle);
        let members = cfg.workload.members;
        let (member_bytes, member_service) = (self.member_bytes, self.member_service);
        let checkpoint_time = self.checkpoint_time;
        let (ckpt_dilation, ckpt_tail) = (self.ckpt_dilation, self.ckpt_tail);
        let sup_rank = cycle.total_ranks();
        let layers = self.variant.layers();
        let pipelined = camp.pipelined && camp.checkpoint;
        let base_digest = sink
            .is_some()
            .then(|| fnv64(self.cycle_trace.digest().as_bytes()));

        let mut t = 0.0f64;
        let mut lost = 0.0f64;
        let mut restarts = 0u32;

        let sup_span =
            |op: Op, start: f64, dur: f64, bytes: u64, seeks: u64, member: Option<usize>| Span {
                rank: sup_rank,
                role: Role::Io,
                stage: None,
                op,
                start,
                dur,
                bytes,
                seeks,
                peer: None,
                member,
                res: None,
                tenant: None,
                job: None,
            };
        // The clock steps member by member even without a sink: repeated
        // addition, not one product, is the arithmetic every priced
        // makespan depends on bit for bit.
        let emit_io = |sink: &mut Option<&mut Trace>, t: &mut f64, op: Op| {
            for k in 0..members {
                if let Some(trace) = sink.as_deref_mut() {
                    trace.push(sup_span(op, *t, member_service, member_bytes, 1, Some(k)));
                }
                *t += member_service;
            }
        };
        let replay = |sink: &mut Option<&mut Trace>, tr: &Trace, t: f64| {
            if let Some(trace) = sink.as_deref_mut() {
                trace.extend(tr.spans().iter().cloned().map(|mut s| {
                    s.start += t;
                    s
                }));
            }
        };

        let mut ckpt_exposed = 0.0f64;
        let mut ckpt_sweeps = 0usize;
        let mut cycle_digests: Vec<u64> = Vec::new();
        let mut health_snapshots: Vec<HealthSnapshot> = Vec::new();
        // Pipelined: whether the previous cycle's checkpoint write is still
        // draining in the background (at most one, mirroring the real
        // supervisor's backpressure bound).
        let mut inflight = false;

        if camp.checkpoint {
            // The initial state is committed before any cycle runs — the
            // recovery line for a crash in cycle 0. Synchronous in both
            // modes.
            emit_io(&mut sink, &mut t, Op::Ckpt);
            ckpt_exposed += checkpoint_time;
            ckpt_sweeps += 1;
        }
        let mut fired: BTreeSet<usize> = BTreeSet::new();
        let mut c = 0usize;
        while c < cycles {
            let crash = fcfg
                .plan
                .cycle_crashes
                .iter()
                .filter(|cc| cc.cycle == c && !fired.contains(&c))
                .map(|cc| cc.stage)
                .min();
            if let Some(stage) = crash {
                fired.insert(c);
                restarts += 1;
                // The partial attempt: the cycle dies entering stage
                // `stage`, peers detect it after the receive timeout, then
                // the supervisor sleeps the restart backoff.
                let frac = (stage as f64 / layers as f64).min(1.0);
                let partial = cycle.makespan * frac + fcfg.recv_timeout;
                let backoff = camp.restart.backoff(0);
                // Pipelined: the drain barrier before the restore waits out
                // whatever part of the in-flight write the partial cycle
                // did not already hide.
                let drain = if inflight {
                    (checkpoint_time - cycle.makespan * frac).max(0.0)
                } else {
                    0.0
                };
                inflight = false;
                if let Some(trace) = sink.as_deref_mut() {
                    trace.push(sup_span(
                        Op::Recovery,
                        t,
                        partial + backoff + drain,
                        0,
                        0,
                        None,
                    ));
                }
                t += partial + backoff + drain;
                lost += partial + backoff;
                ckpt_exposed += drain;
                if camp.checkpoint {
                    emit_io(&mut sink, &mut t, Op::Restore);
                    // Re-attempt the same cycle (crash consumed).
                } else {
                    // No recovery line: everything completed so far is
                    // thrown away and the campaign restarts from cycle 0.
                    lost += t - (partial + backoff);
                    cycle_digests.clear();
                    c = 0;
                }
                continue;
            }
            // An in-flight write from the previous cycle contends for OST
            // streams (dilation) and must finish before this cycle's commit
            // can be handed over (backpressure tail).
            let dilation = if inflight { ckpt_dilation } else { 0.0 };
            match monitor.as_deref_mut() {
                None => {
                    replay(&mut sink, &self.cycle_trace, t);
                    if let Some(d) = base_digest {
                        cycle_digests.push(d);
                    }
                    t += cycle.makespan;
                }
                Some(mon) => {
                    // Adaptive: this cycle's reads follow the current
                    // frozen view, so the DES must be rebuilt, and the
                    // boundary fold refreezes the view for the next cycle.
                    let (out, tr, _) = self.variant.model(cfg, &self.cycle_fcfg, Some(mon))?;
                    if sink.is_some() {
                        cycle_digests.push(fnv64(tr.digest().as_bytes()));
                    }
                    replay(&mut sink, &tr, t);
                    t += out.makespan;
                    health_snapshots.push(mon.end_cycle());
                }
            }
            t += dilation;
            if inflight {
                t += ckpt_tail;
                ckpt_exposed += dilation + ckpt_tail;
                inflight = false;
            }
            if camp.checkpoint {
                if pipelined {
                    // The write is queued now and drains behind the next
                    // cycle; its spans sit on the overlapped timeline
                    // without advancing the supervisor clock.
                    let mut tt = t;
                    emit_io(&mut sink, &mut tt, Op::Ckpt);
                    inflight = true;
                } else {
                    emit_io(&mut sink, &mut t, Op::Ckpt);
                    ckpt_exposed += checkpoint_time;
                }
                ckpt_sweeps += 1;
            }
            c += 1;
        }
        if inflight {
            // End-of-campaign drain barrier: the final cycle's write has
            // nothing left to hide behind.
            t += checkpoint_time;
            ckpt_exposed += checkpoint_time;
        }
        let ckpt_hidden = if camp.checkpoint {
            (ckpt_sweeps as f64 * checkpoint_time - ckpt_exposed).max(0.0)
        } else {
            0.0
        };

        Ok(CampaignModelOutcome {
            makespan: t,
            cycle_makespan: cycle.makespan,
            checkpoint_time,
            restore_time: checkpoint_time,
            restarts,
            lost_time: lost,
            ckpt_exposed,
            ckpt_hidden,
            cycle: cycle.clone(),
            cycle_digests,
            health_snapshots,
        })
    }
}
