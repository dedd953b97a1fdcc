//! Property suite for the multi-tenant scheduler.
//!
//! For seeded mixes of 2–6 tenants the fair-share invariants must hold at
//! every rebalance the simulation ever performs:
//!
//! * allocations sum to at most the capacity;
//! * no job is allocated beyond its demand;
//! * every admitted job holds at least its weighted min-share floor;
//! * the whole run — decisions, records, share trails — is bit-identical
//!   across reruns of the same seed;
//! * every admitted job eventually completes (fairness is not starvation).
//!
//! And, end to end with the real DES-backed capacity planner: jobs
//! admitted with an SLA of twice their solo prediction always finish
//! within it — the admission floor check is what the fairness bench's
//! p99 acceptance criterion rests on.

use proptest::prelude::*;
use s_enkf_sched_proptest_deps::*;

// The sched crate's test half lives behind one alias module so the
// imports read as one block.
mod s_enkf_sched_proptest_deps {
    pub use enkf_core::{BatchedKernel, LocalAnalysis};
    pub use enkf_data::CycleConfig;
    pub use enkf_fault::FaultConfig;
    pub use enkf_fault::RetryPolicy;
    pub use enkf_grid::{LocalizationRadius, Mesh};
    pub use enkf_parallel::{
        model_campaign, CampaignConfig, CampaignExecutor, CampaignModelPlan, CkptMode, ModelConfig,
    };
    pub use enkf_sched::{
        min_share_floor, simulate, ClusterCapacity, Demand, DesPlanner, JobId, JobModel, JobSpec,
        Planner, SchedConfig, SharePolicy, StepCost, SubmitError, TenantId, TenantSpec,
    };
    pub use enkf_tuning::{Params, Workload};
}

/// A deterministic, closed-form planner: cycle cost grows with job size
/// and inversely with the granted share. Fast enough for hundreds of
/// simulated mixes, and bit-stable so determinism properties are exact.
struct SynthPlanner;

impl Planner for SynthPlanner {
    fn step(&mut self, _id: JobId, spec: &JobSpec, share: f64) -> StepCost {
        let work = (spec.campaign.members * spec.ranks()) as f64;
        StepCost {
            cycle: 0.5 + 0.01 * work / share,
            init: 0.1 / share,
        }
    }
}

fn base_spec(nsdx: usize, nsdy: usize, cycles: usize, bw_demand: f64) -> JobSpec {
    let campaign = CampaignConfig {
        mesh: Mesh::new(16, 8),
        cycles,
        members: 4,
        cycle: CycleConfig::default(),
        seed: 11,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        inflation: 1.0,
        restart: RetryPolicy::none(),
    };
    let mut spec = JobSpec::best_effort(CampaignExecutor::PEnkf { nsdx, nsdy }, campaign);
    spec.bw_demand = bw_demand;
    spec
}

/// One generated job: `(nsdx, nsdy, cycles, bw tenths, arrival slot)`.
type JobGene = (usize, usize, usize, u32, u32);

fn job_gene() -> impl Strategy<Value = JobGene> {
    (1usize..=2, 1usize..=2, 1usize..=3, 2u32..=10, 0u32..=8)
}

/// A tenant: weight in 1..=4 plus one to three jobs.
fn tenant_gene() -> impl Strategy<Value = (u32, Vec<JobGene>)> {
    (1u32..=4, proptest::collection::vec(job_gene(), 1..=3))
}

fn mix_gene() -> impl Strategy<Value = Vec<(u32, Vec<JobGene>)>> {
    proptest::collection::vec(tenant_gene(), 2..=6)
}

fn build_mix(genes: &[(u32, Vec<JobGene>)]) -> (Vec<TenantSpec>, Vec<(f64, TenantId, JobSpec)>) {
    let mut tenants = Vec::new();
    let mut arrivals = Vec::new();
    for (i, (weight, jobs)) in genes.iter().enumerate() {
        let spec = TenantSpec::new(i as u32, *weight as f64);
        for (nsdx, nsdy, cycles, bw, slot) in jobs {
            arrivals.push((
                *slot as f64,
                spec.id,
                base_spec(*nsdx, *nsdy, *cycles, *bw as f64 / 10.0),
            ));
        }
        tenants.push(spec);
    }
    (tenants, arrivals)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fair_share_invariants_hold_for_seeded_tenant_mixes(
        genes in mix_gene(),
        seed in 0u64..1_000,
    ) {
        let (tenants, arrivals) = build_mix(&genes);
        let cfg = SchedConfig {
            capacity: ClusterCapacity::tianhe2_like(16),
            policy: SharePolicy::FairShare,
            seed,
        };
        let out = simulate(&cfg, &tenants, &arrivals, SynthPlanner);

        // Fairness, at every rebalance the run ever performed.
        for check in &out.share_checks {
            let total: f64 = check.entries.iter().map(|(_, _, _, s)| s).sum();
            prop_assert!(total <= 1.0 + 1e-9, "shares sum to {total} > capacity");
            let demands: Vec<Demand> = check
                .entries
                .iter()
                .map(|(_, w, d, _)| Demand { weight: *w, demand: *d })
                .collect();
            for (i, (id, _, demand, share)) in check.entries.iter().enumerate() {
                prop_assert!(
                    *share <= demand + 1e-9,
                    "job {id} allocated {share} beyond its demand {demand}"
                );
                let floor = min_share_floor(1.0, &demands, i);
                prop_assert!(
                    *share + 1e-9 >= floor,
                    "job {id} got {share} < min-share floor {floor}"
                );
            }
        }

        // Liveness: every admitted job completed.
        prop_assert_eq!(out.records.len(), arrivals.len() - out.rejected.len());

        // Determinism: the same seed replays bit-identically.
        let again = simulate(&cfg, &tenants, &arrivals, SynthPlanner);
        prop_assert_eq!(out.decisions_digest, again.decisions_digest);
        prop_assert_eq!(&out.decisions, &again.decisions);
        prop_assert_eq!(out.records.len(), again.records.len());
        for (a, b) in out.records.iter().zip(&again.records) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.completion.to_bits(), b.completion.to_bits());
            prop_assert_eq!(a.shares_seen.len(), b.shares_seen.len());
            for (x, y) in a.shares_seen.iter().zip(&b.shares_seen) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

fn modeled_spec(cycles: usize, sla_factor: f64) -> (JobSpec, f64) {
    let mut spec = base_spec(2, 2, cycles, 1.0);
    let mut cfg = ModelConfig::paper();
    cfg.workload = Workload {
        nx: 16,
        ny: 8,
        members: 4,
        h: 8,
        xi: 1,
        eta: 1,
    };
    spec.model = Some(JobModel {
        cfg,
        variant: spec.exec,
        checkpoint: true,
    });
    let step = DesPlanner::price(&spec, 1.0);
    let solo = step.init + cycles as f64 * step.cycle;
    spec.sla = Some(solo * sla_factor);
    (spec, solo)
}

/// The planner's step differencing is *exact* in both commit modes:
/// `init + K·cycle` reproduces the K-cycle campaign-model makespan to
/// floating-point identity, synchronous and pipelined — so SLA admission
/// reasons about exactly the schedule the dispatcher will run. And the
/// one-pass price (one cycle price, stitched span-free at K = 1 and 2) is
/// bit-for-bit the difference of two whole campaign models, for every
/// variant, both commit modes, and a full and a partial bandwidth share.
#[test]
fn des_planner_differencing_prices_both_commit_modes_exactly() {
    let execs = [
        CampaignExecutor::LEnkf { nsdx: 2, nsdy: 2 },
        CampaignExecutor::PEnkf { nsdx: 2, nsdy: 2 },
        CampaignExecutor::SEnkf(Params {
            nsdx: 2,
            nsdy: 2,
            layers: 2,
            ncg: 2,
        }),
        CampaignExecutor::DEnkf {
            shards: 4,
            kernel: BatchedKernel::Cholesky,
        },
    ];
    for exec in execs {
        let with_exec = |mode: CkptMode| {
            let (mut spec, _) = modeled_spec(2, 2.0);
            spec.exec = exec;
            spec.ckpt_mode = mode;
            let mut model = spec.model.unwrap();
            model.variant = exec;
            spec.model = Some(model);
            spec
        };
        for pipelined in [false, true] {
            let spec = with_exec(if pipelined {
                CkptMode::Pipelined
            } else {
                CkptMode::Sync
            });
            let model = spec.model.unwrap();
            let plan = |cycles| CampaignModelPlan {
                cycles,
                checkpoint: model.checkpoint,
                pipelined,
                restart: spec.campaign.restart,
            };
            for share in [1.0, 0.37] {
                let step = DesPlanner::price(&spec, share);
                let shared = model.cfg.with_bandwidth_share(share);
                let makespan = |cycles| {
                    model_campaign(&shared, &model.variant, &plan(cycles), &FaultConfig::none())
                        .unwrap()
                        .0
                        .makespan
                };
                let t1 = makespan(1);
                let cycle = makespan(2) - t1;
                assert_eq!(
                    (step.cycle.to_bits(), step.init.to_bits()),
                    (cycle.to_bits(), (t1 - cycle).to_bits()),
                    "{exec:?} pipelined={pipelined} share={share}: one-pass price {step:?} \
                     differs from the two-campaign differencing"
                );
            }
            let step = DesPlanner::price(&spec, 1.0);
            for cycles in 1..=5usize {
                let (out, _) = model_campaign(
                    &model.cfg,
                    &model.variant,
                    &plan(cycles),
                    &FaultConfig::none(),
                )
                .unwrap();
                let predicted = step.init + cycles as f64 * step.cycle;
                assert!(
                    (out.makespan - predicted).abs() < 1e-9,
                    "{exec:?} pipelined={pipelined} K={cycles}: differencing {predicted} != model {}",
                    out.makespan
                );
            }
            // Pipelining strictly cheapens the steady-state step (the
            // sweep comes off the critical path), never the science.
            if pipelined {
                let sync_step = DesPlanner::price(&with_exec(CkptMode::Sync), 1.0);
                assert!(
                    step.cycle < sync_step.cycle,
                    "{exec:?}: pipelined step {} must undercut sync step {}",
                    step.cycle,
                    sync_step.cycle
                );
            }
        }
    }
}

/// End to end with the real DES capacity planner: four tenants, each
/// asking for twice its solo prediction, all admitted — and every one of
/// them finishes within its SLA despite sharing the machine.
#[test]
fn sla_admission_with_des_planner_keeps_service_within_twice_solo() {
    let tenants: Vec<TenantSpec> = (0..4).map(|i| TenantSpec::new(i, 1.0)).collect();
    let mut arrivals = Vec::new();
    let mut slas = std::collections::BTreeMap::new();
    for t in &tenants {
        let (spec, solo) = modeled_spec(2, 2.0);
        slas.insert(t.id, (spec.sla.unwrap(), solo));
        arrivals.push((0.0, t.id, spec));
    }
    let cfg = SchedConfig {
        capacity: ClusterCapacity::tianhe2_like(16),
        policy: SharePolicy::FairShare,
        seed: 3,
    };
    let out = simulate(&cfg, &tenants, &arrivals, DesPlanner::new());
    assert!(out.rejected.is_empty(), "rejections: {:?}", out.rejected);
    assert_eq!(out.records.len(), 4);
    for rec in &out.records {
        let (sla, solo) = slas[&rec.id.tenant];
        assert!(
            rec.service <= sla + 1e-9,
            "job {} took {} > its SLA {} (solo {})",
            rec.id,
            rec.service,
            sla,
            solo
        );
        assert_eq!(rec.solo_prediction, Some(solo));
    }
}

/// A deadline the planner cannot meet even solo is refused at submit.
#[test]
fn unattainable_sla_is_rejected_at_submit() {
    let tenants = vec![TenantSpec::new(0, 1.0)];
    let (spec, solo) = modeled_spec(2, 0.5);
    let cfg = SchedConfig {
        capacity: ClusterCapacity::tianhe2_like(16),
        policy: SharePolicy::FairShare,
        seed: 3,
    };
    let out = simulate(
        &cfg,
        &tenants,
        &[(0.0, tenants[0].id, spec)],
        DesPlanner::new(),
    );
    assert_eq!(out.rejected.len(), 1);
    match &out.rejected[0].2 {
        SubmitError::SlaUnattainable { predicted, sla } => {
            assert!((predicted - solo).abs() < 1e-9);
            assert!(*sla < *predicted);
        }
        other => panic!("expected SlaUnattainable, got {other:?}"),
    }
    assert!(out.records.is_empty());
}

/// A health snapshot with blacklisted OSTs shrinks the bandwidth pool:
/// running jobs are repriced to at most the capacity factor, the decision
/// log records the event, and reintegration restores full shares.
#[test]
fn health_snapshot_reprices_running_shares() {
    use enkf_health::{HealthMonitor, HealthParams};
    use enkf_sched::{NoPlanner, Scheduler};

    let cfg = SchedConfig {
        capacity: ClusterCapacity::tianhe2_like(16),
        policy: SharePolicy::FairShare,
        seed: 9,
    };
    let mut sched = Scheduler::new(cfg, NoPlanner);
    let tenant = TenantSpec::new(0, 1.0);
    sched.add_tenant(tenant);
    let a = sched
        .submit(0.0, tenant.id, base_spec(2, 2, 2, 1.0))
        .unwrap();
    let b = sched
        .submit(0.5, tenant.id, base_spec(2, 2, 2, 1.0))
        .unwrap();
    sched.try_dispatch(1.0);
    assert_eq!(sched.running().len(), 2);
    let healthy_share = sched.job(a).unwrap().share;
    assert!(
        (healthy_share - 0.5).abs() < 1e-12,
        "two equal jobs split 1.0"
    );

    // One of six OSTs blacklists: detect it through a real monitor so the
    // snapshot is the genuine campaign artifact, not a hand-built one.
    let mut mon = HealthMonitor::new(HealthParams::with_num_osts(6));
    for m in 0..6 {
        mon.observe_read(m % 6, m, if m % 6 == 2 { 5.0 } else { 1.0 });
    }
    let snap = mon.end_cycle();
    assert_eq!(snap.blacklisted_osts, vec![2]);
    sched.apply_health(2.0, &snap);

    assert!((sched.health_factor() - 5.0 / 6.0).abs() < 1e-12);
    for id in [a, b] {
        let share = sched.job(id).unwrap().share;
        assert!(
            (share - 5.0 / 12.0).abs() < 1e-12,
            "degraded pool must split 5/6, job {id} got {share}"
        );
    }
    assert!(
        sched
            .decisions()
            .iter()
            .any(|d| d.contains("health") && d.contains("[2]")),
        "the health event must be on the decision log"
    );

    // The OST serves its term and reintegrates: full capacity back.
    mon.end_cycle(); // blacklist term → probation
    for m in 0..6 {
        mon.observe_read(m % 6, m, 1.0);
    }
    let snap = mon.end_cycle();
    assert!(snap.is_clean());
    sched.apply_health(3.0, &snap);
    assert!((sched.job(a).unwrap().share - 0.5).abs() < 1e-12);
}
