//! Golden DES timings: the exact virtual times the discrete-event model
//! answers at a small geometry, pinned as `f64::to_bits`.
//!
//! The conformance digests pin each model's operation structure but not
//! its times. This suite pins the times: for each of the four variants,
//! the single-cycle [`ModelOutcome`] (makespan, first compute start and
//! every per-rank phase mean), the capacity planner's [`StepCost`] under
//! synchronous and pipelined checkpoints, and the outcome of a second
//! cycle modeled under a seeded fault plan with a [`HealthMonitor`] that
//! watched the first. Any change to the engine or to the per-variant
//! graphs that moves one of these numbers by one ulp fails here.
//!
//! On a mismatch the test prints the observed table in the source form of
//! [`GOLDEN`], so an intended model change can be re-recorded in one paste.
//!
//! A second test checks how the phase means are derived: the models read
//! them off the simulation's report, and they must equal, bit for bit,
//! the means rebuilt from the exported trace's per-rank span sums.

use s_enkf::core::{BatchedKernel, LocalAnalysis};
use s_enkf::data::CycleConfig;
use s_enkf::fault::{FaultConfig, FaultPlan, RetryPolicy};
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::health::{HealthMonitor, HealthParams};
use s_enkf::parallel::{
    CampaignConfig, CampaignExecutor, CkptMode, ModelConfig, ModelOutcome, PhaseBreakdown,
};
use s_enkf::sched::{DesPlanner, JobModel, JobSpec, StepCost};
use s_enkf::trace::{PhaseTotals, Trace};
use s_enkf::tuning::{Params, Workload};

const MESH: (usize, usize) = (48, 24);
const MEMBERS: usize = 8;
const RADIUS: LocalizationRadius = LocalizationRadius { xi: 1, eta: 1 };

fn model_cfg() -> ModelConfig {
    let mut cfg = ModelConfig::paper();
    cfg.workload = Workload {
        nx: MESH.0,
        ny: MESH.1,
        members: MEMBERS,
        h: 8,
        xi: RADIUS.xi,
        eta: RADIUS.eta,
    };
    cfg
}

fn variants() -> [(&'static str, CampaignExecutor); 4] {
    [
        ("lenkf", CampaignExecutor::LEnkf { nsdx: 2, nsdy: 2 }),
        ("penkf", CampaignExecutor::PEnkf { nsdx: 4, nsdy: 2 }),
        (
            "senkf",
            CampaignExecutor::SEnkf(Params {
                nsdx: 4,
                nsdy: 2,
                layers: 2,
                ncg: 2,
            }),
        ),
        (
            "denkf",
            CampaignExecutor::DEnkf {
                shards: 4,
                kernel: BatchedKernel::Cholesky,
            },
        ),
    ]
}

fn phase_bits(p: &PhaseBreakdown) -> [u64; 5] {
    [p.read, p.comm, p.compute, p.wait, p.fault].map(f64::to_bits)
}

/// Every time an outcome carries, in a fixed order.
fn outcome_bits(out: &ModelOutcome) -> Vec<u64> {
    let mut bits = vec![out.makespan.to_bits(), out.first_compute_start.to_bits()];
    bits.extend(phase_bits(&out.compute_mean));
    bits.extend(phase_bits(&out.io_mean));
    bits
}

fn price(exec: CampaignExecutor, mode: CkptMode) -> StepCost {
    let cfg = model_cfg();
    let campaign = CampaignConfig {
        mesh: Mesh::new(MESH.0, MESH.1),
        cycles: 4,
        members: MEMBERS,
        cycle: CycleConfig::default(),
        seed: 0,
        analysis: LocalAnalysis::new(RADIUS),
        inflation: 1.0,
        restart: RetryPolicy::default(),
    };
    let mut spec = JobSpec::best_effort(exec, campaign);
    spec.ckpt_mode = mode;
    spec.model = Some(JobModel {
        cfg,
        variant: exec,
        checkpoint: true,
    });
    DesPlanner::price(&spec, 0.5)
}

/// A seeded storm: one OST slow enough to trip the monitor, a member
/// whose first reads fail, a straggler, and an unrecoverable member.
fn storm() -> FaultConfig {
    let retry = RetryPolicy {
        max_retries: 3,
        base_backoff: 1e-3,
        multiplier: 2.0,
        ..RetryPolicy::default()
    }
    .with_jitter(7, 0.25);
    let plan = FaultPlan::new(7)
        .with_ost_slowdown(1, 4.0)
        .with_read_fault(2, 2)
        .with_straggler(1, 1.5)
        .with_unrecoverable_member(5);
    FaultConfig::degraded(plan).with_retry(retry)
}

/// The second cycle of a monitored storm: the first cycle's observations
/// have reshaped the routing view by then.
fn faulted(exec: CampaignExecutor) -> (ModelOutcome, Trace) {
    let cfg = model_cfg();
    let fcfg = storm();
    let mut mon = HealthMonitor::new(HealthParams::default());
    exec.model(&cfg, &fcfg, Some(&mon)).unwrap();
    assert!(
        !mon.end_cycle().is_clean(),
        "the storm must reshape the routing view"
    );
    let (out, trace, _) = exec.model(&cfg, &fcfg, Some(&mon)).unwrap();
    (out, trace)
}

fn observed() -> Vec<(String, Vec<u64>)> {
    let mut rows = Vec::new();
    for (name, exec) in variants() {
        let (clean, _, _) = exec
            .model(&model_cfg(), &FaultConfig::none(), None)
            .unwrap();
        rows.push((format!("{name}.clean"), outcome_bits(&clean)));
        for (mode, label) in [(CkptMode::Sync, "sync"), (CkptMode::Pipelined, "pipelined")] {
            let p = price(exec, mode);
            rows.push((
                format!("{name}.price.{label}"),
                vec![p.cycle.to_bits(), p.init.to_bits()],
            ));
        }
        rows.push((format!("{name}.faulted"), outcome_bits(&faulted(exec).0)));
    }
    rows
}

/// Recorded from the engine before its compact-store rewrite.
#[rustfmt::skip]
const GOLDEN: &[(&str, &[u64])] = &[
    ("lenkf.clean", &[0x404ccdad624e53cb, 0x3f7a5d1520953d8b, 0x3f3e3dadb5855d78, 0x3f548344c37e6f75, 0x404ccccccccccccd, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("lenkf.price.sync", &[0x404cce00c9a981c8, 0x3f61223c3ff70000]),
    ("lenkf.price.pipelined", &[0x404ccdbc40bb9575, 0x3f71223bdd858000]),
    ("lenkf.faulted", &[0x40559ac45b9437c2, 0x3f92ac1fa9e286f5, 0x3f3a75f7fed4b1c9, 0x3f51f2dc2b0ea186, 0x4050333333333333, 0x0000000000000000, 0x3f69eadfc6886b95, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("penkf.clean", &[0x403cd2cd347bb2a9, 0x3f95560bde93d7f2, 0x3f955668ed5456c4, 0x0000000000000000, 0x403cccccccccccce, 0x3f5557801995d339, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("penkf.price.sync", &[0x403cd3592331de50, 0x3f61223c3ff64000]),
    ("penkf.price.pipelined", &[0x403cd2d011510d9a, 0x3f71223c2d06a000]),
    ("penkf.faulted", &[0x4045a032f10e3851, 0x3fa90ff172b98e94, 0x3f92ab9bcfa9cbec, 0x0000000000000000, 0x403e99999999999b, 0x3f7cfbbf9b6fea9d, 0x3f9b8b5a70c1367c, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("senkf.clean", &[0x403ccd4940826dcb, 0x3f5490ea00f37e4c, 0x0000000000000000, 0x0000000000000000, 0x403cccccccccccce, 0x0000000000000000, 0x0000000000000000, 0x3f5b79024a5d1b64, 0x3f5ba1463645366c, 0x0000000000000000, 0x3f1bc7c000efcd62, 0x0000000000000000]),
    ("senkf.price.sync", &[0x403ccdd8cf1cec8a, 0x3f61223c3ff64000]),
    ("senkf.price.pipelined", &[0x403ccd4fbd3d9c0c, 0x3f71223c15032000]),
    ("senkf.faulted", &[0x40459adc559612ce, 0x3f83bec7f78d7f3b, 0x0000000000000000, 0x0000000000000000, 0x403e99999999999b, 0x0000000000000000, 0x0000000000000000, 0x3f5809e2011177f8, 0x3f5b73f9cce01804, 0x0000000000000000, 0x0000000000000000, 0x3f89a86fb47ca562]),
    ("denkf.clean", &[0x4054ccf997ea504f, 0x3f62e1d9fa31dfcc, 0x3f5b38959db689c0, 0x3f45163cad5a6bb2, 0x4054cccccccccccd, 0x3f319287e5cb59c0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
    ("denkf.price.sync", &[0x4054cd1e0e4f95b3, 0x3f61223c3ff70000]),
    ("denkf.price.pipelined", &[0x4054ccfbc9d76643, 0x3f71223c2bd70000]),
    ("denkf.faulted", &[0x405f34260a134a00, 0x3f8deb4a7a865f78, 0x3f57d182e9ffb888, 0x3f44eb498f960a9a, 0x4057666666666666, 0x3f316ebd4cfd08e8, 0x3f89a265844d07bc, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000]),
];

#[test]
fn des_timings_match_the_recorded_bits() {
    let got = observed();
    let matches = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((name, bits), (gname, gbits))| name == gname && bits == gbits);
    if !matches {
        let mut table = String::from("const GOLDEN: &[(&str, &[u64])] = &[\n");
        for (name, bits) in &got {
            let hex: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
            table += &format!("    (\"{name}\", &[{}]),\n", hex.join(", "));
        }
        table += "];";
        panic!("DES timings drifted from the recorded bits; observed:\n{table}");
    }
}

/// The phase means rebuilt from the trace: per-rank span sums, added in
/// rank order into the compute and I/O classes, then averaged per class.
fn trace_projection(out: &ModelOutcome, trace: &Trace) -> (PhaseBreakdown, PhaseBreakdown) {
    let mut compute = PhaseTotals::default();
    let mut io = PhaseTotals::default();
    for (rank, t) in trace.per_rank_phases() {
        let class = if rank < out.num_compute_ranks {
            &mut compute
        } else {
            &mut io
        };
        class.read += t.read;
        class.comm += t.comm;
        class.compute += t.compute;
        class.wait += t.wait;
        class.fault += t.fault;
    }
    let mean = |totals: PhaseTotals, ranks: usize| {
        if ranks == 0 {
            PhaseBreakdown::default()
        } else {
            PhaseBreakdown::from(totals).scaled(1.0 / ranks as f64)
        }
    };
    (
        mean(compute, out.num_compute_ranks),
        mean(io, out.num_io_ranks),
    )
}

#[test]
fn report_derived_phase_means_equal_the_trace_projection() {
    for (name, exec) in variants() {
        let (out, trace) = faulted(exec);
        assert!(out.compute_mean.fault > 0.0 || out.io_mean.fault > 0.0);
        let (compute, io) = trace_projection(&out, &trace);
        assert_eq!(
            phase_bits(&out.compute_mean),
            phase_bits(&compute),
            "{name}: compute means"
        );
        assert_eq!(
            phase_bits(&out.io_mean),
            phase_bits(&io),
            "{name}: I/O means"
        );
    }
}
