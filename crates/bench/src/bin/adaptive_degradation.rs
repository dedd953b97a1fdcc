//! **Fig. 14 extension** — static versus adaptive degradation under OST
//! storms: what online health monitoring buys a multi-cycle assimilation.
//!
//! Sweeps a severity knob `s ∈ {0, 1, 2, 3}` that slows two of the six
//! OSTs by `1 + s` while a K-cycle S-EnKF campaign reads through them,
//! and compares two arms on the DES model:
//!
//! * `static` — the PR-pre-10 resilient path: seeded retries and degraded
//!   mode, but every cycle keeps reading the slowed OSTs at full dilation
//!   (no monitor, `monitor: None`);
//! * `adaptive` — a [`HealthMonitor`] carried across cycles: cycle 0 pays
//!   the storm and feeds the detectors, the end-of-cycle fold blacklists
//!   the hot OSTs, and from cycle 1 reads route/speculate to the replica
//!   OSTs, taking the slowed servers off the critical path.
//!
//! Two invariants are asserted, not just reported: at severity 0 the arms
//! are *identical* (`adaptive_s == static_s` to the bit — a clean monitor
//! never perturbs the schedule), and at severity ≥ 2 the adaptive arm is
//! strictly faster. Emits machine-readable lines for `scripts/bench.sh`:
//!
//! ```text
//! ADAPT severity=2 cycles=6 static_s=... adaptive_s=... speedup=... \
//!       first_cycle_s=... steady_cycle_s=... blacklisted=2
//! ```
//!
//! Flags: `--tiny` shrinks the workload for smoke runs.

use enkf_bench::{has_flag, print_table, secs, secs_exact, tiny_workload};
use enkf_fault::{FaultConfig, FaultPlan, RetryPolicy};
use enkf_health::{HealthMonitor, HealthParams};
use enkf_parallel::{CampaignExecutor, ModelConfig};
use enkf_tuning::Params;

const SEED: u64 = 10;
const CYCLES: usize = 6;
/// The OSTs the storm degrades. Their replicas (shift 1: OSTs 2 and 5)
/// stay healthy, so speculation has somewhere useful to go.
const SLOWED_OSTS: [usize; 2] = [1, 4];

fn storm(severity: f64) -> FaultConfig {
    let mut plan = FaultPlan::new(SEED);
    if severity > 0.0 {
        for ost in SLOWED_OSTS {
            plan = plan.with_ost_slowdown(ost, 1.0 + severity);
        }
    }
    FaultConfig::degraded(plan).with_retry(RetryPolicy {
        max_retries: 3,
        base_backoff: 1e-6,
        multiplier: 2.0,
        ..RetryPolicy::default()
    })
}

/// Total K-cycle virtual makespan plus the first/steady per-cycle split.
struct Arm {
    total: f64,
    first: f64,
    steady_last: f64,
}

fn run_arm(
    cfg: &ModelConfig,
    params: Params,
    fcfg: &FaultConfig,
    mut monitor: Option<&mut HealthMonitor>,
) -> (Arm, usize) {
    let mut total = 0.0;
    let mut first = 0.0;
    let mut last = 0.0;
    let mut blacklisted = 0usize;
    for cycle in 0..CYCLES {
        let (out, _, _) = CampaignExecutor::SEnkf(params)
            .model(cfg, fcfg, monitor.as_deref())
            .expect("feasible adaptive S-EnKF model");
        total += out.makespan;
        if cycle == 0 {
            first = out.makespan;
        }
        last = out.makespan;
        if let Some(mon) = monitor.as_deref_mut() {
            let snap = mon.end_cycle();
            blacklisted = blacklisted.max(snap.blacklisted_osts.len());
        }
    }
    (
        Arm {
            total,
            first,
            steady_last: last,
        },
        blacklisted,
    )
}

fn main() {
    let mut cfg = ModelConfig::paper();
    let params = if has_flag("--tiny") {
        cfg.workload = tiny_workload();
        Params {
            nsdx: 6,
            nsdy: 4,
            layers: 2,
            ncg: 2,
        }
    } else {
        enkf_tuning::autotune(&cfg.cost_params(), 8000, 2e-2)
            .expect("tunable")
            .params
    };

    let mut rows = Vec::new();
    for severity in [0.0f64, 1.0, 2.0, 3.0] {
        let fcfg = storm(severity);
        let (stat, _) = run_arm(&cfg, params, &fcfg, None);
        let mut mon = HealthMonitor::new(HealthParams::default());
        let (adap, blacklisted) = run_arm(&cfg, params, &fcfg, Some(&mut mon));
        let speedup = stat.total / adap.total;

        if severity == 0.0 {
            assert_eq!(
                stat.total.to_bits(),
                adap.total.to_bits(),
                "a clean monitor must not perturb the schedule"
            );
            assert_eq!(blacklisted, 0, "nothing to blacklist at severity 0");
        }
        if severity >= 2.0 {
            assert!(
                adap.total < stat.total,
                "adaptive must beat static at severity {severity}: \
                 {} vs {}",
                adap.total,
                stat.total
            );
        }

        println!(
            "ADAPT severity={severity} cycles={CYCLES} static_s={} adaptive_s={} \
             speedup={speedup:.6} first_cycle_s={} steady_cycle_s={} blacklisted={blacklisted}",
            secs_exact(stat.total),
            secs_exact(adap.total),
            secs_exact(adap.first),
            secs_exact(adap.steady_last),
        );
        rows.push(vec![
            format!("{severity:.0}"),
            secs(stat.total),
            secs(adap.total),
            format!("{speedup:.2}x"),
            secs(adap.first),
            secs(adap.steady_last),
            blacklisted.to_string(),
        ]);
    }
    print_table(
        &format!("Adaptive degradation: {CYCLES}-cycle S-EnKF campaign ({params:?})"),
        &[
            "severity",
            "static_s",
            "adaptive_s",
            "speedup",
            "adapt cycle0",
            "adapt steady",
            "blacklisted",
        ],
        &rows,
    );
}
