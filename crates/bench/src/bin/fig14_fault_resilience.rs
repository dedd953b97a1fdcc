//! **Figure 14** (extension) — resilience under deterministic fault
//! injection: how much injected jitter each variant absorbs.
//!
//! Sweeps a severity knob that (a) slows every OST by `severity` —
//! degraded storage servers, the dominant jitter source on shared
//! parallel file systems — and (b) dilates each rank's compute by a
//! seeded per-rank factor in `[1, 1 + (severity−1)/4]`
//! ([`FaultPlan::jitter`]). P-EnKF's strictly sequential phases pay the
//! slowed reads in full before any analysis starts; S-EnKF's overlapped
//! pipeline hides them behind computation until I/O becomes the critical
//! path, so its makespan degrades much more slowly.
//!
//! Flags: `--tiny` runs the reduced workload (smoke tests);
//! `--check-overhead` additionally runs the real executors on a small
//! scenario and verifies the no-fault fault path is free: byte-identical
//! operation digests and wall-clock parity between `run_traced` and
//! `run(.., &FaultConfig::none(), None)`.

use enkf_bench::{has_flag, pct, print_table, secs, tiny_workload, write_csv};
use enkf_core::LocalAnalysis;
use enkf_data::{write_ensemble, ScenarioBuilder};
use enkf_fault::{FaultConfig, FaultPlan, RetryPolicy};
use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
use enkf_parallel::{AssimilationSetup, CampaignExecutor, ModelConfig, PEnkf, SEnkf};
use enkf_pfs::{FileStore, ScratchDir};
use enkf_tuning::{autotune, Params};

const SEED: u64 = 14;

/// Severity s → a plan that slows every OST by `s` and dilates compute on
/// `ranks` ranks by seeded per-rank factors in `[1, 1 + (s−1)/4]`.
fn plan_for(severity: f64, ranks: usize) -> FaultPlan {
    let mut plan = FaultPlan::jitter(SEED, ranks, 1.0 + (severity - 1.0) / 4.0);
    for ost in 0..plan.num_osts {
        plan = plan.with_ost_slowdown(ost, severity);
    }
    plan
}

fn sweep(cfg: &ModelConfig, np: usize, nsdx: usize, nsdy: usize, s_params: Params) {
    let severities = [1.0, 1.25, 1.5, 2.0, 3.0];
    let ranks = np.max(s_params.total_processors());
    let clean = FaultConfig::none();
    let (p0, _, _) = CampaignExecutor::PEnkf { nsdx, nsdy }
        .model(cfg, &clean, None)
        .expect("feasible");
    let (s0, _, _) = CampaignExecutor::SEnkf(s_params)
        .model(cfg, &clean, None)
        .expect("feasible");

    let mut rows = Vec::new();
    for severity in severities {
        let mut fcfg = FaultConfig::degraded(plan_for(severity, ranks));
        fcfg.retry = RetryPolicy::none();
        let (p, _, _) = CampaignExecutor::PEnkf { nsdx, nsdy }
            .model(cfg, &fcfg, None)
            .expect("feasible");
        let (s, _, _) = CampaignExecutor::SEnkf(s_params)
            .model(cfg, &fcfg, None)
            .expect("feasible");
        rows.push(vec![
            format!("{severity:.2}"),
            secs(p.makespan),
            format!("{:.2}x", p.makespan / p0.makespan),
            secs(s.makespan),
            format!("{:.2}x", s.makespan / s0.makespan),
            format!("{:.2}x", p.makespan / s.makespan),
        ]);
    }
    let header = [
        "severity",
        "P-EnKF_s",
        "P degr.",
        "S-EnKF_s",
        "S degr.",
        "S advantage",
    ];
    print_table(
        &format!("Figure 14: fault resilience at {np} processors ({s_params:?})"),
        &header,
        &rows,
    );
    write_csv("fig14.csv", &header, &rows);
}

/// The no-fault fault path must be free: same digests, same wall time.
fn check_overhead() {
    let mesh = Mesh::new(24, 12);
    let members = 4;
    let scenario = ScenarioBuilder::new(mesh)
        .members(members)
        .seed(SEED)
        .build();
    let scratch = ScratchDir::new("fig14-overhead").expect("scratch");
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).expect("store");
    write_ensemble(&store, &scenario.ensemble).expect("write");
    let setup = AssimilationSetup {
        store: &store,
        members,
        observations: &scenario.observations,
        analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
    };
    let senkf = SEnkf::new(Params {
        nsdx: 2,
        nsdy: 2,
        layers: 2,
        ncg: 2,
    });
    let penkf = PEnkf { nsdx: 2, nsdy: 2 };
    let none = FaultConfig::none();
    let reps = 5;

    let mut plain = f64::INFINITY;
    let mut faulted = f64::INFINITY;
    let mut equal = true;
    for _ in 0..reps {
        let t = std::time::Instant::now();
        let (_, _, tp) = penkf.run_traced(&setup).expect("plain P-EnKF");
        let (_, _, ts) = senkf.run_traced(&setup).expect("plain S-EnKF");
        plain = plain.min(t.elapsed().as_secs_f64());

        let t = std::time::Instant::now();
        let (_, _, tpf, _) = penkf.run(&setup, &none, None).expect("faulted P-EnKF");
        let (_, _, tsf, _) = senkf.run(&setup, &none, None).expect("faulted S-EnKF");
        faulted = faulted.min(t.elapsed().as_secs_f64());

        equal &= tp.digest() == tpf.digest() && ts.digest() == tsf.digest();
    }
    let overhead = faulted / plain - 1.0;
    println!(
        "zero_overhead digests_equal={equal} plain_ms={:.3} faulted_ms={:.3} overhead={}",
        plain * 1e3,
        faulted * 1e3,
        pct(overhead)
    );
    assert!(equal, "no-fault digests must be byte-identical");
}

fn main() {
    let mut cfg = ModelConfig::paper();
    if has_flag("--tiny") {
        cfg.workload = tiny_workload();
        let s_params = Params {
            nsdx: 6,
            nsdy: 4,
            layers: 2,
            ncg: 2,
        };
        sweep(&cfg, 24, 6, 4, s_params);
    } else {
        let np = 8000;
        let (nsdx, nsdy) = (80, 100);
        let tuned = autotune(&cfg.cost_params(), np, 2e-2).expect("tunable");
        sweep(&cfg, np, nsdx, nsdy, tuned.params);
    }
    if has_flag("--check-overhead") {
        check_overhead();
    }
    println!(
        "\nShape: both variants degrade as injected jitter grows, but P-EnKF's\n\
         serialized phases inherit the slowest rank and the slow OST directly,\n\
         while S-EnKF's I/O/compute overlap absorbs part of the same jitter —\n\
         its relative advantage widens with severity."
    );
}
