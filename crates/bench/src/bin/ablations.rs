//! Ablations of the S-EnKF co-designs (DESIGN.md §3): what each design
//! choice buys on the paper-scale modeled cluster.
//!
//! 1. **Reading strategy** — block (Fig. 3) vs bar/concurrent (Fig. 6):
//!    the seek-count reduction.
//! 2. **Multi-stage layering** — `L = 1` (no overlap) vs increasing `L`.
//! 3. **Concurrent groups** — `n_cg = 1` vs more groups.
//! 4. **Helper thread** — communication offloaded (Fig. 8) vs ingested on
//!    the compute ranks.

use enkf_bench::{print_table, secs, write_csv};
use enkf_fault::FaultConfig;
use enkf_parallel::model::reading::{model_block_read, model_concurrent_read};
use enkf_parallel::model::senkf::model_senkf_adaptive;
use enkf_parallel::{ModelConfig, ModelOutcome};
use enkf_tuning::Params;

/// One fault-free modeled S-EnKF cycle, with or without the helper thread.
fn senkf(cfg: &ModelConfig, p: Params, helper_thread: bool) -> ModelOutcome {
    model_senkf_adaptive(cfg, p, helper_thread, &FaultConfig::none(), None)
        .expect("feasible")
        .0
}

fn main() {
    let cfg = ModelConfig::paper();

    // 1. Reading strategies, 120 members, 100 readers.
    let mut rows = Vec::new();
    let block = model_block_read(&cfg, 10, 10, 120).expect("block");
    let bar = model_concurrent_read(&cfg, 100, 1, 120).expect("bar");
    let conc = model_concurrent_read(&cfg, 20, 5, 120).expect("concurrent");
    rows.push(vec!["block (10x10 ranks)".into(), secs(block)]);
    rows.push(vec!["bar (1 group x 100)".into(), secs(bar)]);
    rows.push(vec!["concurrent (5 groups x 20)".into(), secs(conc)]);
    print_table(
        "Ablation 1: reading strategy (120 members, 100 readers)",
        &["strategy", "read_s"],
        &rows,
    );
    write_csv("ablation_reading.csv", &["strategy", "read_s"], &rows);

    // 2. Layer count at fixed decomposition (C2 = 7,500).
    let mut rows = Vec::new();
    for layers in [1usize, 2, 3, 6, 9, 18] {
        let p = Params {
            nsdx: 300,
            nsdy: 25,
            layers,
            ncg: 5,
        };
        let out = senkf(&cfg, p, true);
        rows.push(vec![
            layers.to_string(),
            secs(out.first_compute_start),
            secs(out.makespan),
            format!("{:.1}%", out.overlapped_fraction() * 100.0),
        ]);
    }
    print_table(
        "Ablation 2: multi-stage layer count (nsdx=300, nsdy=25, ncg=5)",
        &["L", "exposed_s", "makespan_s", "overlapped"],
        &rows,
    );
    write_csv(
        "ablation_layers.csv",
        &["L", "exposed_s", "makespan_s", "overlapped"],
        &rows,
    );

    // 3. Concurrent group count at fixed decomposition.
    let mut rows = Vec::new();
    for ncg in [1usize, 2, 3, 5, 6, 10] {
        let p = Params {
            nsdx: 300,
            nsdy: 25,
            layers: 6,
            ncg,
        };
        let out = senkf(&cfg, p, true);
        rows.push(vec![
            ncg.to_string(),
            secs(out.first_compute_start),
            secs(out.makespan),
        ]);
    }
    print_table(
        "Ablation 3: concurrent groups (nsdx=300, nsdy=25, L=6)",
        &["ncg", "exposed_s", "makespan_s"],
        &rows,
    );
    write_csv(
        "ablation_groups.csv",
        &["ncg", "exposed_s", "makespan_s"],
        &rows,
    );

    // 4. Helper thread on/off.
    let mut rows = Vec::new();
    let p = Params {
        nsdx: 300,
        nsdy: 25,
        layers: 6,
        ncg: 5,
    };
    for (label, helper) in [("helper thread (paper)", true), ("no helper thread", false)] {
        let out = senkf(&cfg, p, helper);
        rows.push(vec![
            label.into(),
            secs(out.compute_mean.comm),
            secs(out.makespan),
            format!("{:.1}%", out.overlapped_fraction() * 100.0),
        ]);
    }
    print_table(
        "Ablation 4: helper-thread communication offload (C2=7500)",
        &["variant", "compute-rank comm_s", "makespan_s", "overlapped"],
        &rows,
    );
    write_csv(
        "ablation_helper.csv",
        &["variant", "compute_rank_comm_s", "makespan_s", "overlapped"],
        &rows,
    );
}
