//! **PR 8** — batched (D-EnKF) vs sequential (P-EnKF) assimilation on the
//! DES substrate, sweeping observation count × shard count at paper scale.
//!
//! Both arms run the same substrate (Tianhe-2-like OSTs and interconnect)
//! on the same rank count. The sequential arm is the P-EnKF block-reading
//! executor: every rank reads its block of every member file and runs the
//! point-local analysis, whose cost is observation-independent by
//! construction (each point solves its own localized system). The batched
//! arm is the D-EnKF distributed-array executor: full-width bar reads, an
//! all-to-all observation-block exchange, and one covariance-form
//! transform over the full `m × N` system — so its communication and
//! compute both scale with the observation count. The sweep locates the
//! regimes: at paper scale the batched arm approaches parity as the
//! network thins (bar reads amortize seeks to one per member) but the
//! un-sharded full-system transform keeps it above 1.0× — quantitative
//! support for the paper's premise that dense-network assimilation needs
//! the localized, observation-independent analysis.
//!
//! Emits one machine-readable line per sweep point for `scripts/bench.sh`:
//!
//! ```text
//! BATCH stride=3 obs=720000 shards=40 batched_s=... sequential_s=... \
//!       batched_over_sequential=... batched_overlap=...
//! ```
//!
//! Flags: `--tiny` shrinks the workload for smoke runs.

use enkf_bench::{has_flag, print_table, secs, tiny_workload};
use enkf_core::BatchedKernel;
use enkf_fault::FaultConfig;
use enkf_parallel::{model_penkf_traced, CampaignExecutor, ModelConfig};

fn main() {
    let mut cfg = ModelConfig::paper();
    // (shards, equal-rank P-EnKF decomposition) pairs: shard counts divide
    // n_y (full-width bars), the decompositions tile the same mesh with
    // the same processor count.
    let (points, strides): (Vec<(usize, usize, usize)>, Vec<usize>) = if has_flag("--tiny") {
        cfg.workload = tiny_workload();
        (vec![(8, 4, 2), (12, 4, 3), (24, 6, 4)], vec![24, 6, 2])
    } else {
        (vec![(40, 8, 5), (90, 10, 9), (180, 15, 12)], vec![24, 6, 2])
    };

    let mut rows = Vec::new();
    for &stride in &strides {
        cfg.obs_stride = stride;
        let w = &cfg.workload;
        let obs = w.nx.div_ceil(stride) * w.ny.div_ceil(stride);
        for &(shards, nsdx, nsdy) in &points {
            // The DES ignores the kernel (flops, not operation structure).
            let denkf = CampaignExecutor::DEnkf {
                shards,
                kernel: BatchedKernel::Cholesky,
            };
            let (batched, _, _) = denkf
                .model(&cfg, &FaultConfig::none(), None)
                .expect("batched model feasible");
            let sequential = model_penkf_traced(&cfg, nsdx, nsdy)
                .expect("sequential model feasible")
                .0;
            let ratio = batched.makespan / sequential.makespan;
            println!(
                "BATCH stride={stride} obs={obs} shards={shards} batched_s={} sequential_s={} \
                 batched_over_sequential={} batched_overlap={}",
                batched.makespan,
                sequential.makespan,
                ratio,
                batched.overlapped_fraction(),
            );
            rows.push(vec![
                stride.to_string(),
                obs.to_string(),
                shards.to_string(),
                secs(batched.makespan),
                secs(sequential.makespan),
                format!("{ratio:.3}"),
            ]);
        }
    }

    print_table(
        "Batched (D-EnKF) vs sequential (P-EnKF) assimilation, equal rank counts",
        &[
            "stride",
            "obs",
            "shards",
            "batched_s",
            "sequential_s",
            "batched/sequential",
        ],
        &rows,
    );
    println!(
        "\nThe sequential arm's analysis is point-local, so its runtime is flat across\n\
         the observation sweep; the batched arm trades seek-free bar reads against an\n\
         exchange+transform that grows with m — the ratio column shows batched nearing\n\
         parity on sparse networks and falling behind as the network densifies."
    );
}
