//! The repository benchmark. See `README.md` next to this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <senkf_dense|penkf_wide|plan_paper> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it (prefixed
//! `#`) record the host, the workload and a readable metric table.

mod plan;
mod real;
mod util;

use util::Metrics;

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Per-layer metrics of the real path, with units.
pub const REAL_LAYER: &[(&str, &str)] = &[
    ("data.forecast_s", "s"),
    ("data.write_ensemble_s", "s"),
    ("data.write_bytes", "B"),
    ("pfs.read_s", "s"),
    ("pfs.read_bytes", "B"),
    ("pfs.read_seeks", "count"),
    ("pfs.read_gbps", "GB/s"),
    ("net.send_s", "s"),
    ("net.msgs", "count"),
    ("net.send_bytes", "B"),
    ("core.compute_s", "s"),
    ("core.us_per_point", "us"),
    ("core.serial_enkf_s", "s"),
    ("linalg.gemm_gflops", "GF/s"),
    ("exec.analysis_s", "s"),
    ("exec.wait_s", "s"),
    ("exec.speedup_vs_serial", "x"),
    ("ckpt.save_s", "s"),
    ("ckpt.exposed_s", "s"),
    ("ckpt.bytes", "B"),
    ("campaign.cycle_s", "s"),
    ("campaign.residual_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Per-layer metrics of the modeled path, with units.
pub const MODEL_LAYER: &[(&str, &str)] = &[
    ("tuning.autotune_s", "s"),
    ("sched.price_s", "s"),
    ("plan.residual_s", "s"),
    ("model.senkf_s", "s"),
    ("model.penkf_s", "s"),
    ("model.lenkf_s", "s"),
    ("sim.spans", "count"),
    ("sim.spans_per_s", "1/s"),
    ("sim.allocs_per_span", "count"),
];

/// Layer metrics of a workload that never enters those layers: zero by
/// construction (the layer is bypassed, not fast).
pub fn put_bypassed(m: &mut Metrics, layer: &[(&'static str, &'static str)]) {
    for &(name, unit) in layer {
        m.put(name, 0.0, unit);
    }
}

fn main() {
    let args = match util::Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = std::path::PathBuf::from(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: creating {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    println!("# host {}", util::host_record());
    let work_dir = std::path::PathBuf::from(".perfbench_work").join(&args.workload);
    match args.workload.as_str() {
        "senkf_dense" => real::run(&real::SENKF_DENSE, &args, &out_dir, &work_dir),
        "penkf_wide" => real::run(&real::PENKF_WIDE, &args, &out_dir, &work_dir),
        "plan_paper" => plan::run(&args, &out_dir),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    // Member files and checkpoints are scratch: leave nothing behind.
    let _ = std::fs::remove_dir_all(".perfbench_work");
}
