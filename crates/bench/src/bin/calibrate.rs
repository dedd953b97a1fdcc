//! Calibration probe: prints the paper-scale P-EnKF and S-EnKF phase
//! summaries at fixed (hand-picked) parameters. Used while calibrating the
//! substrate constants (see EXPERIMENTS.md); the fig* binaries are the
//! polished outputs.
use enkf_parallel::ModelConfig;
use enkf_parallel::{model_penkf_traced, model_senkf_traced};
use enkf_tuning::Params;

fn main() {
    let cfg = ModelConfig::paper();
    for (np, nsdx, nsdy) in [
        (2000usize, 50, 40),
        (4000, 100, 40),
        (6000, 100, 60),
        (8000, 80, 100),
        (10000, 100, 100),
        (12000, 120, 100),
    ] {
        let p = model_penkf_traced(&cfg, nsdx, nsdy).unwrap().0;
        let io = p.compute_mean.read + p.compute_mean.comm + p.compute_mean.wait;
        println!(
            "P-EnKF np={np:>6}: makespan {:8.1}s io(r+w) {:8.1} comp {:8.1} iofrac {:.2}",
            p.makespan,
            io,
            p.compute_mean.compute,
            io / (io + p.compute_mean.compute)
        );
    }
    for (c2, nsdx, nsdy, layers, ncg) in [
        (2000usize, 50, 40, 5, 6),
        (4000, 100, 40, 5, 6),
        (6000, 100, 60, 5, 6),
        (8000, 80, 100, 2, 6),
        (10000, 100, 100, 2, 6),
        (12000, 120, 100, 2, 6),
    ] {
        let (s, _) = model_senkf_traced(
            &cfg,
            Params {
                nsdx,
                nsdy,
                layers,
                ncg,
            },
        )
        .unwrap();
        println!(
            "S-EnKF c2={c2:>6}: makespan {:8.1}s ioread {:8.1} iocomm {:8.1} comp {:8.1} cwait {:8.1} first {:6.1} ovl {:.2}",
            s.makespan, s.io_mean.read, s.io_mean.comm, s.compute_mean.compute, s.compute_mean.wait,
            s.first_compute_start, s.overlapped_fraction()
        );
    }
}
