//! A full parallel assimilation round-trip on real files, comparing all
//! three parallel EnKF variants.
//!
//! The scenario's background ensemble is written to disk as one file per
//! member (the paper's layout: row-priority latitude lines, `h` bytes per
//! point). Then L-EnKF (single reader), P-EnKF (block reading) and S-EnKF
//! (bar reading + concurrent groups + multi-stage overlap with a helper
//! thread) each run as real rank threads, and their analyses are verified
//! to be identical to the serial reference.
//!
//! ```text
//! cargo run --release --example ocean_assimilation
//! ```

use s_enkf::parallel::AssimilationSetup;
use s_enkf::prelude::*;

fn main() {
    let mesh = Mesh::new(48, 24);
    let members = 12;
    let scenario = ScenarioBuilder::new(mesh)
        .members(members)
        .observation_stride(2)
        .seed(7)
        .build();

    // Lay the background ensemble out on "the parallel file system":
    // 3 vertical levels -> h = 24 bytes per grid point.
    let scratch = ScratchDir::new("ocean-assimilation").expect("scratch dir");
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 24)).expect("store");
    write_ensemble(&store, &scenario.ensemble).expect("write members");
    println!(
        "wrote {} member files ({} bytes each) under {}",
        members,
        store.layout().file_size(),
        scratch.path().display()
    );

    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let setup = AssimilationSetup {
        store: &store,
        members,
        observations: &scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };

    let reference =
        serial_enkf(&scenario.ensemble, &scenario.observations, radius).expect("serial");

    // L-EnKF: rank 0 reads everything and scatters.
    let (l_analysis, l_report, _, _) = LEnkf { nsdx: 4, nsdy: 3 }
        .run(&setup, &FaultConfig::none(), None)
        .expect("L-EnKF");
    // P-EnKF: every rank block-reads its own expansion.
    let (p_analysis, p_report, _, _) = PEnkf { nsdx: 4, nsdy: 3 }
        .run(&setup, &FaultConfig::none(), None)
        .expect("P-EnKF");
    // S-EnKF: 12 compute ranks + 2 groups x 3 bar readers, 2 layers.
    let senkf = SEnkf::new(Params {
        nsdx: 4,
        nsdy: 3,
        layers: 2,
        ncg: 2,
    });
    let (s_analysis, s_report, _, _) = senkf
        .run(&setup, &FaultConfig::none(), None)
        .expect("S-EnKF");

    for (name, analysis) in [
        ("L-EnKF", &l_analysis),
        ("P-EnKF", &p_analysis),
        ("S-EnKF", &s_analysis),
    ] {
        assert!(
            analysis.states().approx_eq(reference.states(), 1e-12),
            "{name} diverged from the serial reference"
        );
        println!(
            "{name}: RMSE {:.4} -> {:.4}  (identical to serial reference)",
            scenario.rmse_background(),
            scenario.rmse_of(analysis)
        );
    }

    println!(
        "\nwall times: L-EnKF {:.3}s | P-EnKF {:.3}s | S-EnKF {:.3}s",
        l_report.wall_time, p_report.wall_time, s_report.wall_time
    );
    println!(
        "S-EnKF phases: io ranks read {:.3}s, comm {:.3}s; compute ranks analyse {:.3}s, wait {:.3}s",
        s_report.io_mean().read,
        s_report.io_mean().comm,
        s_report.compute_mean().compute,
        s_report.compute_mean().wait,
    );
    println!(
        "I/O accounting: {} seeks, {} bytes read",
        store.stats().seeks,
        store.stats().bytes_read
    );

    // Write the analysis back to the file system with parallel bar writers
    // (the write-side mirror of the bar-reading co-design), then verify the
    // roundtrip.
    let out_dir = scratch.path().join("analysis");
    let out_store = FileStore::open(&out_dir, store.layout()).expect("output store");
    s_enkf::parallel::parallel_write_back(&out_store, &s_analysis, 3).expect("write-back");
    let reread = read_ensemble(&out_store, members).expect("re-read analysis");
    assert_eq!(
        reread.states(),
        s_analysis.states(),
        "write-back roundtrip must be exact"
    );
    println!(
        "analysis written back to {} and verified",
        out_dir.display()
    );
}
