//! End-to-end assimilation quality through the full parallel stack: write
//! files, run S-EnKF with real ranks and helper threads, and verify the
//! statistical properties data assimilation is supposed to deliver.

use s_enkf::core::{serial_enkf, LocalAnalysis};
use s_enkf::data::{read_ensemble, write_ensemble, ScenarioBuilder, SmoothFieldGenerator};
use s_enkf::fault::FaultConfig;
use s_enkf::grid::{FileLayout, LocalizationRadius, Mesh};
use s_enkf::parallel::{AssimilationSetup, SEnkf};
use s_enkf::pfs::{FileStore, ScratchDir};
use s_enkf::tuning::Params;

#[test]
fn parallel_assimilation_reduces_error_against_truth() {
    let mesh = Mesh::new(30, 18);
    let members = 20;
    let scenario = ScenarioBuilder::new(mesh)
        .members(members)
        .observation_stride(2)
        .obs_noise_std(0.1)
        .field_generator(SmoothFieldGenerator {
            modes: 4,
            max_wavenumber: 2,
            amplitude: 1.0,
            nugget: 0.2,
        })
        .seed(9)
        .build();
    let scratch = ScratchDir::new("quality").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
    write_ensemble(&store, &scenario.ensemble).unwrap();

    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let setup = AssimilationSetup {
        store: &store,
        members,
        observations: &scenario.observations,
        analysis: LocalAnalysis::new(radius),
    };
    let senkf = SEnkf::new(Params {
        nsdx: 3,
        nsdy: 3,
        layers: 2,
        ncg: 2,
    });
    let (analysis, report, _, _) = senkf.run(&setup, &FaultConfig::none(), None).unwrap();

    let before = scenario.rmse_background();
    let after = scenario.rmse_of(&analysis);
    assert!(after < before * 0.8, "rmse {before} -> {after}");
    assert!(report.wall_time > 0.0);
    assert_eq!(report.num_compute_ranks, 9);
    assert_eq!(report.num_io_ranks, 6);
}

#[test]
fn analysis_tightens_ensemble_spread_at_observed_points() {
    // Assimilation must reduce the ensemble variance where information was
    // injected.
    let mesh = Mesh::new(20, 12);
    let members = 16;
    let scenario = ScenarioBuilder::new(mesh)
        .members(members)
        .observation_stride(2)
        .seed(13)
        .build();
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let analysis = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();

    let spread = |e: &s_enkf::core::Ensemble, idx: usize| {
        let mean: f64 = (0..members).map(|k| e.states()[(idx, k)]).sum::<f64>() / members as f64;
        (0..members)
            .map(|k| (e.states()[(idx, k)] - mean).powi(2))
            .sum::<f64>()
            / (members - 1) as f64
    };

    let mut tightened = 0usize;
    let obs_points = scenario.observations.operator().network().points().to_vec();
    for &p in &obs_points {
        let idx = mesh.index(p);
        if spread(&analysis, idx) < spread(&scenario.ensemble, idx) {
            tightened += 1;
        }
    }
    assert!(
        tightened * 10 >= obs_points.len() * 9,
        "spread reduced at only {tightened}/{} observed points",
        obs_points.len()
    );
}

#[test]
fn file_roundtrip_preserves_background_exactly() {
    let mesh = Mesh::new(16, 10);
    let members = 6;
    let scenario = ScenarioBuilder::new(mesh).members(members).seed(3).build();
    let scratch = ScratchDir::new("roundtrip").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 16)).unwrap();
    write_ensemble(&store, &scenario.ensemble).unwrap();
    let back = read_ensemble(&store, members).unwrap();
    assert_eq!(
        back.states(),
        scenario.ensemble.states(),
        "bit-exact roundtrip"
    );
    assert_eq!(store.num_members(), members);
}

#[test]
fn perturbed_observations_are_reproducible_across_processes_of_any_layout() {
    // The same (seed, member-count) schema must yield identical Y^s rows no
    // matter which region asks for them — the property distributed ranks
    // rely on.
    let mesh = Mesh::new(24, 12);
    let scenario = ScenarioBuilder::new(mesh).members(10).seed(77).build();
    let full = s_enkf::grid::RegionRect::full(mesh);
    let left = s_enkf::grid::RegionRect::new(0, 12, 0, 12);
    let global = scenario.observations.localize(&full);
    let local = scenario.observations.localize(&left);
    // Every local row must equal the corresponding global row.
    for (r, &row_idx) in local.local_rows.iter().enumerate() {
        let p = left.point_at(row_idx);
        let global_r = global
            .local_rows
            .iter()
            .position(|&g| full.point_at(g) == p)
            .expect("observation present globally");
        assert_eq!(local.perturbed.row(r), global.perturbed.row(global_r));
    }
}
