//! Failure injection: the parallel executors must surface substrate
//! failures (missing or truncated member files, inconsistent setups) as
//! errors instead of panicking, deadlocking, or silently producing a wrong
//! analysis.

mod common;

use common::harness_labeled;
use s_enkf::core::{LocalAnalysis, PerturbedObservations};
use s_enkf::data::ScenarioBuilder;
use s_enkf::fault::FaultConfig;
use s_enkf::grid::{LocalizationRadius, Mesh};
use s_enkf::parallel::{AssimilationSetup, LEnkf, PEnkf, SEnkf};
use s_enkf::tuning::Params;

fn radius() -> LocalizationRadius {
    LocalizationRadius { xi: 1, eta: 1 }
}

#[test]
fn missing_member_file_is_an_error_in_every_variant() {
    let mesh = Mesh::new(8, 8);
    let members = 4;
    let h = harness_labeled("fail-missing", mesh, members, 1, 1);
    // Remove one member file.
    std::fs::remove_file(h.store.member_path(2)).unwrap();

    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(
        PEnkf { nsdx: 2, nsdy: 2 }
            .run(&setup, &FaultConfig::none(), None)
            .is_err(),
        "P-EnKF must error"
    );
    assert!(
        LEnkf { nsdx: 2, nsdy: 2 }
            .run(&setup, &FaultConfig::none(), None)
            .is_err(),
        "L-EnKF must error"
    );
    let senkf = SEnkf::new(Params {
        nsdx: 2,
        nsdy: 2,
        layers: 2,
        ncg: 2,
    });
    assert!(
        senkf.run(&setup, &FaultConfig::none(), None).is_err(),
        "S-EnKF must error"
    );
}

#[test]
fn truncated_member_file_is_an_error() {
    let mesh = Mesh::new(8, 8);
    let members = 3;
    let h = harness_labeled("fail-truncated", mesh, members, 2, 1);
    // Truncate the last member to half its size.
    let path = h.store.member_path(2);
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(PEnkf { nsdx: 2, nsdy: 2 }
        .run(&setup, &FaultConfig::none(), None)
        .is_err());
}

#[test]
fn member_count_mismatch_with_perturbations_is_rejected() {
    let mesh = Mesh::new(8, 8);
    let h = harness_labeled("fail-mismatch", mesh, 4, 3, 1);
    // Claim 3 members while the perturbation schema was built for 4.
    let setup = AssimilationSetup {
        store: &h.store,
        members: 3,
        observations: &h.scenario.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(PEnkf { nsdx: 2, nsdy: 2 }
        .run(&setup, &FaultConfig::none(), None)
        .is_err());
}

#[test]
fn observation_mesh_mismatch_is_rejected() {
    let mesh = Mesh::new(8, 8);
    let members = 4;
    let h = harness_labeled("fail-mesh", mesh, members, 4, 1);
    // Observations built on a different mesh.
    let other = ScenarioBuilder::new(Mesh::new(12, 8))
        .members(members)
        .seed(4)
        .build();
    let setup = AssimilationSetup {
        store: &h.store,
        members,
        observations: &other.observations,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(PEnkf { nsdx: 2, nsdy: 2 }
        .run(&setup, &FaultConfig::none(), None)
        .is_err());
}

#[test]
fn too_few_members_is_rejected() {
    let mesh = Mesh::new(8, 8);
    let h = harness_labeled("fail-few", mesh, 2, 5, 1);
    let obs = h.scenario.observations.clone();
    // Rebuild a 1-member claim: validate() must reject it.
    let setup = AssimilationSetup {
        store: &h.store,
        members: 1,
        observations: &obs,
        analysis: LocalAnalysis::new(radius()),
    };
    assert!(setup.validate().is_err());
    let _ = PerturbedObservations::new(0, 2); // silence unused-import lints on feature churn
}
