//! Property test: for *random* meshes, ensemble sizes, localization radii
//! and S-EnKF parameterizations, the parallel analyses are identical to the
//! serial point-wise reference.

use enkf_core::{serial_enkf, LocalAnalysis};
use enkf_data::{write_ensemble, ScenarioBuilder};
use enkf_fault::FaultConfig;
use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
use enkf_parallel::{AssimilationSetup, PEnkf, SEnkf};
use enkf_pfs::{FileStore, ScratchDir};
use enkf_tuning::Params;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    mesh: Mesh,
    members: usize,
    radius: LocalizationRadius,
    params: Params,
    seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    // Mesh extents chosen with guaranteed divisors for (nsdx, nsdy, L).
    (
        2usize..=4,
        2usize..=3,
        1usize..=2,
        1usize..=2,
        0usize..=2,
        0usize..=2,
        3usize..=6,
        any::<u64>(),
    )
        .prop_map(|(nsdx, nsdy, layers, cells, xi, eta, members, seed)| {
            let mesh = Mesh::new(nsdx * 3, nsdy * layers * cells);
            // n_cg must divide members.
            let ncg = if members % 2 == 0 { 2 } else { 1 };
            Case {
                mesh,
                members,
                radius: LocalizationRadius { xi, eta },
                params: Params {
                    nsdx,
                    nsdy,
                    layers,
                    ncg,
                },
                seed,
            }
        })
}

proptest! {
    // Each case spins up real threads and writes real files; keep the case
    // count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_variants_equal_serial_reference(case in case_strategy()) {
        let scenario = ScenarioBuilder::new(case.mesh)
            .members(case.members)
            .observation_stride(2)
            .seed(case.seed)
            .build();
        let scratch = ScratchDir::new("equiv-prop").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(case.mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let setup = AssimilationSetup {
            store: &store,
            members: case.members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(case.radius),
        };
        let reference =
            serial_enkf(&scenario.ensemble, &scenario.observations, case.radius).unwrap();

        let (p, _, _, _) = PEnkf { nsdx: case.params.nsdx, nsdy: case.params.nsdy }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        prop_assert!(
            p.states().approx_eq(reference.states(), 1e-12),
            "P-EnKF diverged for {case:?}"
        );

        let (s, report, _, _) = SEnkf::new(case.params).run(&setup, &FaultConfig::none(), None).unwrap();
        prop_assert!(
            s.states().approx_eq(reference.states(), 1e-12),
            "S-EnKF diverged for {case:?}"
        );
        prop_assert_eq!(report.num_io_ranks, case.params.c1());
        prop_assert_eq!(report.num_compute_ranks, case.params.c2());
    }
}
