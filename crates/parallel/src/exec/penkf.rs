//! P-EnKF: the block-reading state-of-the-art baseline (real executor).
//!
//! Every rank owns one sub-domain. For each of the `N` member files, it
//! reads its expansion block directly from the parallel file system
//! (Fig. 3: `O(height)` disk addressing operations per block because a
//! partial-width region is one segment per latitude row). Only after **all**
//! members are on-rank does the local analysis start — the strict
//! read-then-compute workflow of Fig. 4 whose lack of overlap the paper
//! attacks.

use crate::exec::setup::AssimilationSetup;
use crate::exec::Cycle;
use crate::report::ExecutionReport;
use enkf_core::{Ensemble, Result};
use enkf_data::region_to_matrix;
use enkf_fault::{FaultConfig, FaultLog};
use enkf_health::HealthMonitor;
use enkf_net::RankCtx;
use enkf_trace::Trace;

/// The P-EnKF variant: `n_sdx × n_sdy` ranks, block reading, sequential
/// phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PEnkf {
    /// Sub-domains (= ranks) along longitude.
    pub nsdx: usize,
    /// Sub-domains (= ranks) along latitude.
    pub nsdy: usize,
}

impl PEnkf {
    /// [`PEnkf::run`] without faults or health monitoring, dropping the
    /// empty fault log.
    pub fn run_traced(
        &self,
        setup: &AssimilationSetup<'_>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        self.run(setup, &FaultConfig::none(), None)
            .map(|(analysis, report, trace, _)| (analysis, report, trace))
    }

    /// Run the assimilation; returns the analysis ensemble, the phase
    /// timings, the execution trace and the fault log.
    ///
    /// The trace holds one read span per member block (bytes/seeks from
    /// the file layout, matching what the DES model charges) and one
    /// compute span per rank. The report's `PhaseBreakdown` is the
    /// per-rank projection of these spans.
    ///
    /// With `FaultConfig::none()` nothing is injected. Under a seeded
    /// plan, reads retry with backoff, unrecoverable members are dropped
    /// when `faults.degraded` is set (the cycle completes on the
    /// survivors), stragglers dilate compute, and every injected fault
    /// lands in the returned [`FaultLog`].
    ///
    /// With a [`HealthMonitor`], each rank consults the monitor's frozen
    /// [`RouteView`](enkf_health::RouteView) before every member read:
    /// members on blacklisted OSTs are read last (the reorder is
    /// digest-neutral and, because blocks are keyed by member before the
    /// analysis, numerically invisible) and routed through
    /// [`read_region_adaptive`] so a degraded OST triggers a speculative
    /// duplicate read against its replica. Observed read-dilation and
    /// compute-dilation ratios are fed back into the monitor; the caller
    /// folds them at the cycle boundary with [`HealthMonitor::end_cycle`].
    pub fn run(
        &self,
        setup: &AssimilationSetup<'_>,
        faults: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        setup.validate()?;
        let decomp = setup.decomposition(self.nsdx, self.nsdy)?;
        let radius = setup.analysis.radius;
        let cycle = Cycle::new(setup, faults, monitor)?;
        cycle.run("penkf-real", &decomp, 0, |cy, ctx: RankCtx<()>, tracer| {
            let rank = ctx.rank();
            let id = decomp.id_of_rank(rank);
            let target = decomp.subdomain(id);
            let expansion = decomp.expansion(id, radius);
            // Phase 1: block-read the expansion of every member file.
            let per_member = cy.read_members(tracer, &expansion)?;
            // Phase 2: local analysis on the gathered data.
            cy.analyze(tracer, rank, None, &target, &expansion, || {
                region_to_matrix(&expansion, &per_member)
            })
            .map(Some)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_core::{serial_enkf, LocalAnalysis};
    use enkf_data::{write_ensemble, ScenarioBuilder};
    use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
    use enkf_pfs::{FileStore, ScratchDir};

    fn setup_files(
        mesh: Mesh,
        members: usize,
        seed: u64,
    ) -> (ScratchDir, FileStore, enkf_data::Scenario) {
        let scenario = ScenarioBuilder::new(mesh)
            .members(members)
            .seed(seed)
            .build();
        let scratch = ScratchDir::new("penkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario)
    }

    #[test]
    fn matches_serial_reference_exactly() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = setup_files(mesh, 6, 3);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members: 6,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (analysis, report, _, _) = PEnkf { nsdx: 3, nsdy: 2 }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(
            analysis.states().approx_eq(reference.states(), 1e-12),
            "P-EnKF must equal the serial point-wise reference"
        );
        assert_eq!(report.num_compute_ranks, 6);
        assert!(report.compute_ranks.read > 0.0);
        assert!(report.compute_ranks.compute > 0.0);
        assert_eq!(
            report.compute_ranks.comm, 0.0,
            "P-EnKF has no communication phase"
        );
    }

    #[test]
    fn different_decompositions_agree() {
        let mesh = Mesh::new(12, 12);
        let (_s, store, scenario) = setup_files(mesh, 5, 9);
        let radius = LocalizationRadius { xi: 2, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members: 5,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (a, _, _, _) = PEnkf { nsdx: 2, nsdy: 2 }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        let (b, _, _, _) = PEnkf { nsdx: 4, nsdy: 3 }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        assert!(a.states().approx_eq(b.states(), 1e-12));
    }

    #[test]
    fn invalid_decomposition_is_rejected() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = setup_files(mesh, 4, 1);
        let setup = AssimilationSetup {
            store: &store,
            members: 4,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        };
        assert!(PEnkf { nsdx: 5, nsdy: 2 }
            .run(&setup, &FaultConfig::none(), None)
            .is_err());
    }
}
