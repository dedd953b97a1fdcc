//! L-EnKF: the single-reader baseline (real executor).
//!
//! Rank 0 reads the member files one after another and scatters each rank's
//! expansion block over the network (§3.1, §6: "a single reader processor
//! communicates the data to the other processors, which can not make full
//! use of parallel file systems"). Every rank then runs the same local
//! analysis as the other variants.

use crate::exec::setup::AssimilationSetup;
use crate::exec::{abort_peers, receive, Blocks, Cycle, Wire};
use crate::report::ExecutionReport;
use enkf_core::{Ensemble, Result};
use enkf_data::region_to_matrix;
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_health::HealthMonitor;
use enkf_net::RankCtx;
use enkf_pfs::{read_full_adaptive, RegionData};
use enkf_trace::Trace;
use std::time::Duration;

/// The L-EnKF variant: `n_sdx × n_sdy` ranks, rank 0 is the only reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LEnkf {
    /// Sub-domains (= ranks) along longitude.
    pub nsdx: usize,
    /// Sub-domains (= ranks) along latitude.
    pub nsdy: usize,
}

impl LEnkf {
    /// Run the assimilation; returns the analysis ensemble, the phase
    /// timings, the execution trace and the fault log.
    ///
    /// The trace: rank 0 emits one full-file read span per member plus one
    /// send span per (member, peer) scatter; every other rank emits wait
    /// spans for the blocked receives. The report is the per-rank
    /// projection of the spans.
    ///
    /// With `FaultConfig::none()` nothing is injected. Under a seeded
    /// plan, rank 0's reads retry with backoff, unrecoverable members are
    /// dropped in degraded mode (peers then expect one bundle fewer),
    /// scheduled message delays stall the scatter sends, and crashes or
    /// message drops make peers receive with a timeout so they surface a
    /// typed error instead of hanging.
    ///
    /// With a [`HealthMonitor`], rank 0 (the only reader) reads members
    /// whose OST is blacklisted last and routes every read through
    /// [`read_full_adaptive`], so a degraded OST triggers a speculative
    /// duplicate against its replica. Receivers key incoming blocks by
    /// member index, so the reorder never changes the analysis input.
    /// Observed dilation ratios feed the monitor; the caller folds them
    /// with [`HealthMonitor::end_cycle`].
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
        cycle.run(
            "lenkf-real",
            &decomp,
            0,
            |cy, ctx: RankCtx<Wire<Blocks>>, tracer| {
                let rank = ctx.rank();
                let injector = &cy.faults.injector;
                let id = decomp.id_of_rank(rank);
                let target = decomp.subdomain(id);
                let expansion = decomp.expansion(id, radius);
                let mut per_member: Vec<Option<RegionData>> =
                    (0..setup.members).map(|_| None).collect();

                if rank == 0 {
                    // The single reader: read each full member, carve out
                    // every rank's expansion block, send (keep own block
                    // locally). Dropped members burn their injected-failure
                    // spans but produce no scatter. Peers key blocks by
                    // member index, so the monitor's read order is
                    // invisible to the numerics.
                    for &k in &cy.order {
                        let full = match read_full_adaptive(
                            setup.store,
                            tracer,
                            None,
                            k,
                            injector,
                            monitor,
                        ) {
                            Ok(d) => d,
                            Err(_) if cy.faults.dropped.contains(&k) => continue,
                            Err(e) => {
                                abort_peers(&ctx, 1..ctx.size());
                                return Err(e.into());
                            }
                        };
                        for peer in 1..ctx.size() {
                            let peer_exp = decomp.expansion(decomp.id_of_rank(peer), radius);
                            let (_, block_bytes) = setup.store.op_cost(&peer_exp);
                            let delay = injector.send_delay(0, peer);
                            let drop_msg = injector.message_dropped(0, peer);
                            tracer.send(None, peer, block_bytes, || {
                                if delay > 0.0 {
                                    std::thread::sleep(Duration::from_secs_f64(delay));
                                }
                                let block = full.extract(&peer_exp);
                                if !drop_msg {
                                    ctx.send(
                                        peer,
                                        Wire::Data(Blocks {
                                            stage: 0,
                                            members: vec![k],
                                            data: vec![block],
                                        }),
                                    );
                                }
                            });
                        }
                        per_member[k] = Some(full.extract(&expansion));
                    }
                } else {
                    // Receive the expansion blocks of all surviving members
                    // from rank 0.
                    tracer.wait(None, || {
                        for _ in 0..cy.faults.alive.len() {
                            let mut blocks = receive(ctx.inbox(), cy.faults.timeout())?;
                            per_member[blocks.members[0]] = blocks.data.pop();
                        }
                        Ok::<_, SubstrateError>(())
                    })?;
                }

                // Typed, not a panic: a protocol violation (a duplicate
                // block shadowing another member within the counted
                // receive loop) must tear this rank down cleanly, like
                // every other substrate failure.
                let mut assembled: Vec<RegionData> = Vec::with_capacity(cy.faults.alive.len());
                for &k in &cy.faults.alive {
                    match per_member[k].take() {
                        Some(d) => assembled.push(d),
                        None => {
                            return Err(SubstrateError::HelperFailed {
                                rank,
                                detail: format!("member {k} block missing after scatter"),
                            }
                            .into())
                        }
                    }
                }
                cy.analyze(tracer, rank, None, &target, &expansion, || {
                    region_to_matrix(&expansion, &assembled)
                })
                .map(Some)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PEnkf;
    use enkf_core::{serial_enkf, LocalAnalysis};
    use enkf_data::{write_ensemble, ScenarioBuilder};
    use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
    use enkf_pfs::{FileStore, ScratchDir};

    #[test]
    fn lenkf_matches_serial_and_penkf() {
        let mesh = Mesh::new(12, 6);
        let members = 5;
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(21).build();
        let scratch = ScratchDir::new("lenkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (l_analysis, l_report, _, _) = LEnkf { nsdx: 4, nsdy: 2 }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        let (p_analysis, _, _, _) = PEnkf { nsdx: 4, nsdy: 2 }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(l_analysis.states().approx_eq(reference.states(), 1e-12));
        assert!(l_analysis.states().approx_eq(p_analysis.states(), 1e-12));
        // Rank 0 did all the reading and all the sending.
        assert!(l_report.compute_ranks.read > 0.0);
        assert!(l_report.compute_ranks.comm > 0.0);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let mesh = Mesh::new(6, 6);
        let members = 4;
        let scenario = ScenarioBuilder::new(mesh).members(members).seed(2).build();
        let scratch = ScratchDir::new("lenkf1").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (analysis, _, _, _) = LEnkf { nsdx: 1, nsdy: 1 }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(analysis.states().approx_eq(reference.states(), 1e-12));
    }
}
