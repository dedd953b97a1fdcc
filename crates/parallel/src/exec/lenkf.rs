//! L-EnKF: the single-reader baseline (real executor).
//!
//! Rank 0 reads the member files one after another and scatters each rank's
//! expansion block over the network (§3.1, §6: "a single reader processor
//! communicates the data to the other processors, which can not make full
//! use of parallel file systems"). Every rank then runs the same local
//! analysis as the other variants.

use crate::exec::setup::AssimilationSetup;
use crate::exec::{assemble_analysis, dilate, prepare_faults, Msg};
use crate::report::{ExecutionReport, PhaseBreakdown};
use enkf_core::{Ensemble, Result};
use enkf_data::region_to_matrix;
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_health::HealthMonitor;
use enkf_net::{Cluster, RankCtx};
use enkf_pfs::{read_full_adaptive, RegionData};
use enkf_trace::Trace;
use std::time::{Duration, Instant};

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
        let mesh = setup.mesh();
        let radius = setup.analysis.radius;
        let nranks = decomp.num_subdomains();
        let prep = prepare_faults(faults, setup.members)?;
        let injector = &prep.injector;
        let dropped = &prep.dropped;
        let alive = &prep.alive;
        let use_timeout = prep.use_timeout;
        let recv_timeout = faults.recv_timeout;
        // Build the spatial observation index and perturbation cache once
        // per cycle, before the worker ranks start querying it.
        setup.observations.prepare();
        let t0 = Instant::now();

        type RankOut = Result<(enkf_grid::RegionRect, enkf_linalg::Matrix)>;
        let results: Vec<(RankOut, Vec<enkf_trace::Span>)> =
            Cluster::run_traced(nranks, |mut ctx: RankCtx<Msg>, tracer| {
                let rank = ctx.rank();
                if let Some(stage) = injector.crash_stage(rank) {
                    injector.log().crashed(rank, stage);
                    return Err(SubstrateError::RankCrashed { rank, stage }.into());
                }
                let id = decomp.id_of_rank(rank);
                let target = decomp.subdomain(id);
                let expansion = decomp.expansion(id, radius);
                let mut per_member: Vec<Option<RegionData>> =
                    (0..setup.members).map(|_| None).collect();

                if rank == 0 {
                    // The single reader: read each full member, carve out every
                    // rank's expansion block, send (keep own block locally).
                    // Dropped members burn their injected-failure spans but
                    // produce no scatter. Under a health monitor the read
                    // order moves blacklisted-OST members last; peers key
                    // blocks by member index, so the reorder is invisible
                    // to the numerics.
                    let order: Vec<usize> = match monitor {
                        Some(mon) => mon.view().reorder(&(0..setup.members).collect::<Vec<_>>()),
                        None => (0..setup.members).collect(),
                    };
                    for &k in &order {
                        let full = match read_full_adaptive(
                            setup.store,
                            tracer,
                            None,
                            k,
                            injector,
                            monitor,
                        ) {
                            Ok(d) => d,
                            Err(_) if dropped.contains(&k) => continue,
                            Err(e) => {
                                // Unblock every waiting rank before bailing out.
                                for peer in 1..ctx.size() {
                                    ctx.send(
                                        peer,
                                        k as u64,
                                        Msg::Abort {
                                            reason: format!("read failed: {e}"),
                                        },
                                    );
                                }
                                return Err(e.into());
                            }
                        };
                        for peer in 1..ctx.size() {
                            let peer_id = decomp.id_of_rank(peer);
                            let peer_exp = decomp.expansion(peer_id, radius);
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
                                        k as u64,
                                        Msg::Blocks {
                                            stage: 0,
                                            members: vec![k],
                                            data: vec![block],
                                        },
                                    );
                                }
                            });
                        }
                        per_member[k] = Some(full.extract(&expansion));
                    }
                } else {
                    // Receive the expansion blocks of all surviving members
                    // from rank 0.
                    let received: std::result::Result<(), enkf_core::EnkfError> =
                        tracer.wait(None, || {
                            for _ in 0..alive.len() {
                                let envelope = if use_timeout {
                                    match ctx.recv_timeout(recv_timeout) {
                                        Ok(env) => env,
                                        Err(e) => return Err(e.into()),
                                    }
                                } else {
                                    match ctx.recv() {
                                        Ok(env) => env,
                                        Err(e) => return Err(e.into()),
                                    }
                                };
                                match envelope.payload {
                                    Msg::Blocks {
                                        members, mut data, ..
                                    } => {
                                        let k = members[0];
                                        per_member[k] = Some(data.remove(0));
                                    }
                                    Msg::Abort { reason } => {
                                        return Err(enkf_core::EnkfError::GeometryMismatch(
                                            format!("reader aborted: {reason}"),
                                        ))
                                    }
                                }
                            }
                            Ok(())
                        });
                    received?;
                }

                // Typed, not a panic: a protocol violation (a duplicate
                // block shadowing another member within the counted
                // receive loop) must tear this rank down cleanly, like
                // every other substrate failure.
                let mut assembled: Vec<RegionData> = Vec::with_capacity(alive.len());
                for &k in alive {
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
                let per_member = assembled;
                let dilation = injector.compute_dilation(rank);
                let out = tracer.compute(None, || {
                    let start = Instant::now();
                    let xb = region_to_matrix(&expansion, &per_member);
                    let mut obs = setup.observations.localize(&expansion);
                    if !dropped.is_empty() {
                        obs = obs.select_members(alive);
                    }
                    let r = setup.analysis.analyze(mesh, &target, &expansion, &xb, &obs);
                    dilate(start, dilation);
                    r
                });
                if let Some(mon) = monitor {
                    mon.observe_compute(rank, dilation);
                }
                out.map(|m| (target, m))
            });

        let mut trace = Trace::new("lenkf-real");
        let mut compute_ranks = PhaseBreakdown::default();
        let mut per_domain = Vec::with_capacity(nranks);
        for (res, spans) in results {
            compute_ranks.merge(&PhaseBreakdown::from_spans(&spans));
            trace.extend(spans);
            per_domain.push(res?);
        }
        let analysis = assemble_analysis(mesh, alive.len(), &decomp, per_domain);
        let report = ExecutionReport {
            compute_ranks,
            io_ranks: PhaseBreakdown::default(),
            num_compute_ranks: nranks,
            num_io_ranks: 0,
            wall_time: t0.elapsed().as_secs_f64(),
            dropped_members: dropped.clone(),
        };
        Ok((analysis, report, trace, prep.injector.into_log()))
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
