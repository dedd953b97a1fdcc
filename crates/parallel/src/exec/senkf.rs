//! S-EnKF: the paper's co-designed scalable EnKF (real executor).
//!
//! Processor roles (Fig. 8): `C₂ = n_sdx·n_sdy` **compute ranks** own one
//! sub-domain each; `C₁ = n_cg·n_sdy` **I/O ranks** form `n_cg` concurrent
//! groups of `n_sdy` readers. Work proceeds in `L` stages:
//!
//! * I/O rank `(g, j)` reads, for every member file of its group, the
//!   *small bar* of latitude-block `j`, stage `l` — a full-width band, one
//!   contiguous segment, one disk addressing operation (§4.1.2) — and sends
//!   each compute rank `(i, j)` its block (the layer expansion) bundled
//!   over the group's files.
//! * Compute rank `(i, j)` runs a **helper thread** that ingests blocks and
//!   hands the main thread a fully assembled `X̄ᵇ` per stage; the main
//!   thread analyzes layer `l` while the helper (and the I/O ranks) already
//!   work on stage `l+1` — the overlap of Figs. 7–8.

use crate::exec::setup::AssimilationSetup;
use crate::exec::{abort_peers, receive, Blocks, Cycle, Wire};
use crate::prep::read_order;
use crate::report::ExecutionReport;
use enkf_core::{EnkfError, Ensemble, Result};
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_grid::SubDomainId;
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_net::RankCtx;
use enkf_pfs::{read_stages_ahead_adaptive, ReadAheadError, StageRead};
use enkf_trace::Trace;
use enkf_tuning::Params;
use std::collections::BTreeMap;
use std::time::Duration;

/// The S-EnKF variant, configured by the auto-tunable parameter set
/// `(n_sdx, n_sdy, L, n_cg)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SEnkf {
    /// Decomposition / overlap parameters (`enkf_tuning::Params`).
    pub params: Params,
}

impl SEnkf {
    /// Construct from a parameter set (e.g. the auto-tuner's output).
    pub fn new(params: Params) -> Self {
        SEnkf { params }
    }

    /// [`SEnkf::run`] without faults or health monitoring, dropping the
    /// empty fault log.
    pub fn run_traced(
        &self,
        setup: &AssimilationSetup<'_>,
    ) -> Result<(Ensemble, ExecutionReport, Trace)> {
        self.run(setup, &FaultConfig::none(), None)
            .map(|(analysis, report, trace, _)| (analysis, report, trace))
    }

    /// Run the assimilation; returns the analysis ensemble, the phase
    /// timings (compute ranks and I/O ranks reported separately), the
    /// execution trace and the fault log.
    ///
    /// The trace holds, per I/O rank, one read span per (stage, group
    /// file) — a single-seek bar — and one send span per (stage, compute
    /// peer); per compute rank one wait and one compute span per stage.
    /// The report's per-class `PhaseBreakdown`s are projections of these
    /// spans.
    ///
    /// With `FaultConfig::none()` nothing is injected. Under a seeded
    /// plan, I/O-rank bar reads retry with backoff, unrecoverable members
    /// are dropped in degraded mode (bundles shrink to the group's
    /// survivors; compute ranks assemble `N − |dropped|` columns),
    /// stragglers dilate compute, message delays stall sends, and crashes
    /// or message drops switch receives to a timeout that surfaces
    /// [`SubstrateError::RecvTimeout`] instead of hanging.
    ///
    /// With a [`HealthMonitor`], each I/O rank reorders its group's member
    /// list so blacklisted-OST members are read last (bundles carry
    /// explicit member indices and the helper thread places columns by
    /// member, so the reorder never reaches the numerics), and every bar
    /// read goes through the adaptive route — a blacklisted OST triggers a
    /// deterministic speculative duplicate read against its replica.
    /// Observed read and compute dilation ratios feed the monitor; the
    /// caller folds them at the cycle boundary with
    /// [`HealthMonitor::end_cycle`].
    pub fn run(
        &self,
        setup: &AssimilationSetup<'_>,
        faults: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        setup.validate()?;
        let p = self.params;
        let decomp = setup.decomposition(p.nsdx, p.nsdy)?;
        decomp
            .check_layers(p.layers)
            .map_err(|e| EnkfError::GeometryMismatch(e.to_string()))?;
        if p.ncg == 0 || !setup.members.is_multiple_of(p.ncg) {
            return Err(EnkfError::GeometryMismatch(format!(
                "members {} not divisible by n_cg {}",
                setup.members, p.ncg
            )));
        }
        let radius = setup.analysis.radius;
        let c2 = decomp.num_subdomains();
        let files_per_group = setup.members / p.ncg;
        let cycle = Cycle::new(setup, faults, monitor)?;
        // Global member index → column of the (possibly reduced) X̄ᵇ.
        let alive_cols: BTreeMap<usize, usize> = cycle
            .faults
            .alive
            .iter()
            .enumerate()
            .map(|(c, &k)| (k, c))
            .collect();
        // Groups whose members all dropped send no bundles at all, so the
        // helper thread must expect `layers × groups_alive` of them.
        let groups_alive = (0..p.ncg)
            .filter(|g| {
                (g * files_per_group..(g + 1) * files_per_group)
                    .any(|k| !cycle.faults.dropped.contains(&k))
            })
            .count();

        cycle.run(
            "senkf-real",
            &decomp,
            p.ncg * p.nsdy,
            |cy, mut ctx: RankCtx<Wire<Blocks>>, tracer| {
                let rank = ctx.rank();
                let injector = &cy.faults.injector;
                let dropped = &cy.faults.dropped;
                if rank >= c2 {
                    // ---- I/O rank (group g, latitude block j) ----
                    let io_index = rank - c2;
                    let group = io_index / p.nsdy;
                    let j = io_index % p.nsdy;
                    // Under a health monitor, read blacklisted-OST members
                    // last. `alive_files` is derived from the *reordered*
                    // list, so bundle member order always matches the data
                    // order the pipeline delivers.
                    let files: Vec<usize> =
                        (group * files_per_group..(group + 1) * files_per_group).collect();
                    let files = read_order(&files, monitor);
                    let alive_files: Vec<usize> = files
                        .iter()
                        .copied()
                        .filter(|k| !dropped.contains(k))
                        .collect();
                    // Read stages through the one-stage read-ahead pipeline:
                    // a prefetch thread reads stage l+1's bar while this
                    // thread scatters stage l's blocks. The plan is truncated
                    // at a planned crash stage so exactly the reads the
                    // sequential loop would perform happen — digests are
                    // order-insensitive, so prefetching cannot move them.
                    let crash = injector.crash_stage(rank);
                    let plan: Vec<StageRead> = (0..crash.unwrap_or(p.layers))
                        .map(|l| StageRead {
                            stage: l,
                            region: decomp.small_bar(j, l, p.layers, radius),
                            members: files.clone(),
                        })
                        .collect();
                    let outcome = read_stages_ahead_adaptive::<std::convert::Infallible>(
                        setup.store,
                        injector,
                        tracer,
                        &plan,
                        dropped,
                        monitor,
                        |sr, datas, tracer| {
                            let l = sr.stage;
                            if alive_files.is_empty() {
                                return Ok(()); // whole group dropped: nothing to send
                            }
                            debug_assert_eq!(datas.len(), alive_files.len());
                            for i in 0..p.nsdx {
                                let id = SubDomainId { i, j };
                                let block = decomp.block_of_small_bar(id, l, p.layers, radius);
                                let (_, block_bytes) = setup.store.op_cost(&block);
                                let bundle_bytes = block_bytes * alive_files.len() as u64;
                                let target = decomp.rank_of(id);
                                let delay = injector.send_delay(rank, target);
                                let drop_msg = injector.message_dropped(rank, target);
                                // Serialization (block extraction) is charged to the
                                // send, mirroring the model's sender-side service.
                                // Extraction is O(1) per member: each block is a
                                // view sharing the bar's allocation.
                                tracer.send(Some(l), target, bundle_bytes, || {
                                    if delay > 0.0 {
                                        std::thread::sleep(Duration::from_secs_f64(delay));
                                    }
                                    let data = datas.iter().map(|d| d.extract(&block)).collect();
                                    if !drop_msg {
                                        ctx.send(
                                            target,
                                            Wire::Data(Blocks {
                                                stage: l,
                                                members: alive_files.clone(),
                                                data,
                                            }),
                                        );
                                    }
                                });
                            }
                            Ok(())
                        },
                    );
                    let failure: EnkfError = match outcome {
                        Ok(()) => match crash {
                            // The plan kills this rank at the start of stage
                            // l: it stops responding — peers must time out.
                            Some(l) => {
                                injector.log().crashed(rank, l);
                                return Err(SubstrateError::RankCrashed { rank, stage: l }.into());
                            }
                            None => return Ok(None),
                        },
                        Err(ReadAheadError::Read { error, .. }) => error.into(),
                        Err(ReadAheadError::Consume(never)) => match never {},
                        // A contained prefetch-thread panic: a typed
                        // substrate error, not a torn-down executor.
                        Err(ReadAheadError::ReaderPanicked { message }) => {
                            SubstrateError::HelperFailed {
                                rank,
                                detail: format!("prefetch thread panicked: {message}"),
                            }
                            .into()
                        }
                    };
                    // Unblock this latitude block's compute ranks before
                    // bailing out.
                    abort_peers(
                        &ctx,
                        (0..p.nsdx).map(|i| decomp.rank_of(SubDomainId { i, j })),
                    );
                    return Err(failure);
                }

                // ---- Compute rank (sub-domain id) ----
                let id = decomp.id_of_rank(rank);
                let target = decomp.subdomain(id);

                // Offload reception to the helper thread (Fig. 8): it
                // assembles X̄ᵇ for each stage and hands it to the main
                // thread, or the typed reason it cannot.
                let inbox = ctx.split_receiver();
                let (tx, rx) = std::sync::mpsc::channel::<
                    std::result::Result<(usize, Matrix), SubstrateError>,
                >();
                let alive_total = cy.faults.alive.len();
                let cols = alive_cols.clone();
                let layers = p.layers;
                let timeout = cy.faults.timeout();
                let helper = std::thread::spawn(move || {
                    let mut stages: BTreeMap<usize, (Matrix, usize)> = BTreeMap::new();
                    for _ in 0..layers * groups_alive {
                        let blocks = match receive(&inbox, timeout) {
                            Ok(blocks) => blocks,
                            Err(e) => {
                                let _ = tx.send(Err(e));
                                return;
                            }
                        };
                        let stage = blocks.stage;
                        let region = decomp.layer_expansion(id, stage, layers, radius);
                        let (matrix, filled) = stages
                            .entry(stage)
                            .or_insert_with(|| (Matrix::zeros(region.npoints(), alive_total), 0));
                        for (&k, rd) in blocks.members.iter().zip(&blocks.data) {
                            debug_assert_eq!(rd.region(), region, "block region mismatch");
                            let col = cols[&k];
                            for (row, v) in rd.surface().enumerate() {
                                matrix[(row, col)] = v;
                            }
                        }
                        *filled += blocks.members.len();
                        if *filled == alive_total {
                            if let Some((done, _)) = stages.remove(&stage) {
                                if tx.send(Ok((stage, done))).is_err() {
                                    return; // main thread bailed out
                                }
                            }
                        }
                    }
                });

                // Multi-stage local analysis: stage l computes while the helper
                // and the I/O ranks feed stage l+1.
                let row_stride = target.height() / p.layers * target.width();
                let mut result = Matrix::zeros(target.npoints(), alive_total);
                let mut ready: BTreeMap<usize, Matrix> = BTreeMap::new();
                for l in 0..p.layers {
                    let xb = loop {
                        if let Some(m) = ready.remove(&l) {
                            break m;
                        }
                        match tracer.wait(Some(l), || rx.recv()) {
                            Ok(Ok((stage, m))) => {
                                ready.insert(stage, m);
                            }
                            Ok(Err(e)) => return Err(e.into()),
                            Err(_) => {
                                return Err(SubstrateError::HelperFailed {
                                    rank,
                                    detail: "helper thread terminated early".into(),
                                }
                                .into())
                            }
                        }
                    };
                    let layer = decomp.layer(id, l, p.layers);
                    let expansion = decomp.layer_expansion(id, l, p.layers, radius);
                    let xa = cy.analyze(tracer, rank, Some(l), &layer, &expansion, || xb)?;
                    // Layer rows are contiguous within the sub-domain's
                    // row-priority local ordering.
                    for r in 0..xa.nrows() {
                        result
                            .row_mut(l * row_stride + r)
                            .copy_from_slice(xa.row(r));
                    }
                }
                if helper.join().is_err() {
                    return Err(SubstrateError::HelperFailed {
                        rank,
                        detail: "helper thread panicked".into(),
                    }
                    .into());
                }
                Ok(Some(result))
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

    fn harness(
        mesh: Mesh,
        members: usize,
        seed: u64,
    ) -> (ScratchDir, FileStore, enkf_data::Scenario) {
        let scenario = ScenarioBuilder::new(mesh)
            .members(members)
            .seed(seed)
            .build();
        let scratch = ScratchDir::new("senkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario)
    }

    #[test]
    fn matches_serial_reference_exactly() {
        let mesh = Mesh::new(12, 8);
        let members = 6;
        let (_s, store, scenario) = harness(mesh, members, 31);
        let radius = LocalizationRadius { xi: 1, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let senkf = SEnkf::new(Params {
            nsdx: 3,
            nsdy: 2,
            layers: 2,
            ncg: 2,
        });
        let (analysis, report, _, _) = senkf.run(&setup, &FaultConfig::none(), None).unwrap();
        let reference = serial_enkf(&scenario.ensemble, &scenario.observations, radius).unwrap();
        assert!(
            analysis.states().approx_eq(reference.states(), 1e-12),
            "S-EnKF must equal the serial point-wise reference"
        );
        assert_eq!(report.num_compute_ranks, 6);
        assert_eq!(report.num_io_ranks, 4);
        assert!(report.io_ranks.read > 0.0, "I/O ranks must do the reading");
        assert!(report.compute_ranks.compute > 0.0);
        assert_eq!(
            report.compute_ranks.read, 0.0,
            "compute ranks never touch disk"
        );
    }

    #[test]
    fn senkf_equals_penkf_across_parameterizations() {
        let mesh = Mesh::new(16, 12);
        let members = 8;
        let (_s, store, scenario) = harness(mesh, members, 5);
        let radius = LocalizationRadius { xi: 2, eta: 1 };
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(radius),
        };
        let (p_analysis, _, _, _) = PEnkf { nsdx: 4, nsdy: 3 }
            .run(&setup, &FaultConfig::none(), None)
            .unwrap();
        for (layers, ncg) in [(1, 1), (2, 2), (4, 4), (2, 8)] {
            let senkf = SEnkf::new(Params {
                nsdx: 4,
                nsdy: 3,
                layers,
                ncg,
            });
            let (analysis, _, _, _) = senkf.run(&setup, &FaultConfig::none(), None).unwrap();
            assert!(
                analysis.states().approx_eq(p_analysis.states(), 1e-12),
                "S-EnKF(L={layers}, ncg={ncg}) differs from P-EnKF"
            );
        }
    }

    #[test]
    fn rejects_indivisible_group_count() {
        let mesh = Mesh::new(8, 8);
        let members = 6;
        let (_s, store, scenario) = harness(mesh, members, 7);
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        };
        // 6 members cannot split into 4 groups.
        let senkf = SEnkf::new(Params {
            nsdx: 2,
            nsdy: 2,
            layers: 2,
            ncg: 4,
        });
        assert!(senkf.run(&setup, &FaultConfig::none(), None).is_err());
    }

    #[test]
    fn rejects_indivisible_layer_count() {
        let mesh = Mesh::new(8, 8);
        let members = 4;
        let (_s, store, scenario) = harness(mesh, members, 8);
        let setup = AssimilationSetup {
            store: &store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        };
        // Sub-domain height 4 does not divide into 3 layers.
        let senkf = SEnkf::new(Params {
            nsdx: 2,
            nsdy: 2,
            layers: 3,
            ncg: 2,
        });
        assert!(senkf.run(&setup, &FaultConfig::none(), None).is_err());
    }
}
