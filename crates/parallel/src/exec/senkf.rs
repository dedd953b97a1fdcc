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
use crate::exec::{assemble_analysis, dilate, prepare_faults, Msg};
use crate::report::{ExecutionReport, PhaseBreakdown};
use enkf_core::{EnkfError, Ensemble, Result};
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_grid::RegionRect;
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_net::{Cluster, RankCtx};
use enkf_pfs::{read_stages_ahead_adaptive, ReadAheadError, StageRead};
use enkf_trace::{Role, Trace};
use enkf_tuning::Params;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Helper-channel sentinel: an I/O rank aborted (sent `Msg::Abort`).
const ABORT_SENTINEL: usize = usize::MAX;
/// Helper-channel sentinel: a receive timed out (crashed/dropping peer).
const TIMEOUT_SENTINEL: usize = usize::MAX - 1;
/// Helper-channel sentinel: the helper's own bookkeeping failed (a stage it
/// believed complete was not present). Surfaced as
/// [`SubstrateError::HelperFailed`] instead of panicking the process.
const HELPER_ERR_SENTINEL: usize = usize::MAX - 2;

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
        let mesh = setup.mesh();
        let radius = setup.analysis.radius;
        let c2 = decomp.num_subdomains();
        let c1 = p.ncg * p.nsdy;
        let nranks = c1 + c2;
        let files_per_group = setup.members / p.ncg;
        let prep = prepare_faults(faults, setup.members)?;
        let injector = &prep.injector;
        let dropped = &prep.dropped;
        let alive = &prep.alive;
        let use_timeout = prep.use_timeout;
        let recv_timeout = faults.recv_timeout;
        // Global member index → column of the (possibly reduced) X̄ᵇ.
        let alive_cols: BTreeMap<usize, usize> =
            alive.iter().enumerate().map(|(c, &k)| (k, c)).collect();
        // Groups whose members all dropped send no bundles at all, so the
        // helper thread must expect `layers × groups_alive` of them.
        let groups_alive = (0..p.ncg)
            .filter(|g| {
                (g * files_per_group..(g + 1) * files_per_group).any(|k| !dropped.contains(&k))
            })
            .count();
        // Build the spatial observation index and perturbation cache once
        // per cycle, before the worker ranks start querying it.
        setup.observations.prepare();
        let t0 = Instant::now();

        type RankOut = (Result<Option<(RegionRect, Matrix)>>, /* is_io: */ bool);
        let results: Vec<(RankOut, Vec<enkf_trace::Span>)> =
            Cluster::run_traced(nranks, |mut ctx: RankCtx<Msg>, tracer| {
                let rank = ctx.rank();
                if rank >= c2 {
                    // ---- I/O rank (group g, latitude block j) ----
                    tracer.set_role(Role::Io);
                    let io_index = rank - c2;
                    let group = io_index / p.nsdy;
                    let j = io_index % p.nsdy;
                    // Under a health monitor, read blacklisted-OST members
                    // last. `alive_files` is derived from the *reordered*
                    // list, so bundle member order always matches the data
                    // order the pipeline delivers.
                    let files: Vec<usize> =
                        (group * files_per_group..(group + 1) * files_per_group).collect();
                    let files = match monitor {
                        Some(mon) => mon.view().reorder(&files),
                        None => files,
                    };
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
                    let run_stages = crash.unwrap_or(p.layers);
                    let plan: Vec<StageRead> = (0..run_stages)
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
                                let id = enkf_grid::SubDomainId { i, j };
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
                                    let blocks: Vec<enkf_pfs::RegionData> =
                                        datas.iter().map(|d| d.extract(&block)).collect();
                                    if !drop_msg {
                                        ctx.send(
                                            target,
                                            l as u64,
                                            Msg::Blocks {
                                                stage: l,
                                                members: alive_files.clone(),
                                                data: blocks,
                                            },
                                        );
                                    }
                                });
                            }
                            Ok(())
                        },
                    );
                    match outcome {
                        Ok(()) => {}
                        Err(ReadAheadError::Read {
                            stage: l, error: e, ..
                        }) => {
                            // Unblock this latitude block's compute ranks
                            // before bailing out.
                            for i in 0..p.nsdx {
                                let id = enkf_grid::SubDomainId { i, j };
                                ctx.send(
                                    decomp.rank_of(id),
                                    l as u64,
                                    Msg::Abort {
                                        reason: format!("read failed: {e}"),
                                    },
                                );
                            }
                            return (Err(e.into()), true);
                        }
                        Err(ReadAheadError::Consume(never)) => match never {},
                        Err(ReadAheadError::ReaderPanicked { message }) => {
                            // Contained prefetch-thread panic: unblock this
                            // latitude block's compute ranks, then surface a
                            // typed substrate error instead of tearing down
                            // the executor.
                            let detail = format!("prefetch thread panicked: {message}");
                            for i in 0..p.nsdx {
                                let id = enkf_grid::SubDomainId { i, j };
                                ctx.send(
                                    decomp.rank_of(id),
                                    0,
                                    Msg::Abort {
                                        reason: detail.clone(),
                                    },
                                );
                            }
                            return (
                                Err(SubstrateError::HelperFailed { rank, detail }.into()),
                                true,
                            );
                        }
                    }
                    if let Some(l) = crash {
                        // The plan kills this rank at the start of stage l:
                        // it stops responding — peers must time out.
                        injector.log().crashed(rank, l);
                        return (
                            Err(SubstrateError::RankCrashed { rank, stage: l }.into()),
                            true,
                        );
                    }
                    return (Ok(None), true);
                }

                // ---- Compute rank (sub-domain id) ----
                if let Some(stage) = injector.crash_stage(rank) {
                    injector.log().crashed(rank, stage);
                    return (
                        Err(SubstrateError::RankCrashed { rank, stage }.into()),
                        false,
                    );
                }
                let id = decomp.id_of_rank(rank);
                let target = decomp.subdomain(id);

                // Offload reception to the helper thread (Fig. 8): it assembles
                // X̄ᵇ for each stage and signals the main thread.
                let (inbox, stash) = ctx.split_receiver();
                debug_assert!(stash.is_empty(), "no traffic before the helper starts");
                let (tx, rx) = std::sync::mpsc::channel::<(usize, Matrix)>();
                let alive_total = alive.len();
                let cols = alive_cols.clone();
                let layers = p.layers;
                let helper = std::thread::spawn(move || {
                    struct Stage {
                        matrix: Matrix,
                        filled: usize,
                    }
                    let mut stages: BTreeMap<usize, Stage> = BTreeMap::new();
                    for _ in 0..layers * groups_alive {
                        let env = if use_timeout {
                            match inbox.recv_timeout(Duration::from_secs_f64(recv_timeout)) {
                                Ok(env) => env,
                                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                                    let _ = tx.send((TIMEOUT_SENTINEL, Matrix::zeros(0, 2)));
                                    return;
                                }
                                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                            }
                        } else {
                            let Ok(env) = inbox.recv() else { return };
                            env
                        };
                        let (stage, members, data) = match env.payload {
                            Msg::Blocks {
                                stage,
                                members,
                                data,
                            } => (stage, members, data),
                            Msg::Abort { .. } => {
                                // Signal the main thread with a sentinel stage
                                // and stop ingesting.
                                let _ = tx.send((ABORT_SENTINEL, Matrix::zeros(0, 2)));
                                return;
                            }
                        };
                        let region = decomp.layer_expansion(id, stage, layers, radius);
                        let entry = stages.entry(stage).or_insert_with(|| Stage {
                            matrix: Matrix::zeros(region.npoints(), alive_total),
                            filled: 0,
                        });
                        for (&k, rd) in members.iter().zip(&data) {
                            debug_assert_eq!(rd.region(), region, "block region mismatch");
                            let col = cols[&k];
                            for (row, v) in rd.surface().enumerate() {
                                entry.matrix[(row, col)] = v;
                            }
                        }
                        entry.filled += members.len();
                        if entry.filled == alive_total {
                            let Some(done) = stages.remove(&stage) else {
                                // Unreachable in practice (the entry was just
                                // filled above), but a bookkeeping bug here
                                // must surface as a typed error on the main
                                // thread, not a helper panic.
                                let _ = tx.send((HELPER_ERR_SENTINEL, Matrix::zeros(0, 2)));
                                return;
                            };
                            if tx.send((stage, done.matrix)).is_err() {
                                return; // main thread bailed out
                            }
                        }
                    }
                });

                // Multi-stage local analysis: stage l computes while the helper
                // and the I/O ranks feed stage l+1.
                let sub_width = target.width();
                let layer_height = target.height() / p.layers;
                let dilation = injector.compute_dilation(rank);
                if let Some(mon) = monitor {
                    mon.observe_compute(rank, dilation);
                }
                let mut result = Matrix::zeros(target.npoints(), alive_total);
                let mut ready: BTreeMap<usize, Matrix> = BTreeMap::new();
                for l in 0..p.layers {
                    let xb = loop {
                        if let Some(m) = ready.remove(&l) {
                            break m;
                        }
                        match tracer.wait(Some(l), || rx.recv()) {
                            Ok((stage, m)) => {
                                if stage == ABORT_SENTINEL {
                                    return (
                                        Err(EnkfError::GeometryMismatch(
                                            "an I/O rank aborted (read failure)".into(),
                                        )),
                                        false,
                                    );
                                }
                                if stage == TIMEOUT_SENTINEL {
                                    return (
                                        Err(SubstrateError::RecvTimeout {
                                            rank,
                                            waited: recv_timeout,
                                        }
                                        .into()),
                                        false,
                                    );
                                }
                                if stage == HELPER_ERR_SENTINEL {
                                    return (
                                        Err(SubstrateError::HelperFailed {
                                            rank,
                                            detail: "stage bookkeeping lost a completed stage"
                                                .into(),
                                        }
                                        .into()),
                                        false,
                                    );
                                }
                                ready.insert(stage, m);
                            }
                            Err(_) => {
                                return (
                                    Err(SubstrateError::HelperFailed {
                                        rank,
                                        detail: "helper thread terminated early".into(),
                                    }
                                    .into()),
                                    false,
                                )
                            }
                        }
                    };
                    let layer = decomp.layer(id, l, p.layers);
                    let expansion = decomp.layer_expansion(id, l, p.layers, radius);
                    let analyzed = tracer.compute(Some(l), || {
                        let start = Instant::now();
                        let mut obs = setup.observations.localize(&expansion);
                        if !dropped.is_empty() {
                            obs = obs.select_members(alive);
                        }
                        let r = setup.analysis.analyze(mesh, &layer, &expansion, &xb, &obs);
                        dilate(start, dilation);
                        r
                    });
                    match analyzed {
                        Ok(xa) => {
                            // Layer rows are contiguous within the sub-domain's
                            // row-priority local ordering.
                            let row0 = l * layer_height * sub_width;
                            for r in 0..xa.nrows() {
                                result.row_mut(row0 + r).copy_from_slice(xa.row(r));
                            }
                        }
                        Err(e) => return (Err(e), false),
                    }
                }
                if helper.join().is_err() {
                    return (
                        Err(SubstrateError::HelperFailed {
                            rank,
                            detail: "helper thread panicked".into(),
                        }
                        .into()),
                        false,
                    );
                }
                (Ok(Some((target, result))), false)
            });

        let mut trace = Trace::new("senkf-real");
        let mut compute_ranks = PhaseBreakdown::default();
        let mut io_ranks = PhaseBreakdown::default();
        let mut per_domain = Vec::with_capacity(c2);
        for ((res, is_io), spans) in results {
            let phases = PhaseBreakdown::from_spans(&spans);
            trace.extend(spans);
            if is_io {
                io_ranks.merge(&phases);
                res?;
            } else {
                compute_ranks.merge(&phases);
                if let Some(pair) = res? {
                    per_domain.push(pair);
                }
            }
        }
        let analysis = assemble_analysis(mesh, alive.len(), &decomp, per_domain);
        let report = ExecutionReport {
            compute_ranks,
            io_ranks,
            num_compute_ranks: c2,
            num_io_ranks: c1,
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
