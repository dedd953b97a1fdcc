//! Modeled S-EnKF: concurrent-group bar reading, multi-stage overlap.

use crate::model::{read_order, weave_member_read, ModelConfig, ModelOutcome};
use crate::report::PhaseBreakdown;
use crate::CampaignExecutor;
use enkf_fault::{FaultConfig, FaultInjector, FaultLog};
use enkf_grid::{Decomposition, FileLayout, LocalizationRadius, Mesh, SubDomainId};
use enkf_health::HealthMonitor;
use enkf_net::ModeledNet;
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task, TaskId};
use enkf_trace::{OpTag, Trace};
use enkf_tuning::Params;

/// [`CampaignExecutor::model`] for S-EnKF without faults or health
/// monitoring, dropping the empty fault log.
pub fn model_senkf_traced(
    cfg: &ModelConfig,
    params: Params,
) -> Result<(ModelOutcome, Trace), String> {
    CampaignExecutor::SEnkf(params)
        .model(cfg, &FaultConfig::none(), None)
        .map(|(out, trace, _)| (out, trace))
}

/// Build and run the DES for an S-EnKF assimilation with parameters
/// `(n_sdx, n_sdy, L, n_cg)`.
///
/// Agents: `C₂` compute ranks plus `C₁ = n_cg · n_sdy` I/O ranks. Per stage
/// `l`, I/O rank `(g, j)` reads one single-seek small bar per group file and
/// then sends each compute rank `(·, j)` its block bundle (serialized on the
/// sender, queued on the receiver's NIC — the natural origin of Eq. 8's
/// `n_sdx` and tree factors). Compute rank `(i, j)`'s stage-`l` analysis
/// depends only on the `n_cg` bundles for stage `l`, so stage `l+1` I/O
/// overlaps stage `l` computation exactly as in Fig. 7. Every DES task
/// carries an [`OpTag`] (bar read with layout-derived bytes/seeks, bundled
/// send with its destination rank, per-stage analysis), so the trace's
/// operation digest is directly comparable with the real executor's.
///
/// `helper_thread` is the Fig. 8 ablation switch. With the helper thread
/// (the paper's design, and what [`CampaignExecutor::model`] runs) block
/// ingestion proceeds concurrently with the main thread's local analyses.
/// Without it, each stage's communication is ingested *on the compute
/// agent* before that stage's analysis — communication is no longer
/// hidden.
///
/// Under a fault plan, the real executor's attempt/backoff weave becomes
/// `Kind::Fault` tasks, OST slowdowns and stragglers dilate services,
/// message delays extend the matching send services, and dropped members
/// shrink the bundles to each group's survivors. Under the same seeded
/// plan, the trace's operation digest and the [`FaultLog`] digest match
/// the real executor's.
///
/// With a monitor, each I/O rank's group file list is reordered on the
/// monitor's frozen view exactly as the real executor reorders its read
/// plan, every bar read is routed/speculated/observed through the shared
/// `weave_member_read` decision procedure, and compute dilations are
/// reported per rank — so real and modeled trace, fault and
/// health digests stay byte-identical under a common seed.
pub fn model_senkf_adaptive(
    cfg: &ModelConfig,
    params: Params,
    helper_thread: bool,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let decomp = Decomposition::new(mesh, params.nsdx, params.nsdy).map_err(|e| e.to_string())?;
    decomp
        .check_layers(params.layers)
        .map_err(|e| e.to_string())?;
    if params.ncg == 0 || !w.members.is_multiple_of(params.ncg) {
        return Err(format!(
            "members {} not divisible by n_cg {}",
            w.members, params.ncg
        ));
    }
    let radius = LocalizationRadius {
        xi: w.xi,
        eta: w.eta,
    };
    let layout = FileLayout::new(mesh, w.h);
    let c2 = decomp.num_subdomains();
    let c1 = params.ncg * params.nsdy;
    let files_per_group = w.members / params.ncg;
    let injector = FaultInjector::new(fcfg.clone());
    if injector.has_crashes() {
        return Err("modeled S-EnKF cannot complete: the plan crashes a rank".into());
    }
    if fcfg.plan.msg_faults.iter().any(|m| m.dropped) {
        return Err("modeled S-EnKF cannot complete: the plan drops a message".into());
    }
    let dropped = injector.unrecoverable_members(w.members);
    if !dropped.is_empty() {
        if !fcfg.degraded {
            return Err(format!(
                "unrecoverable members {dropped:?} and degraded mode is off"
            ));
        }
        if w.members - dropped.len() < 2 {
            return Err("degraded ensemble too small".into());
        }
        for &m in &dropped {
            injector.log().dropped(m);
        }
    }
    // Guard the DES against degenerate parameterizations: the task graph
    // has roughly ncg·C2·L send tasks plus reads and computes.
    let est_tasks =
        params.ncg * c2 * params.layers + c1 * params.layers * files_per_group + c2 * params.layers;
    const MAX_TASKS: usize = 30_000_000;
    if est_tasks > MAX_TASKS {
        return Err(format!(
            "parameterization would create ~{est_tasks} DES tasks (> {MAX_TASKS}); \
             choose smaller L / n_cg"
        ));
    }

    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    let compute_agents = sim.add_agents(c2);
    let io_agents = sim.add_agents(c1);
    // NICs: one ingestion port per compute rank (the helper thread).
    let net = ModeledNet::register(&mut sim, cfg.net, c2);

    // sends[stage][compute rank] -> the send tasks the rank's stage needs.
    let mut sends: Vec<Vec<Vec<TaskId>>> = vec![vec![Vec::new(); c2]; params.layers];

    #[allow(clippy::needless_range_loop)] // `l` is the semantic stage number
    for l in 0..params.layers {
        for g in 0..params.ncg {
            for j in 0..params.nsdy {
                let io_agent = io_agents[g * params.nsdy + j];
                // Agent ids coincide with the real executor's rank numbering
                // (compute ranks 0..c2, I/O ranks c2..c2+c1), so FaultLog
                // rank fields compare across executors.
                let io_rank = c2 + g * params.nsdy + j;
                let bar = decomp.small_bar(j, l, params.layers, radius);
                let bar_bytes = layout.region_bytes(&bar);
                let bar_seeks = layout.seek_count(&bar) as u64;
                let alive_in_group = (g * files_per_group..(g + 1) * files_per_group)
                    .filter(|file| !dropped.contains(file))
                    .count();
                // One read per group file (program order serializes them on
                // the I/O rank; the OST limits cross-rank concurrency),
                // woven through the same attempt/backoff loop as the real
                // resilient read path.
                let group_files: Vec<usize> =
                    (g * files_per_group..(g + 1) * files_per_group).collect();
                for &file in &read_order(&group_files, monitor) {
                    weave_member_read(
                        &mut sim,
                        &pfs,
                        &injector,
                        monitor,
                        io_agent,
                        io_rank,
                        Some(l),
                        true,
                        file,
                        bar_seeks,
                        bar_bytes,
                    )?;
                }
                if alive_in_group == 0 {
                    continue; // whole group dropped: no bundles at all
                }
                // One bundled send per compute rank in this latitude block,
                // shrunk to the group's surviving members.
                for i in 0..params.nsdx {
                    let id = SubDomainId { i, j };
                    let block = decomp.block_of_small_bar(id, l, params.layers, radius);
                    let bytes = layout.region_bytes(&block) * alive_in_group as u64;
                    let target = decomp.rank_of(id);
                    let service = cfg.net.p2p(bytes) + injector.send_delay(io_rank, target);
                    let t = sim
                        .add_task(
                            Task::new(io_agent, Kind::Comm, service)
                                .with_resources(vec![net.nic(target)])
                                .with_op(OpTag {
                                    io: true,
                                    stage: Some(l),
                                    bytes,
                                    peer: Some(target),
                                    ..OpTag::default()
                                }),
                        )
                        .map_err(|e| e.to_string())?;
                    sends[l][target].push(t);
                }
            }
        }
    }

    // Compute ranks: one analysis task per stage, gated on that stage's
    // bundles only. Without the helper thread, an explicit ingestion task
    // on the compute agent serializes communication with computation.
    let mut compute_tasks = Vec::with_capacity(c2 * params.layers);
    for (r, id) in decomp.iter_ids().enumerate() {
        let dilation = injector.compute_dilation(r);
        if let Some(mon) = monitor {
            mon.observe_compute(r, dilation);
        }
        for (l, stage_sends) in sends.iter().enumerate() {
            let layer = decomp.layer(id, l, params.layers);
            let service = cfg.compute_cost_per_point * layer.npoints() as f64 * dilation;
            let deps = if helper_thread {
                stage_sends[r].clone()
            } else {
                let block = decomp.block_of_small_bar(id, l, params.layers, radius);
                let bytes = layout.region_bytes(&block) * files_per_group as u64;
                let ingest = params.ncg as f64 * cfg.net.p2p(bytes);
                let t = sim
                    .add_task(
                        Task::new(compute_agents[r], Kind::Comm, ingest)
                            .with_deps(stage_sends[r].clone())
                            .with_op(OpTag {
                                stage: Some(l),
                                bytes,
                                ..OpTag::default()
                            }),
                    )
                    .map_err(|e| e.to_string())?;
                vec![t]
            };
            let t = sim
                .add_task(
                    Task::new(compute_agents[r], Kind::Compute, service)
                        .with_deps(deps)
                        .with_op(OpTag {
                            stage: Some(l),
                            ..OpTag::default()
                        }),
                )
                .map_err(|e| e.to_string())?;
            compute_tasks.push(t);
        }
    }

    let report = sim.run().map_err(|e| e.to_string())?;
    let trace = sim.export_trace("senkf-model");
    // The report is now *derived from* the trace: per-rank span sums are an
    // exact projection of the DES busy/wait accounting (see `export_trace`).
    let phases = trace.per_rank_phases();
    let mut cagg = enkf_trace::PhaseTotals::default();
    let mut iagg = enkf_trace::PhaseTotals::default();
    for (rank, t) in &phases {
        let agg = if *rank < c2 { &mut cagg } else { &mut iagg };
        agg.read += t.read;
        agg.comm += t.comm;
        agg.compute += t.compute;
        agg.wait += t.wait;
        agg.fault += t.fault;
    }
    let compute_mean = PhaseBreakdown::from(cagg).scaled(1.0 / c2 as f64);
    let io_mean = PhaseBreakdown::from(iagg).scaled(1.0 / c1 as f64);
    let first_compute_start = compute_tasks
        .iter()
        .map(|&t| sim.task_times(t).1)
        .fold(f64::INFINITY, f64::min);
    Ok((
        ModelOutcome {
            makespan: report.makespan,
            compute_mean,
            io_mean,
            num_compute_ranks: c2,
            num_io_ranks: c1,
            first_compute_start,
            dropped_members: dropped,
        },
        trace,
        injector.into_log(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::penkf::model_penkf_traced;
    use enkf_tuning::Workload;

    /// The paper-design DES outcome, fault- and monitor-free.
    fn des(cfg: &ModelConfig, params: Params) -> Result<ModelOutcome, String> {
        model_senkf_traced(cfg, params).map(|(out, _)| out)
    }

    fn small_cfg() -> ModelConfig {
        ModelConfig {
            workload: Workload {
                nx: 240,
                ny: 120,
                members: 8,
                h: 80,
                xi: 2,
                eta: 2,
            },
            ..ModelConfig::paper()
        }
    }

    #[test]
    fn produces_sane_phases() {
        let cfg = small_cfg();
        let out = des(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 4,
                ncg: 2,
            },
        )
        .unwrap();
        assert!(out.makespan > 0.0);
        assert_eq!(out.num_compute_ranks, 48);
        assert_eq!(out.num_io_ranks, 12);
        assert!(out.io_mean.read > 0.0);
        assert!(out.io_mean.comm > 0.0);
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.compute_mean.read, 0.0, "compute ranks never read");
    }

    #[test]
    fn overlap_beats_penkf_at_scale() {
        // With matched compute resources, S-EnKF's makespan must be well
        // below P-EnKF's once reads dominate.
        let cfg = small_cfg();
        let p = model_penkf_traced(&cfg, 24, 12).unwrap().0;
        let s = des(
            &cfg,
            Params {
                nsdx: 24,
                nsdy: 12,
                layers: 5,
                ncg: 4,
            },
        )
        .unwrap();
        assert!(
            s.makespan < p.makespan,
            "S-EnKF {} vs P-EnKF {}",
            s.makespan,
            p.makespan
        );
    }

    #[test]
    fn multi_stage_overlaps_io_with_compute() {
        // With L > 1, the first compute must start well before all reads
        // finish (overlap); the exposed prefix is roughly 1/L of total I/O.
        let cfg = small_cfg();
        let out = des(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 4,
                ncg: 2,
            },
        )
        .unwrap();
        assert!(
            out.first_compute_start < out.makespan * 0.8,
            "first compute at {} of {}",
            out.first_compute_start,
            out.makespan
        );
        assert!(out.overlapped_fraction() > 0.0);
    }

    #[test]
    fn more_layers_reduce_exposed_prefix() {
        let cfg = small_cfg();
        let one = des(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 1,
                ncg: 2,
            },
        )
        .unwrap();
        let four = des(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 4,
                ncg: 2,
            },
        )
        .unwrap();
        assert!(
            four.first_compute_start < one.first_compute_start,
            "L=4 prefix {} vs L=1 prefix {}",
            four.first_compute_start,
            one.first_compute_start
        );
    }

    #[test]
    fn indivisible_parameters_rejected() {
        let cfg = small_cfg();
        assert!(des(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 3,
                ncg: 2
            }
        )
        .is_err());
        assert!(des(
            &cfg,
            Params {
                nsdx: 8,
                nsdy: 6,
                layers: 2,
                ncg: 3
            }
        )
        .is_err());
    }
}
