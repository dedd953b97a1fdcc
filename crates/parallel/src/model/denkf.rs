//! Modeled D-EnKF: distributed-array batched assimilation, at paper scale.
//!
//! The DES mirrors the real executor's operation structure task for task:
//! per rank one bar read per member file (full-width band — one disk
//! addressing operation), one observation-block send per peer (sized by
//! [`super::super::exec::denkf::exchange_bytes`], the same formula the real
//! tracer charges, which is what makes the trace digests byte-identical),
//! and one batched-transform compute gated on every peer's block.

use crate::exec::denkf::exchange_bytes;
use crate::model::{read_order, weave_member_read, ModelConfig, ModelOutcome};
use crate::report::PhaseBreakdown;
use enkf_fault::{FaultConfig, FaultInjector, FaultLog};
use enkf_grid::{Decomposition, FileLayout, Mesh, ObservationNetwork};
use enkf_health::HealthMonitor;
use enkf_net::ModeledNet;
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task, TaskId};
use enkf_trace::{OpTag, Trace};

/// Build and run the DES for a D-EnKF assimilation with `shards` state
/// shards (= ranks). The trace's operation digest matches the real
/// [`crate::DEnkf`]'s. The `C⁻¹` kernel changes flops, not operation
/// structure, so the model takes no kernel: one DES prices both.
///
/// Under a fault plan, reads are woven through the same attempt/backoff
/// loop as the real resilient read path, dropped members shrink the
/// exchanged blocks to the survivors, stragglers dilate compute, and
/// message delays stall the exchange sends. Crash and message-drop plans
/// are rejected — the real executor cannot complete them either (peers
/// time out), so a "completed" model would lie.
///
/// With a monitor, every shard's bar reads are routed through the same
/// frozen view the real executor consults (blacklisted-OST members last,
/// speculative duplicates marked and charged at the race winner's OST and
/// factor), with identical `(ost, member, ratio)` observations fed back —
/// real and modeled trace, fault and health digests are byte-identical
/// under a common seed.
pub(crate) fn model_denkf_adaptive(
    cfg: &ModelConfig,
    shards: usize,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let decomp = Decomposition::new(mesh, 1, shards).map_err(|e| e.to_string())?;
    let layout = FileLayout::new(mesh, w.h);
    let obs_net = ObservationNetwork::uniform(mesh, cfg.obs_stride);
    let injector = FaultInjector::new(fcfg.clone());
    if injector.has_crashes() {
        return Err("modeled D-EnKF cannot complete: the plan crashes a rank".into());
    }
    if fcfg.plan.msg_faults.iter().any(|m| m.dropped) {
        return Err("modeled D-EnKF cannot complete: the plan drops a message".into());
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
    let alive = w.members - dropped.len();

    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    let net = ModeledNet::register(&mut sim, cfg.net, shards);
    let agents = sim.add_agents(shards);

    // Per-rank observed row counts (the shard's rows of the network) and
    // the total — every rank's compute works on the full m_total system.
    let obs_rows: Vec<usize> = decomp
        .iter_ids()
        .map(|id| obs_net.indices_in(&decomp.subdomain(id)).len())
        .collect();
    let m_total: usize = obs_rows.iter().sum();

    // Phase 1 + 2: bar reads and the all-to-all observation-block
    // exchange. `sends_to[r]` collects every peer's send targeting rank r —
    // the dependencies of r's batched compute.
    let mut sends_to: Vec<Vec<TaskId>> = vec![Vec::new(); shards];
    for (r, id) in decomp.iter_ids().enumerate() {
        let bar = decomp.subdomain(id);
        let seeks = layout.seek_count(&bar) as u64;
        let bytes = layout.region_bytes(&bar);
        let order = read_order(&(0..w.members).collect::<Vec<_>>(), monitor);
        for &k in &order {
            weave_member_read(
                &mut sim, &pfs, &injector, monitor, agents[r], r, None, false, k, seeks, bytes,
            )?;
        }
        // One observation-block send per peer. Program order on the agent
        // already places these after the rank's reads.
        let block_bytes = exchange_bytes(obs_rows[r], alive);
        // Indexed loop: `peer` also names the NIC resource and the op tag.
        #[allow(clippy::needless_range_loop)]
        for peer in 0..shards {
            if peer == r {
                continue;
            }
            let service = cfg.net.p2p(block_bytes) + injector.send_delay(r, peer);
            let t = sim
                .add_task(
                    Task::new(agents[r], Kind::Comm, service)
                        .with_resources(vec![net.nic(peer)])
                        .with_op(OpTag {
                            bytes: block_bytes,
                            peer: Some(peer),
                            ..OpTag::default()
                        }),
                )
                .map_err(|e| e.to_string())?;
            sends_to[peer].push(t);
        }
    }

    // Phase 3: the batched transform plus the shard update, gated on every
    // peer's block. The transform works the full m_total × N system; the
    // shard update touches the rank's own bar points.
    let mut compute_tasks = Vec::with_capacity(shards);
    for (r, id) in decomp.iter_ids().enumerate() {
        let bar = decomp.subdomain(id);
        let dilation = injector.compute_dilation(r);
        if let Some(mon) = monitor {
            mon.observe_compute(r, dilation);
        }
        let service = cfg.compute_cost_per_point * (bar.npoints() + m_total) as f64 * dilation;
        let t = sim
            .add_task(
                Task::new(agents[r], Kind::Compute, service)
                    .with_deps(sends_to[r].clone())
                    .with_op(OpTag::default()),
            )
            .map_err(|e| e.to_string())?;
        compute_tasks.push(t);
    }

    let report = sim.run().map_err(|e| e.to_string())?;
    let trace = sim.export_trace("denkf-model");
    let mut total = enkf_trace::PhaseTotals::default();
    for t in trace.per_rank_phases().values() {
        total.read += t.read;
        total.comm += t.comm;
        total.compute += t.compute;
        total.wait += t.wait;
        total.fault += t.fault;
    }
    let compute_mean = PhaseBreakdown::from(total).scaled(1.0 / shards as f64);
    let makespan = report.makespan;
    let first_compute_start = compute_tasks
        .iter()
        .map(|&t| sim.task_times(t).1)
        .fold(f64::INFINITY, f64::min);
    Ok((
        ModelOutcome {
            makespan,
            compute_mean,
            io_mean: PhaseBreakdown::default(),
            num_compute_ranks: shards,
            num_io_ranks: 0,
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
    use enkf_tuning::Workload;

    /// The DES outcome, fault- and monitor-free.
    fn des(cfg: &ModelConfig, shards: usize) -> Result<ModelOutcome, String> {
        model_denkf_adaptive(cfg, shards, &FaultConfig::none(), None).map(|(out, _, _)| out)
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
        let out = des(&cfg, 8).unwrap();
        assert!(out.makespan > 0.0);
        assert!(out.compute_mean.read > 0.0);
        assert!(out.compute_mean.comm > 0.0, "the exchange must be modeled");
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.num_compute_ranks, 8);
        assert_eq!(out.num_io_ranks, 0);
    }

    #[test]
    fn bar_reads_keep_seek_count_flat_across_shards() {
        // Full-width bars are contiguous: per-rank read time must not blow
        // up with shard count the way P-EnKF's partial-width blocks do.
        let cfg = small_cfg();
        let few = des(&cfg, 4).unwrap();
        let many = des(&cfg, 24).unwrap();
        // Each of the 24 shards reads 1/6 the bytes of each of the 4.
        assert!(many.compute_mean.read < few.compute_mean.read);
    }

    #[test]
    fn exchange_grows_with_shard_count() {
        let cfg = small_cfg();
        let few = des(&cfg, 2).unwrap();
        let many = des(&cfg, 12).unwrap();
        // More peers → more blocks on the wire (total comm grows even as
        // each block shrinks).
        assert!(many.compute_mean.comm * 12.0 > few.compute_mean.comm * 2.0);
    }

    #[test]
    fn invalid_shard_count_errors() {
        let cfg = small_cfg();
        assert!(des(&cfg, 7).is_err());
    }
}
