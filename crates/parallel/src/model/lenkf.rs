//! Modeled L-EnKF: the single-reader baseline, at paper scale.
//!
//! The DES mirrors the real executor's operation structure task for task:
//! rank 0 reads each full member file in order (woven through the same
//! attempt/backoff loop as the real resilient read path) and then sends
//! every other rank its expansion block — one `Kind::Comm` task per
//! (member, peer), charged the same block bytes the real tracer records.
//! Each peer's single local analysis is gated on all of its incoming
//! blocks; rank 0's analysis follows its own sends in program order. The
//! receivers' blocked waits surface as DES wait time, not as tasks —
//! matching the real executor, whose wait spans are excluded from the
//! operation digest.

use crate::model::{read_order, weave_member_read, ModelConfig, ModelOutcome};
use crate::report::PhaseBreakdown;
use crate::CampaignExecutor;
use enkf_fault::{FaultConfig, FaultInjector, FaultLog};
use enkf_grid::{Decomposition, FileLayout, LocalizationRadius, Mesh, RegionRect};
use enkf_health::HealthMonitor;
use enkf_net::ModeledNet;
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task, TaskId};
use enkf_trace::{OpTag, Trace};

/// [`CampaignExecutor::model`] for L-EnKF without faults or health
/// monitoring, dropping the empty fault log.
pub fn model_lenkf_traced(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
) -> Result<(ModelOutcome, Trace), String> {
    CampaignExecutor::LEnkf { nsdx, nsdy }
        .model(cfg, &FaultConfig::none(), None)
        .map(|(out, trace, _)| (out, trace))
}

/// Build and run the DES for an L-EnKF assimilation with an
/// `n_sdx × n_sdy` decomposition (rank 0 is the only reader). The trace's
/// operation digest matches the real [`crate::LEnkf`]'s.
///
/// Under a fault plan, rank 0's reads are woven through the resilient
/// attempt/backoff loop, dropped members contribute only their failed
/// attempts (and no scatter), stragglers dilate compute and message delays
/// stall the scatter sends. Crash and message-drop plans are rejected —
/// the real executor's peers time out under them, so a "completed" model
/// would lie.
///
/// With a monitor, rank 0 reads blacklisted-OST members last and routes
/// every read through the shared [`crate::model::weave_member_read`]
/// decision procedure (speculative duplicates marked and charged at the
/// race winner's OST and factor), with identical `(ost, member, ratio)`
/// observations fed back — real and modeled trace, fault and health
/// digests are byte-identical under a common seed.
pub(crate) fn model_lenkf_adaptive(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(ModelOutcome, Trace, FaultLog), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let decomp = Decomposition::new(mesh, nsdx, nsdy).map_err(|e| e.to_string())?;
    let radius = LocalizationRadius {
        xi: w.xi,
        eta: w.eta,
    };
    let layout = FileLayout::new(mesh, w.h);
    let injector = FaultInjector::new(fcfg.clone());
    if injector.has_crashes() {
        return Err("modeled L-EnKF cannot complete: the plan crashes a rank".into());
    }
    if fcfg.plan.msg_faults.iter().any(|m| m.dropped) {
        return Err("modeled L-EnKF cannot complete: the plan drops a message".into());
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

    let ranks = decomp.num_subdomains();
    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    let net = ModeledNet::register(&mut sim, cfg.net, ranks);
    let agents = sim.add_agents(ranks);

    // Rank 0: one full-file read per member, then the per-peer scatter.
    // Program order on agent 0 serializes read(k) → sends(k) → read(k+1),
    // exactly the real reader's loop.
    let full = RegionRect::full(mesh);
    let full_seeks = layout.seek_count(&full) as u64;
    let full_bytes = layout.region_bytes(&full);
    let mut sends_to: Vec<Vec<TaskId>> = vec![Vec::new(); ranks];
    let order = read_order(&(0..w.members).collect::<Vec<_>>(), monitor);
    for &k in &order {
        weave_member_read(
            &mut sim, &pfs, &injector, monitor, agents[0], 0, None, false, k, full_seeks,
            full_bytes,
        )?;
        if dropped.contains(&k) {
            continue; // failed members produce no scatter
        }
        for (peer, peer_id) in decomp.iter_ids().enumerate().skip(1) {
            let peer_exp = decomp.expansion(peer_id, radius);
            let block_bytes = layout.region_bytes(&peer_exp);
            let service = cfg.net.p2p(block_bytes) + injector.send_delay(0, peer);
            let t = sim
                .add_task(
                    Task::new(agents[0], Kind::Comm, service)
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

    // One local analysis per rank: peers gate on every block addressed to
    // them; rank 0 follows its own reads and sends in program order.
    let mut compute_tasks = Vec::with_capacity(ranks);
    for (r, id) in decomp.iter_ids().enumerate() {
        let dilation = injector.compute_dilation(r);
        if let Some(mon) = monitor {
            mon.observe_compute(r, dilation);
        }
        let comp = cfg.compute_cost_per_point * decomp.subdomain(id).npoints() as f64 * dilation;
        let t = sim
            .add_task(
                Task::new(agents[r], Kind::Compute, comp)
                    .with_deps(sends_to[r].clone())
                    .with_op(OpTag::default()),
            )
            .map_err(|e| e.to_string())?;
        compute_tasks.push(t);
    }

    let report = sim.run().map_err(|e| e.to_string())?;
    let trace = sim.export_trace("lenkf-model");
    let mut total = enkf_trace::PhaseTotals::default();
    for t in trace.per_rank_phases().values() {
        total.read += t.read;
        total.comm += t.comm;
        total.compute += t.compute;
        total.wait += t.wait;
        total.fault += t.fault;
    }
    let compute_mean = PhaseBreakdown::from(total).scaled(1.0 / ranks as f64);
    let first_compute_start = compute_tasks
        .iter()
        .map(|&t| sim.task_times(t).1)
        .fold(f64::INFINITY, f64::min);
    Ok((
        ModelOutcome {
            makespan: report.makespan,
            compute_mean,
            io_mean: PhaseBreakdown::default(),
            num_compute_ranks: ranks,
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
    use crate::model::penkf::model_penkf_traced;
    use enkf_tuning::Workload;

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
        let out = model_lenkf_traced(&cfg, 8, 6).unwrap().0;
        assert!(out.makespan > 0.0);
        assert!(out.compute_mean.read > 0.0, "rank 0 reads");
        assert!(out.compute_mean.comm > 0.0, "the scatter must be modeled");
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.num_compute_ranks, 48);
        assert_eq!(out.num_io_ranks, 0);
    }

    #[test]
    fn single_reader_loses_to_block_reading_at_scale() {
        // §3.1/§6: one reader cannot use the parallel file system, so the
        // serialized reads must dominate P-EnKF's parallel block reads.
        let cfg = small_cfg();
        let l = model_lenkf_traced(&cfg, 8, 6).unwrap().0;
        let p = model_penkf_traced(&cfg, 8, 6).unwrap().0;
        assert!(
            l.makespan > p.makespan,
            "L-EnKF {} must exceed P-EnKF {}",
            l.makespan,
            p.makespan
        );
    }

    #[test]
    fn invalid_decomposition_errors() {
        let cfg = small_cfg();
        assert!(model_lenkf_traced(&cfg, 7, 5).is_err());
    }
}
