//! Modeled P-EnKF: block reading then compute, at paper scale.

use crate::model::{finish, preflight, weave_member_read, ModelConfig, ModelOutcome};
use crate::prep::read_order;
use crate::CampaignExecutor;
use enkf_fault::{FaultConfig, FaultLog};
use enkf_grid::{Decomposition, FileLayout, LocalizationRadius, Mesh};
use enkf_health::HealthMonitor;
use enkf_pfs::ModeledPfs;
use enkf_sim::{Kind, Simulation, Task};
use enkf_trace::{OpTag, Trace};

/// [`CampaignExecutor::model`] for P-EnKF without faults or health
/// monitoring, dropping the empty fault log.
pub fn model_penkf_traced(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
) -> Result<(ModelOutcome, Trace), String> {
    CampaignExecutor::PEnkf { nsdx, nsdy }
        .model(cfg, &FaultConfig::none(), None)
        .map(|(out, trace, _)| (out, trace))
}

/// Build and run the DES for a P-EnKF assimilation with an
/// `n_sdx × n_sdy` decomposition.
///
/// Every rank issues one block read per member file (partial-width region:
/// one disk addressing operation per latitude row — the `O(n_y · n_sdx)`
/// pattern of §4.1.1) and then a single local-analysis task. Every DES
/// task carries an [`OpTag`] describing the operation it models (member
/// read with its layout-derived bytes/seeks, or local analysis), so the
/// exported trace is directly comparable with the real executor's: the
/// operation digests must match line for line.
///
/// Under a fault plan, the same attempt/backoff weave the real executor
/// performs is built into the DES graph (injected failures become
/// `Kind::Fault` tasks holding the member's OST, backoffs agent-local
/// `Kind::Fault` tasks), OST slowdowns dilate read services, stragglers
/// dilate compute, and dropped members contribute only their failed
/// attempts. Under the same seeded plan, the exported trace's operation
/// digest and the returned [`FaultLog`]'s digest match the real
/// executor's.
///
/// With a monitor, the DES weaves the *same* routing decisions the real
/// executor makes from the monitor's frozen view — blacklisted-OST members
/// read last, speculative duplicates marked and charged at the race
/// winner's OST and factor, and identical `(ost, member, ratio)`
/// observations fed back. Under a common seed and view, real and modeled
/// trace, fault and health digests are byte-identical.
pub(crate) fn model_penkf_adaptive(
    cfg: &ModelConfig,
    nsdx: usize,
    nsdy: usize,
    fcfg: &FaultConfig,
    monitor: Option<&HealthMonitor>,
) -> Result<(ModelOutcome, Simulation, FaultLog), String> {
    let w = &cfg.workload;
    let mesh = Mesh::new(w.nx, w.ny);
    let decomp = Decomposition::new(mesh, nsdx, nsdy).map_err(|e| e.to_string())?;
    let radius = LocalizationRadius {
        xi: w.xi,
        eta: w.eta,
    };
    let layout = FileLayout::new(mesh, w.h);
    let prep = preflight(fcfg, w.members, "P-EnKF", false)?;
    let injector = &prep.injector;

    let mut sim = Simulation::new();
    let pfs = ModeledPfs::register(&mut sim, cfg.pfs);
    let ranks = decomp.num_subdomains();
    let agents = sim.add_agents(ranks);
    let mut compute_tasks = Vec::with_capacity(ranks);
    let order = read_order(&(0..w.members).collect::<Vec<_>>(), monitor);

    for (r, id) in decomp.iter_ids().enumerate() {
        let expansion = decomp.expansion(id, radius);
        let seeks = layout.seek_count(&expansion) as u64;
        let bytes = layout.region_bytes(&expansion);
        for &k in &order {
            weave_member_read(
                &mut sim, &pfs, injector, monitor, agents[r], r, None, false, k, seeks, bytes,
            )?;
        }
        let dilation = prep.dilation(r, monitor);
        let comp = cfg.compute_cost_per_point * decomp.subdomain(id).npoints() as f64 * dilation;
        let t = sim
            .add_task(Task::new(agents[r], Kind::Compute, comp).with_op(OpTag::default()))
            .map_err(|e| e.to_string())?;
        compute_tasks.push(t);
    }

    finish(sim, ranks, &compute_tasks, prep)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let out = model_penkf_traced(&cfg, 8, 6).unwrap().0;
        assert!(out.makespan > 0.0);
        assert!(out.compute_mean.read > 0.0);
        assert!(out.compute_mean.compute > 0.0);
        assert_eq!(out.num_compute_ranks, 48);
        assert_eq!(out.num_io_ranks, 0);
        // Sequential phases: the first compute cannot start before every
        // read of some rank finished, so it starts after the reads' span.
        assert!(out.first_compute_start > 0.0);
    }

    #[test]
    fn read_time_grows_with_nsdx() {
        // The block-reading seek count is O(n_y · n_sdx): doubling nsdx at
        // fixed rank count must increase the mean read time (Fig. 5).
        let cfg = small_cfg();
        let narrow = model_penkf_traced(&cfg, 6, 8).unwrap().0;
        let wide = model_penkf_traced(&cfg, 24, 2).unwrap().0;
        assert!(
            wide.compute_mean.read > narrow.compute_mean.read,
            "wide {} vs narrow {}",
            wide.compute_mean.read,
            narrow.compute_mean.read
        );
    }

    #[test]
    fn compute_shrinks_with_more_ranks() {
        let cfg = small_cfg();
        let few = model_penkf_traced(&cfg, 4, 3).unwrap().0;
        let many = model_penkf_traced(&cfg, 8, 6).unwrap().0;
        assert!(many.compute_mean.compute < few.compute_mean.compute);
    }

    #[test]
    fn invalid_decomposition_errors() {
        let cfg = small_cfg();
        assert!(model_penkf_traced(&cfg, 7, 6).is_err());
    }
}
