//! Real (threaded) executors for the four parallel EnKF variants.

pub mod denkf;
pub mod lenkf;
pub mod penkf;
pub mod senkf;
pub mod setup;
pub mod writeback;

use enkf_core::Ensemble;
use enkf_fault::{FaultConfig, FaultInjector, SubstrateError};
use enkf_grid::{Decomposition, Mesh, RegionRect};
use enkf_linalg::Matrix;
use std::time::Instant;

/// The payload exchanged between ranks: a bundle of region blocks, one per
/// carried ensemble member, for one stage of the multi-stage workflow
/// (stage is always 0 for the single-stage variants).
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// Blocks of several members covering one region.
    Blocks {
        /// Multi-stage index (`l`), 0-based.
        stage: usize,
        /// Global member indices, parallel to `data`.
        members: Vec<usize>,
        /// One region payload per member.
        data: Vec<enkf_pfs::RegionData>,
    },
    /// A sender hit a fatal error (e.g. an unreadable member file) and will
    /// produce no further blocks: receivers must stop waiting. Without this
    /// a failing reader would deadlock every rank blocked on its data.
    Abort {
        /// Human-readable failure description.
        reason: String,
    },
}

/// Pre-run fault resolution shared by the four real executors. All fields
/// are pure functions of the [`FaultConfig`], so every rank thread reaches
/// the same decisions without coordination.
pub(crate) struct FaultPrep {
    /// The injector (carries the shared [`enkf_fault::FaultLog`]).
    pub injector: FaultInjector,
    /// Sorted dropout set (empty on a fault-free run).
    pub dropped: Vec<usize>,
    /// Surviving members, ascending.
    pub alive: Vec<usize>,
    /// Receives must carry a timeout (the plan crashes ranks or drops
    /// messages, so a blocking receive could hang forever).
    pub use_timeout: bool,
}

/// Resolve the fault plan before any thread is spawned: build the injector,
/// compute the dropout set, and fail fast when degraded mode is not enabled
/// (or would leave fewer than two members).
pub(crate) fn prepare_faults(cfg: &FaultConfig, members: usize) -> enkf_core::Result<FaultPrep> {
    let injector = FaultInjector::new(cfg.clone());
    let dropped = injector.unrecoverable_members(members);
    if !dropped.is_empty() {
        if !cfg.degraded {
            return Err(enkf_core::EnkfError::Substrate(
                SubstrateError::Unrecoverable { members: dropped },
            ));
        }
        if members - dropped.len() < 2 {
            return Err(enkf_core::EnkfError::GeometryMismatch(format!(
                "degraded mode would leave {} member(s); at least 2 are required",
                members - dropped.len()
            )));
        }
        for &m in &dropped {
            injector.log().dropped(m);
        }
    }
    let alive: Vec<usize> = (0..members).filter(|m| !dropped.contains(m)).collect();
    let plan = &injector.config().plan;
    let use_timeout = !plan.crashes.is_empty() || plan.msg_faults.iter().any(|m| m.dropped);
    Ok(FaultPrep {
        injector,
        dropped,
        alive,
        use_timeout,
    })
}

/// Sleep `(factor − 1) × elapsed` so an operation started at `start` takes
/// `factor ×` its natural wall time (straggler dilation; no-op at 1.0).
pub(crate) fn dilate(start: Instant, factor: f64) {
    if factor > 1.0 {
        let elapsed = start.elapsed().as_secs_f64();
        std::thread::sleep(std::time::Duration::from_secs_f64(elapsed * (factor - 1.0)));
    }
}

/// Assemble the per-sub-domain analysis results returned by compute ranks
/// into a full analysis ensemble. `results` holds
/// `(sub-domain target region, local analysis matrix)` pairs covering every
/// sub-domain exactly once, so every point of the mesh is written.
pub(crate) fn assemble_analysis(
    mesh: Mesh,
    members: usize,
    decomp: &Decomposition,
    results: Vec<(RegionRect, Matrix)>,
) -> Ensemble {
    assert_eq!(
        results.len(),
        decomp.num_subdomains(),
        "missing sub-domain results"
    );
    let mut out = Ensemble::new(mesh, Matrix::zeros(mesh.n(), members));
    for (region, local) in results {
        out.assign(&region, &local);
    }
    out
}
