//! Counting-allocator proof that the steady-state data-plane paths
//! perform no (payload) heap allocation.
//!
//! Two pinned guarantees:
//!
//! * The read → scatter → analyze cycle: one warm cycle fills the store's
//!   buffer pool (byte buffers, `f64` slabs), the open-file-handle cache,
//!   and the analysis workspace high-water marks; a second identical cycle
//!   must then complete without a single call into the global allocator.
//! * The checkpoint encode → durable-write sweep
//!   ([`s_enkf::ckpt::MemberEncoder`]): the member column gather and the
//!   f64 → LE byte image are pooled, so a steady-state sweep performs no
//!   payload-sized allocation — only the handful of small path strings the
//!   temp + rename protocol inherently builds per file.
//!
//! The allocator tracks calls, bytes, and the largest single request so
//! the second guarantee can be stated precisely: "no allocation as large
//! as a member payload, and total bytes far below the payload swept".

use s_enkf::core::{
    Ensemble, LetkfAnalysis, LetkfWorkspace, LocalObsIndex, ObservationOperator, Observations,
    PerturbedObservations,
};
use s_enkf::grid::{FileLayout, LocalizationRadius, Mesh, ObservationNetwork, RegionRect};
use s_enkf::linalg::Matrix;
use s_enkf::pfs::{FileStore, RegionData, ScratchDir};
use std::sync::atomic::Ordering;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{exclusive, ALLOCATIONS, BYTES, LARGEST};

/// One steady-state assimilation cycle over pre-sized buffers: read every
/// member's bar, split it into block views (O(1) extracts), scatter the
/// surface values into the preallocated `X̄ᵇ`, then run the pointwise
/// analysis loop into a caller-owned row. Returns a checksum so nothing is
/// optimized away.
#[allow(clippy::too_many_arguments)]
fn cycle(
    store: &FileStore,
    members: usize,
    bar: &RegionRect,
    blocks: &[RegionRect],
    mesh: Mesh,
    states: &mut Matrix,
    views: &mut Vec<RegionData>,
    analysis: &LetkfAnalysis,
    obs: &s_enkf::core::LocalObservations,
    index: &LocalObsIndex,
    ws: &mut LetkfWorkspace,
    out_row: &mut [f64],
) -> f64 {
    // Read phase: one bar per member through the pooled path.
    for k in 0..members {
        let data = store.read_region(k, bar).unwrap();
        // Scatter phase: per-block views sharing the bar's slab, exactly
        // what an I/O rank fans out to its compute peers.
        for block in blocks {
            views.push(data.extract(block));
        }
        for (b, view) in views.drain(..).enumerate() {
            debug_assert!(view.shares_backing(&data), "scatter must be zero-copy");
            let block = &blocks[b];
            let mut local = 0;
            for iy in block.y0..block.y1 {
                let row = view.row(iy - block.y0);
                for (dx, &v) in row.iter().enumerate() {
                    let flat = iy * mesh.nx() + block.x0 + dx;
                    states[(flat, k)] = v;
                    local += 1;
                }
            }
            debug_assert_eq!(local, block.npoints());
        }
    }
    // Analyze phase: the PR 2 allocation-free pointwise loop.
    let full = RegionRect::full(mesh);
    let mut checksum = 0.0;
    for p in bar.iter_points() {
        analysis
            .analyze_point_into(mesh, p, &full, states, obs, index, ws, out_row)
            .unwrap();
        checksum += out_row[0];
    }
    checksum
}

#[test]
fn read_scatter_analyze_cycle_is_allocation_free_at_steady_state() {
    let _x = exclusive();
    let mesh = Mesh::new(16, 8);
    let members = 6;
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let scratch = ScratchDir::new("dataplane-alloc").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
    for k in 0..members {
        let v: Vec<f64> = (0..mesh.n())
            .map(|i| ((i + 3 * k) as f64 * 0.37).sin())
            .collect();
        store.write_member(k, &v).unwrap();
    }

    let net = ObservationNetwork::uniform(mesh, 3);
    let op = ObservationOperator::new(net);
    let m = op.len();
    let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.23).cos()).collect();
    let observations = Observations::new(
        op,
        values,
        vec![0.1; m],
        PerturbedObservations::new(0x5EED, members),
    );
    observations.prepare();

    // Full-width bar (single-seek read) split into two sub-domain blocks.
    let bar = RegionRect::new(0, 16, 2, 6);
    let blocks = [RegionRect::new(0, 8, 2, 6), RegionRect::new(8, 16, 2, 6)];
    let full = RegionRect::full(mesh);
    let obs = observations.localize(&full);
    let analysis = LetkfAnalysis::new(radius);
    let cell = radius.xi.max(radius.eta).max(1);
    let index = LocalObsIndex::build(&obs, &full, cell);
    let mut states = Matrix::zeros(mesh.n(), members);
    let mut views: Vec<RegionData> = Vec::with_capacity(blocks.len());
    let mut ws = LetkfWorkspace::new();
    let mut out_row = vec![0.0; members];

    // Warm cycle: pool slabs, byte buffers, file handles and workspace
    // buffers all reach their steady-state capacity.
    let warm = cycle(
        &store,
        members,
        &bar,
        &blocks,
        mesh,
        &mut states,
        &mut views,
        &analysis,
        &obs,
        &index,
        &mut ws,
        &mut out_row,
    );
    assert!(warm.is_finite());

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let steady = cycle(
        &store,
        members,
        &bar,
        &blocks,
        mesh,
        &mut states,
        &mut views,
        &analysis,
        &obs,
        &index,
        &mut ws,
        &mut out_row,
    );
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(steady, warm, "cycles are deterministic");
    assert_eq!(
        after - before,
        0,
        "steady-state read→scatter→analyze cycle allocated {} times",
        after - before
    );
}

/// One checkpoint sweep: encode every member's column through the pooled
/// [`s_enkf::ckpt::MemberEncoder`] path and write it durably. Returns the
/// member checksums so nothing is optimized away.
fn ckpt_sweep(
    enc: &mut s_enkf::ckpt::MemberEncoder,
    store: &FileStore,
    ensemble: &Ensemble,
    crcs: &mut Vec<u64>,
) {
    crcs.clear();
    for k in 0..ensemble.size() {
        crcs.push(enc.write_durable(store, ensemble, k).unwrap());
    }
}

/// The steady-state checkpoint write path performs no payload-sized
/// allocation: the column gather buffer and the little-endian byte image
/// are recycled through the encoder and the store's pool. What remains is
/// the temp + rename protocol's small per-file path strings — bounded to
/// a sliver of the payload and never one allocation as large as a member.
#[test]
fn checkpoint_member_writes_are_payload_allocation_free_at_steady_state() {
    let _x = exclusive();
    let mesh = Mesh::new(16, 8);
    let members = 6;
    let scratch = ScratchDir::new("ckpt-alloc").unwrap();
    let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
    let ensemble = Ensemble::new(
        mesh,
        Matrix::from_fn(mesh.n(), members, |i, k| {
            ((i * 7 + k * 3) as f64 * 0.13).sin()
        }),
    );
    let payload_per_member = 8 * mesh.n();

    let mut enc = s_enkf::ckpt::MemberEncoder::new();
    let mut warm_crcs = Vec::with_capacity(members);
    let mut steady_crcs = Vec::with_capacity(members);
    // Warm sweep: the encoder's column buffer and the pool's byte buffer
    // reach member-payload capacity.
    ckpt_sweep(&mut enc, &store, &ensemble, &mut warm_crcs);

    let (calls0, bytes0) = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    LARGEST.store(0, Ordering::Relaxed);
    ckpt_sweep(&mut enc, &store, &ensemble, &mut steady_crcs);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - calls0;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(steady_crcs, warm_crcs, "sweeps are deterministic");
    assert!(
        largest < payload_per_member,
        "a payload-sized allocation ({largest} B >= {payload_per_member} B) leaked into the \
         steady-state checkpoint write path"
    );
    assert!(
        bytes < members * 512,
        "steady-state checkpoint sweep allocated {bytes} B for {} B of payload \
         (want only small path strings, < {} B)",
        members * payload_per_member,
        members * 512
    );
    assert!(
        calls <= members * 16,
        "steady-state checkpoint sweep allocated {calls} times"
    );
}
