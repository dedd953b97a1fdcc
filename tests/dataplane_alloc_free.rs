//! Counting-allocator proof that the steady-state read → scatter →
//! analyze cycle performs no heap allocation: one warm cycle fills the
//! store's buffer pool (byte buffers, `f64` slabs), the open-file-handle
//! cache, and the analysis workspace high-water marks; a second identical
//! cycle must then complete without a single call into the global
//! allocator.
//!
//! The counters are process-global, so this binary holds exactly one
//! measuring test: libtest's start-up and teardown work for a sibling test
//! runs on harness threads outside any lock and would land in the window.
//! The checkpoint write-path guarantee lives in its own binary,
//! `tests/checkpoint_alloc_free.rs`, for the same reason.

use s_enkf::core::{
    LetkfAnalysis, LetkfWorkspace, LocalObsIndex, ObservationOperator, Observations,
    PerturbedObservations,
};
use s_enkf::grid::{FileLayout, LocalizationRadius, Mesh, ObservationNetwork, RegionRect};
use s_enkf::linalg::Matrix;
use s_enkf::pfs::{FileStore, RegionData, ScratchDir};
use std::sync::atomic::Ordering;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{exclusive, ALLOCATIONS};

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
