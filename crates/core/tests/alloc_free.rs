//! Counting-allocator proof that the steady-state per-grid-point LETKF
//! loop performs no heap allocation.
//!
//! The workspace buffers grow to their high-water mark during a warm pass
//! over every grid point; a second pass over the same points must then
//! complete without a single call into the global allocator.

use enkf_core::{
    LetkfAnalysis, LetkfWorkspace, LocalObsIndex, ObservationOperator, Observations,
    PerturbedObservations,
};
use enkf_grid::{LocalizationRadius, Mesh, ObservationNetwork, RegionRect};
use enkf_linalg::Matrix;
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{exclusive, ALLOCATIONS};

#[test]
fn letkf_point_loop_is_allocation_free_at_steady_state() {
    let _x = exclusive();
    let mesh = Mesh::new(12, 12);
    let nens = 8;
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    let states = Matrix::from_fn(mesh.n(), nens, |i, k| {
        let p = mesh.point(i);
        (p.ix as f64 * 0.4).sin() + (p.iy as f64 * 0.3).cos() + 0.01 * k as f64
    });
    let net = ObservationNetwork::uniform(mesh, 3);
    let op = ObservationOperator::new(net);
    let m = op.len();
    let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.23).cos()).collect();
    let observations = Observations::new(
        op,
        values,
        vec![0.1; m],
        PerturbedObservations::new(0x5EED, nens),
    );

    let full = RegionRect::full(mesh);
    let obs = observations.localize(&full);
    let analysis = LetkfAnalysis::new(radius);
    let cell = radius.xi.max(radius.eta).max(1);
    let index = LocalObsIndex::build(&obs, &full, cell);
    let mut ws = LetkfWorkspace::new();
    let mut out_row = vec![0.0; nens];

    // Warm pass: every buffer reaches its high-water capacity (box sizes
    // vary with edge clamping, so every point must be visited).
    for p in full.iter_points() {
        analysis
            .analyze_point_into(mesh, p, &full, &states, &obs, &index, &mut ws, &mut out_row)
            .unwrap();
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut checksum = 0.0;
    for p in full.iter_points() {
        analysis
            .analyze_point_into(mesh, p, &full, &states, &obs, &index, &mut ws, &mut out_row)
            .unwrap();
        checksum += out_row[0];
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert!(checksum.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state per-point loop allocated {} times",
        after - before
    );
}
