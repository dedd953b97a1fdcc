//! Counting-allocator proof that the kernel layer is allocation-free at
//! steady state.
//!
//! One warm pass sizes every output matrix, vector and eigensolve
//! workspace to its high-water mark; a second identical pass must then
//! complete without a single call into the global allocator. This is the
//! guarantee the pointwise LETKF loop depends on: the cache-oblivious
//! recursion works in-place on the output, the microkernels keep their
//! tiles in registers/stack arrays, and `EigenWorkspace` reuses its
//! scratch.
//!
//! Problem sizes stay below `kernel::tiles::PAR_FLOPS` so the recursion
//! never forks — the shim's `rayon::join` spawns a real scoped thread,
//! which allocates by design and is exactly what the flop gate exists to
//! amortize away.

use enkf_linalg::{EigenWorkspace, GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{exclusive, ALLOCATIONS};

fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs = GaussianSampler::new();
    Matrix::from_fn(r, c, |_, _| gs.sample(&mut rng))
}

/// One steady-state pass over every kernel entry point, returning a
/// checksum so nothing is optimized away.
#[allow(clippy::too_many_arguments)]
fn pass(
    a: &Matrix,
    b: &Matrix,
    x: &[f64],
    nn: &mut Matrix,
    tn: &mut Matrix,
    nt: &mut Matrix,
    mv: &mut Vec<f64>,
    sym: &Matrix,
    ws: &mut EigenWorkspace,
) -> f64 {
    a.matmul_into(b, nn).unwrap();
    a.tr_matmul_into(b, tn).unwrap();
    a.matmul_tr_into(b, nt).unwrap();
    a.matvec_into(x, mv).unwrap();
    ws.decompose(sym).unwrap();
    nn.as_slice()[0] + tn.as_slice()[1] + nt.as_slice()[2] + mv[3] + ws.values()[0]
}

#[test]
fn gemm_and_eigensolve_steady_state_is_allocation_free() {
    let _x = exclusive();
    // 96³ keeps 2·m·n·k below PAR_FLOPS (no fork) while still crossing
    // block boundaries of every microkernel (96 = 24 MR tiles, 12 NR
    // tiles, 1.5 NT_KC chunks).
    let n = 96;
    let a = random_matrix(n, n, 7);
    let b = random_matrix(n, n, 8);
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
    let mut sym = random_matrix(n, n, 9);
    sym.symmetrize();

    let mut nn = Matrix::zeros(1, 1);
    let mut tn = Matrix::zeros(1, 1);
    let mut nt = Matrix::zeros(1, 1);
    let mut mv = Vec::new();
    let mut ws = EigenWorkspace::new();

    // Warm pass: outputs and workspace grow to their final sizes.
    let warm = pass(
        &a, &b, &x, &mut nn, &mut tn, &mut nt, &mut mv, &sym, &mut ws,
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let steady = pass(
        &a, &b, &x, &mut nn, &mut tn, &mut nt, &mut mv, &sym, &mut ws,
    );
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        warm.to_bits(),
        steady.to_bits(),
        "passes must be deterministic"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state GEMM/matvec/eigensolve must not touch the allocator"
    );
}
