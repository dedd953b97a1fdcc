//! Kernel conformance suite — the contract CI runs under every feature
//! combination (default, `--features fast-math`, `--no-default-features`):
//!
//! 1. **Default-feature bit-identity**: when the FMA fast path is *not*
//!    active, every GEMM flavour (including the forced fork path that
//!    splits across scoped threads) reproduces `kernel::reference`
//!    byte-for-byte on fixed shapes chosen to cross every tile boundary.
//! 2. **Run-to-run determinism**: two invocations of any kernel produce
//!    identical FNV-64 digests, under *all* features. The fast-math
//!    kernels may reassociate relative to the reference, but they must
//!    never be nondeterministic.
//! 3. **Fast-math confinement**: when FMA is active its results stay
//!    within a tight relative tolerance of the reference, and its exact
//!    bit patterns are pinned by digest so any codegen drift is caught
//!    rather than silently shipped.

use enkf_linalg::kernel::{self, gemm, reference};
use enkf_linalg::{GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of the slice — the same digest
/// construction the trace/digest conformance suites use.
fn fnv64(data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in data {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs = GaussianSampler::new();
    Matrix::from_fn(r, c, |_, _| gs.sample(&mut rng))
}

/// Shapes crossing every boundary the kernels care about: the recursive
/// split (>128 rows/cols, forcing real `rayon::join` forks with the flop
/// gate lowered), partial MR/NR edge tiles, k past one NT chunk, and
/// degenerate single-row/column outputs.
const SHAPES: &[(usize, usize, usize)] = &[
    (200, 17, 150),
    (300, 3, 40),
    (40, 70, 300),
    (129, 1, 129),
    (1, 64, 1),
    (131, 131, 5),
];

fn assert_bits(new: &[f64], old: &[f64], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: length");
    for (i, (a, b)) in new.iter().zip(old).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
    }
}

fn assert_close(new: &[f64], old: &[f64], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: length");
    for (i, (a, b)) in new.iter().zip(old).enumerate() {
        let tol = 1e-12 * (1.0 + b.abs());
        assert!((a - b).abs() <= tol, "{what}: element {i}: {a} vs {b}");
    }
}

/// Run all three GEMM flavours through the tuned entry points with the
/// fork gate lowered to 1 flop, so split shapes exercise real threads.
fn run_all(m: usize, k: usize, n: usize, seed: u64) -> [(Vec<f64>, Vec<f64>); 3] {
    let a_nn = random_matrix(m, k, seed);
    let b_nn = random_matrix(k, n, seed ^ 1);
    let a_tn = random_matrix(k, m, seed ^ 2);
    let b_tn = random_matrix(k, n, seed ^ 3);
    let a_nt = random_matrix(m, k, seed ^ 4);
    let b_nt = random_matrix(n, k, seed ^ 5);

    let mut out = [
        (vec![0.0; m * n], vec![0.0; m * n]),
        (vec![0.0; m * n], vec![0.0; m * n]),
        (vec![0.0; m * n], vec![0.0; m * n]),
    ];
    gemm::nn_tuned(
        a_nn.as_slice(),
        b_nn.as_slice(),
        &mut out[0].0,
        m,
        k,
        n,
        true,
        1,
    );
    reference::nn(a_nn.as_slice(), b_nn.as_slice(), &mut out[0].1, m, k, n);
    gemm::tn_tuned(
        a_tn.as_slice(),
        b_tn.as_slice(),
        &mut out[1].0,
        m,
        k,
        n,
        true,
        1,
    );
    reference::tn(a_tn.as_slice(), b_tn.as_slice(), &mut out[1].1, m, k, n);
    gemm::nt_tuned(
        a_nt.as_slice(),
        b_nt.as_slice(),
        &mut out[2].0,
        m,
        k,
        n,
        true,
        1,
    );
    reference::nt(a_nt.as_slice(), b_nt.as_slice(), &mut out[2].1, m, k, n);
    out
}

#[test]
fn gemm_conformance_against_reference() {
    let fma = kernel::fma_active();
    println!(
        "kernel conformance: isa={} fma_active={}",
        kernel::active_isa().name(),
        fma
    );
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        let results = run_all(m, k, n, 1000 + si as u64);
        for (flavour, (new, old)) in ["nn", "tn", "nt"].iter().zip(&results) {
            let what = format!("{flavour} {m}x{k}x{n}");
            if fma {
                // Reassociation confined to a tolerance band; exact bits
                // are pinned separately by the digest test.
                assert_close(new, old, &what);
            } else {
                assert_bits(new, old, &what);
            }
        }
    }
}

#[test]
fn kernels_are_run_to_run_deterministic() {
    for (si, &(m, k, n)) in SHAPES.iter().enumerate() {
        let first = run_all(m, k, n, 2000 + si as u64);
        let second = run_all(m, k, n, 2000 + si as u64);
        for (flavour, (one, two)) in ["nn", "tn", "nt"]
            .iter()
            .zip(first.iter().map(|r| &r.0).zip(second.iter().map(|r| &r.0)))
        {
            assert_eq!(
                fnv64(one),
                fnv64(two),
                "{flavour} {m}x{k}x{n}: nondeterministic result"
            );
        }
    }
}

/// Pinned digests for the FMA fast path on x86-64 AVX2+FMA hosts. These
/// bits are *allowed* to differ from the reference (that is the point of
/// `fast-math`) but they are not allowed to drift silently: a toolchain
/// or kernel change that alters them must update the pins consciously.
#[cfg(feature = "fast-math")]
#[test]
fn fast_math_digests_are_pinned() {
    if !kernel::fma_active() {
        println!("fast-math digest pins skipped: FMA not active on this host");
        return;
    }
    const PINS: &[(usize, usize, usize, [u64; 3])] = &[
        (
            200,
            17,
            150,
            [0xe5257cd71a0b776d, 0x3fad0e9c4cb2f3a2, 0x8df86edb93b345d0],
        ),
        (
            131,
            131,
            5,
            [0xf0b6c7442c5e6987, 0x3144c613132639bd, 0x816f07d71a19bea9],
        ),
    ];
    for &(m, k, n, expect) in PINS {
        let results = run_all(m, k, n, 4000 + m as u64);
        let got = [
            fnv64(&results[0].0),
            fnv64(&results[1].0),
            fnv64(&results[2].0),
        ];
        println!(
            "PIN ({m}, {k}, {n}, [{:#x}, {:#x}, {:#x}]),",
            got[0], got[1], got[2]
        );
        assert_eq!(got, expect, "fast-math digest drift at {m}x{k}x{n}");
    }
}
