//! Roofline sweep for the kernel layer (DESIGN.md §11): GFLOP/s of each
//! GEMM flavour at LETKF-relevant sizes, for the legacy blocked loops
//! (`kernel::reference`, the exact pre-refactor code) and the
//! cache-oblivious + SIMD kernel layer; plus matvec, the bulk LE↔f64
//! conversion, the serial cyclic Gram eigensolve,
//! and the end-to-end pointwise LETKF case tracked since `BENCH_PR2.json`.
//!
//! Prints one machine-readable `ROOF key=value ...` line per measurement
//! for `scripts/bench.sh` to assemble into `BENCH_PR7.json`.

use enkf_bench::print_table;
use enkf_core::{LetkfAnalysis, ObservationOperator, Observations, PerturbedObservations};
use enkf_grid::{LocalizationRadius, Mesh, ObservationNetwork, RegionRect};
use enkf_linalg::kernel::{self, convert, gemm, reference};
use enkf_linalg::{EigenWorkspace, GaussianSampler, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn random_matrix(n: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs = GaussianSampler::new();
    Matrix::from_fn(n, m, |_, _| gs.sample(&mut rng))
}

/// Median-of-repeats wall time in microseconds for `f`, warmed once and
/// batched so each sample runs at least ~20ms.
fn time_us<F: FnMut()>(mut f: F) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-7);
    let batch = ((0.02 / once).ceil() as usize).clamp(1, 100_000);
    let mut samples = [0.0f64; 5];
    for s in &mut samples {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        *s = t.elapsed().as_secs_f64() / batch as f64;
    }
    samples.sort_by(f64::total_cmp);
    samples[2] * 1e6
}

fn gflops(flops: f64, us: f64) -> f64 {
    flops / (us * 1e-6) / 1e9
}

fn main() {
    println!(
        "kernel layer: isa={} fma_active={} threads={}",
        kernel::active_isa().name(),
        kernel::fma_active(),
        rayon::current_num_threads()
    );
    println!(
        "ROOF kind=isa name={} fma={} threads={}",
        kernel::active_isa().name(),
        kernel::fma_active(),
        rayon::current_num_threads()
    );

    // --- GEMM roofline: legacy blocked loops vs kernel layer -------------
    let mut rows = Vec::new();
    // Square sizes bracketing the LETKF shapes (the Gram build is
    // nens×npoints-ish TN/NT products; 64–384 covers sub-domain scale).
    for &n in &[64usize, 128, 256, 384] {
        let a = random_matrix(n, n, 3);
        let b = random_matrix(n, n, 4);
        let flops = 2.0 * (n as f64).powi(3);
        for (flavour, legacy_fn, kernel_fn) in [
            (
                "nn",
                reference::nn as fn(&[f64], &[f64], &mut [f64], usize, usize, usize),
                gemm::nn as fn(&[f64], &[f64], &mut [f64], usize, usize, usize),
            ),
            ("tn", reference::tn, gemm::tn),
            ("nt", reference::nt, gemm::nt),
        ] {
            let mut out = vec![0.0; n * n];
            let legacy_us = time_us(|| {
                out.iter_mut().for_each(|x| *x = 0.0);
                legacy_fn(a.as_slice(), b.as_slice(), &mut out, n, n, n);
            });
            let kernel_us = time_us(|| {
                out.iter_mut().for_each(|x| *x = 0.0);
                kernel_fn(a.as_slice(), b.as_slice(), &mut out, n, n, n);
            });
            let lg = gflops(flops, legacy_us);
            let kg = gflops(flops, kernel_us);
            println!(
                "ROOF kind=gemm flavour={flavour} n={n} legacy_us={legacy_us:.1} kernel_us={kernel_us:.1} \
                 legacy_gflops={lg:.3} kernel_gflops={kg:.3} speedup={:.3}",
                legacy_us / kernel_us
            );
            rows.push(vec![
                format!("{flavour} {n}"),
                format!("{lg:.2}"),
                format!("{kg:.2}"),
                format!("{:.2}x", legacy_us / kernel_us),
            ]);
        }
    }
    print_table(
        "GEMM roofline (GFLOP/s, square sizes)",
        &["kernel", "legacy", "kernel-layer", "speedup"],
        &rows,
    );

    // --- matvec ----------------------------------------------------------
    let (m, k) = (4096usize, 256usize);
    let a = random_matrix(m, k, 5);
    let x: Vec<f64> = (0..k).map(|i| (i as f64 * 0.11).sin()).collect();
    let mut out = Vec::new();
    let legacy_us = time_us(|| reference::matvec(a.as_slice(), &x, &mut out, m, k));
    let kernel_us = time_us(|| gemm::matvec(a.as_slice(), &x, &mut out, m, k));
    let flops = 2.0 * m as f64 * k as f64;
    println!(
        "ROOF kind=matvec m={m} k={k} legacy_us={legacy_us:.1} kernel_us={kernel_us:.1} \
         legacy_gflops={:.3} kernel_gflops={:.3} speedup={:.3}",
        gflops(flops, legacy_us),
        gflops(flops, kernel_us),
        legacy_us / kernel_us
    );

    // --- bulk LE→f64 conversion (the read-phase decode) ------------------
    let nvals = 1 << 20;
    let mut bytes = Vec::with_capacity(nvals * 8);
    for i in 0..nvals {
        bytes.extend_from_slice(&(i as f64 * 0.37).to_le_bytes());
    }
    let mut decoded = Vec::new();
    let legacy_us = time_us(|| {
        decoded.clear();
        decoded.extend(
            bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().unwrap())),
        );
    });
    let kernel_us = time_us(|| convert::le_bytes_to_f64_into(&bytes, &mut decoded));
    println!(
        "ROOF kind=convert nvals={nvals} legacy_us={legacy_us:.1} kernel_us={kernel_us:.1} \
         legacy_gbps={:.3} kernel_gbps={:.3} speedup={:.3}",
        bytes.len() as f64 / (legacy_us * 1e-6) / 1e9,
        bytes.len() as f64 / (kernel_us * 1e-6) / 1e9,
        legacy_us / kernel_us
    );

    // --- Gram eigensolve (serial cyclic Jacobi) ----------------------------
    for &n in &[24usize, 48, 96] {
        let mut sym = random_matrix(n, n, 6);
        sym.symmetrize();
        let mut ws = EigenWorkspace::new();
        let serial_us = time_us(|| ws.decompose(&sym).unwrap());
        println!("ROOF kind=eigen n={n} serial_us={serial_us:.1}");
    }

    // --- end-to-end pointwise LETKF (BENCH_PR2 geometry) -----------------
    let nens = 20;
    let radius = LocalizationRadius { xi: 2, eta: 2 };
    for (side, stride) in [(32usize, 2usize), (32, 4)] {
        let mesh = Mesh::new(side, side);
        let target = RegionRect::full(mesh);
        let expansion = target;
        let xb = random_matrix(expansion.npoints(), nens, 11);
        let net = ObservationNetwork::uniform(mesh, stride);
        let op = ObservationOperator::new(net);
        let m = op.len();
        let values: Vec<f64> = (0..m).map(|k| (k as f64 * 0.17).sin()).collect();
        let obs = Observations::new(
            op,
            values,
            vec![0.04; m],
            PerturbedObservations::new(3, nens),
        );
        let local = obs.localize(&expansion);
        let letkf = LetkfAnalysis::new(radius);
        let us = time_us(|| {
            letkf
                .analyze(mesh, &target, &expansion, &xb, &local)
                .unwrap();
        });
        println!("ROOF kind=letkf case=mesh{side}x{side}_stride{stride} time_us={us:.1}");
    }
}
