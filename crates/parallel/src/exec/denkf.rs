//! D-EnKF: the distributed-array non-sequential executor (real backend).
//!
//! The three sequential executors localize: each rank assimilates only the
//! observations near its sub-domain, point by point. D-EnKF instead shards
//! the **state** across ranks as full-width latitude bars (a distributed
//! array over the store's native bar layout — one disk addressing operation
//! per member per rank) and assimilates the **whole** observation network in
//! one batched covariance-form update (arXiv 2311.12909):
//!
//! * Rank `s` of `shards` owns bar `s`; it reads its bar of every member
//!   file and forms the shard's observed rows `S_loc = H_loc U`,
//!   `D_loc = Yˢ_loc − H_loc Xᵇ` — observation-space data, `m_loc × N`,
//!   *independent of the state dimension*.
//! * Ranks all-to-all exchange these small observation blocks (never state
//!   rows), so every rank assembles the identical global `S`, `D`.
//! * Every rank computes the same `N × N` transform
//!   `T = Sᵀ (S Sᵀ/(N−1) + R)⁻¹ D/(N−1)` — with a dense Cholesky or the
//!   inversion-free iterative Sherman-Morrison kernel
//!   ([`enkf_core::BatchedKernel`]) — and applies `Xᵃ = Xᵇ + U_shard T`
//!   to its own rows only.
//!
//! Because the kernel GEMM accumulates over `k` in a fixed order regardless
//! of output shape, `U_shard T` rows are bit-identical to the same rows of
//! the one-shard product: shard-count invariance is exact.

use crate::exec::setup::AssimilationSetup;
use crate::exec::{abort_peers, receive, Cycle, Wire};
use crate::report::ExecutionReport;
use enkf_core::{batched_transform, BatchedKernel, Ensemble, Result};
use enkf_data::region_to_matrix;
use enkf_fault::{FaultConfig, FaultLog, SubstrateError};
use enkf_health::HealthMonitor;
use enkf_linalg::Matrix;
use enkf_net::RankCtx;
use enkf_trace::Trace;
use std::time::Duration;

/// One shard's observed anomaly and innovation rows: the payload of the
/// all-to-all exchange.
#[derive(Debug, Clone)]
struct ObsBlock {
    /// Global observation-row indices, ascending (the shard's rows of the
    /// network).
    rows: Vec<usize>,
    /// The shard's rows of `S = H U` (`m_loc × N_alive`).
    s: Matrix,
    /// The shard's rows of `D = Yˢ − H Xᵇ` (`m_loc × N_alive`).
    d: Matrix,
}

/// Wire size of one shard's observation block: `rows` indices (8 bytes
/// each) plus two `rows × members` f64 matrices. The DES model charges its
/// `Comm` tasks with the same formula, which is what makes the real and
/// modeled trace digests byte-identical.
pub(crate) fn exchange_bytes(rows: usize, members: usize) -> u64 {
    8 * (rows * (2 * members + 1)) as u64
}

/// The D-EnKF variant: `shards` ranks, each owning one full-width bar of
/// the state, one non-sequential batched analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DEnkf {
    /// State shards (= ranks); must divide the mesh height.
    pub shards: usize,
    /// Kernel applying `C⁻¹` in the batched transform.
    pub kernel: BatchedKernel,
}

impl DEnkf {
    /// Run the assimilation; returns the analysis ensemble, the phase
    /// timings, the execution trace and the fault log.
    ///
    /// The trace holds, per rank, one read span per member bar
    /// (single-seek, full-width), one send span per peer (the observation
    /// block) and one compute span (the batched transform plus the shard
    /// update).
    ///
    /// With `FaultConfig::none()` nothing is injected. Under a seeded
    /// plan, bar reads retry with backoff, unrecoverable members are
    /// dropped when `faults.degraded` is set (every rank shrinks `S`/`D` to
    /// the survivors — the N−1 path), stragglers dilate compute, message
    /// delays stall the exchange, and crashes or message drops switch
    /// receives to a timeout surfacing [`SubstrateError::RecvTimeout`]; a
    /// rank whose peers all exited gets the typed
    /// [`SubstrateError::PeerExited`] instead of a channel panic.
    ///
    /// With a [`HealthMonitor`], each shard reads members whose OST is
    /// blacklisted last and routes bar reads through
    /// [`read_region_adaptive`], so a degraded OST triggers a speculative
    /// duplicate read against its replica; bars are collected keyed by
    /// member and re-assembled ascending, so the reorder never reaches the
    /// numerics. Observed dilation ratios feed the monitor; the caller
    /// folds them with [`HealthMonitor::end_cycle`].
    pub fn run(
        &self,
        setup: &AssimilationSetup<'_>,
        faults: &FaultConfig,
        monitor: Option<&HealthMonitor>,
    ) -> Result<(Ensemble, ExecutionReport, Trace, FaultLog)> {
        setup.validate()?;
        // Shards are full-width bars: the `1 × shards` decomposition.
        let decomp = setup.decomposition(1, self.shards)?;
        let nranks = decomp.num_subdomains();
        let kernel = self.kernel;
        let m_total = setup.observations.len();
        let cycle = Cycle::new(setup, faults, monitor)?;
        cycle.run(
            "denkf-real",
            &decomp,
            0,
            |cy, ctx: RankCtx<Wire<ObsBlock>>, tracer| {
                let rank = ctx.rank();
                let injector = &cy.faults.injector;
                let bar = decomp.subdomain(decomp.id_of_rank(rank));
                // Every peer counts on this shard's block: a failing rank
                // unblocks them before bailing out.
                let peers = || (0..nranks).filter(move |&peer| peer != rank);

                // Phase 1: read this shard's bar of every member file — a
                // full-width band, one contiguous segment, one disk
                // addressing operation per member (§4.1.2's bar argument,
                // here applied to the analysis decomposition itself).
                let per_member = cy.read_members(tracer, &bar).inspect_err(|_| {
                    abort_peers(&ctx, peers());
                })?;
                let xb = region_to_matrix(&bar, &per_member);
                let n_alive = cy.faults.alive.len();

                // Local observation rows of this bar. `localize` and
                // `indices_in` enumerate the same ascending global order,
                // so `global_rows[r]` is the global index of local row `r`.
                let mut obs = setup.observations.localize(&bar);
                if !cy.faults.dropped.is_empty() {
                    obs = obs.select_members(&cy.faults.alive);
                }
                let global_rows = setup.observations.operator().network().indices_in(&bar);
                debug_assert_eq!(global_rows.len(), obs.len());
                let m_loc = obs.len();

                // S_loc = H_loc Xᵇ − row means, D_loc = Yˢ_loc − H_loc Xᵇ.
                // Row means only mix within a row, so both are shard-local.
                let mut s_loc = Matrix::zeros(m_loc, n_alive);
                let mut d_loc = Matrix::zeros(m_loc, n_alive);
                for r in 0..m_loc {
                    let hx = xb.row(obs.local_rows[r]);
                    let mean = hx.iter().sum::<f64>() / n_alive as f64;
                    let yp = obs.perturbed.row(r);
                    for c in 0..n_alive {
                        s_loc[(r, c)] = hx[c] - mean;
                        d_loc[(r, c)] = yp[c] - hx[c];
                    }
                }

                // Phase 2: all-to-all exchange of the observation blocks
                // (never state rows — the payload is m_loc × N, independent
                // of the shard's state size).
                for peer in peers() {
                    let delay = injector.send_delay(rank, peer);
                    let drop_msg = injector.message_dropped(rank, peer);
                    tracer.send(None, peer, exchange_bytes(m_loc, n_alive), || {
                        if delay > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(delay));
                        }
                        if !drop_msg {
                            ctx.send(
                                peer,
                                Wire::Data(ObsBlock {
                                    rows: global_rows.clone(),
                                    s: s_loc.clone(),
                                    d: d_loc.clone(),
                                }),
                            );
                        }
                    });
                }

                // Assemble the global S and D: own rows plus one block from
                // every peer. Bars partition the mesh, so the blocks cover
                // every observation row exactly once.
                let mut s_glob = Matrix::zeros(m_total, n_alive);
                let mut d_glob = Matrix::zeros(m_total, n_alive);
                let mut scatter = |b: &ObsBlock| {
                    for (r, &g) in b.rows.iter().enumerate() {
                        s_glob.row_mut(g).copy_from_slice(b.s.row(r));
                        d_glob.row_mut(g).copy_from_slice(b.d.row(r));
                    }
                };
                scatter(&ObsBlock {
                    rows: global_rows,
                    s: s_loc,
                    d: d_loc,
                });
                tracer
                    .wait(None, || {
                        for _ in 0..nranks - 1 {
                            scatter(&receive(ctx.inbox(), cy.faults.timeout())?);
                        }
                        Ok::<_, SubstrateError>(())
                    })
                    .inspect_err(|_| abort_peers(&ctx, peers()))?;

                // Phase 3: the batched transform (identical on every rank)
                // and the shard-local update Xᵃ = Xᵇ + U_shard T.
                let r_var = setup.observations.error_var();
                cy.compute(tracer, rank, None, || {
                    let t = batched_transform(&s_glob, &d_glob, r_var, kernel)?;
                    let mut u = xb.clone();
                    let means = u.row_means();
                    u.subtract_row_vector(&means);
                    let mut xa = xb.clone();
                    xa.axpy(1.0, &u.matmul(&t)?)?;
                    Ok(Some(xa))
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enkf_core::{serial_denkf, LocalAnalysis};
    use enkf_data::{write_ensemble, ScenarioBuilder};
    use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
    use enkf_pfs::{FileStore, ScratchDir};

    fn harness(
        mesh: Mesh,
        members: usize,
        seed: u64,
    ) -> (ScratchDir, FileStore, enkf_data::Scenario) {
        let scenario = ScenarioBuilder::new(mesh)
            .members(members)
            .seed(seed)
            .build();
        let scratch = ScratchDir::new("denkf").unwrap();
        let store = FileStore::open(scratch.path(), FileLayout::new(mesh, 8)).unwrap();
        write_ensemble(&store, &scenario.ensemble).unwrap();
        (scratch, store, scenario)
    }

    fn setup<'a>(
        store: &'a FileStore,
        scenario: &'a enkf_data::Scenario,
        members: usize,
    ) -> AssimilationSetup<'a> {
        AssimilationSetup {
            store,
            members,
            observations: &scenario.observations,
            analysis: LocalAnalysis::new(LocalizationRadius { xi: 1, eta: 1 }),
        }
    }

    #[test]
    fn matches_serial_batched_reference_exactly() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = harness(mesh, 6, 3);
        let st = setup(&store, &scenario, 6);
        for kernel in [BatchedKernel::Cholesky, BatchedKernel::ShermanMorrison] {
            let (analysis, report, _, _) = DEnkf { shards: 4, kernel }
                .run(&st, &FaultConfig::none(), None)
                .unwrap();
            let reference =
                serial_denkf(&scenario.ensemble, &scenario.observations, kernel).unwrap();
            assert!(
                analysis.states().approx_eq(reference.states(), 1e-12),
                "D-EnKF ({kernel:?}) must equal the serial batched reference"
            );
            assert_eq!(report.num_compute_ranks, 4);
            assert!(report.compute_ranks.read > 0.0);
            assert!(report.compute_ranks.comm > 0.0, "exchange must be traced");
            assert!(report.compute_ranks.compute > 0.0);
        }
    }

    #[test]
    fn shard_count_invariance_is_bitwise() {
        // The kernel GEMM accumulates over k in a fixed order regardless of
        // output shape, so resharding must not change a single bit.
        let mesh = Mesh::new(10, 12);
        let (_s, store, scenario) = harness(mesh, 8, 17);
        let st = setup(&store, &scenario, 8);
        let kernel = BatchedKernel::ShermanMorrison;
        let (one, _, _, _) = DEnkf { shards: 1, kernel }
            .run(&st, &FaultConfig::none(), None)
            .unwrap();
        for shards in [2, 3, 4, 6, 12] {
            let (sharded, _, _, _) = DEnkf { shards, kernel }
                .run(&st, &FaultConfig::none(), None)
                .unwrap();
            assert_eq!(
                sharded.states().as_slice(),
                one.states().as_slice(),
                "{shards} shards must be bit-identical to 1 shard"
            );
        }
    }

    #[test]
    fn invalid_shard_count_is_rejected() {
        let mesh = Mesh::new(12, 8);
        let (_s, store, scenario) = harness(mesh, 4, 1);
        let st = setup(&store, &scenario, 4);
        assert!(DEnkf {
            shards: 5,
            kernel: BatchedKernel::Cholesky
        }
        .run(&st, &FaultConfig::none(), None)
        .is_err());
    }
}
