//! Integration between the closed-form cost model (`enkf-tuning`), the
//! discrete-event substrate (`enkf-sim` + `enkf-pfs` + `enkf-net`), and the
//! planners (`enkf-parallel::model`): the modeled executors must reproduce
//! the relationships the paper's evaluation relies on.

use s_enkf::parallel::model::reading::{model_block_read, model_concurrent_read};
use s_enkf::parallel::model_penkf_traced;
use s_enkf::parallel::model_senkf_traced;
use s_enkf::parallel::ModelConfig;
use s_enkf::tuning::{autotune, Params, Workload};

fn small_cfg() -> ModelConfig {
    ModelConfig {
        workload: Workload {
            nx: 360,
            ny: 180,
            members: 12,
            h: 80,
            xi: 2,
            eta: 2,
        },
        ..ModelConfig::paper()
    }
}

#[test]
fn senkf_beats_penkf_when_reads_dominate() {
    let cfg = small_cfg();
    let p = model_penkf_traced(&cfg, 36, 18).unwrap().0;
    let (s, _) = model_senkf_traced(
        &cfg,
        Params {
            nsdx: 36,
            nsdy: 18,
            layers: 2,
            ncg: 4,
        },
    )
    .unwrap();
    assert!(
        s.makespan < p.makespan,
        "S {} vs P {}",
        s.makespan,
        p.makespan
    );
}

#[test]
fn des_makespan_tracks_closed_form_total_at_tuned_params() {
    // The paper's Figure 12 claim, end to end: the analytic T_total and the
    // DES makespan agree (within a modest factor) at the tuned parameters.
    let cfg = small_cfg();
    let cost = cfg.cost_params();
    let tuned = autotune(&cost, 800, 2e-2).expect("tunable");
    let out = model_senkf_traced(&cfg, tuned.params).unwrap().0;
    let ratio = out.makespan / tuned.t_total;
    assert!(
        (0.5..2.0).contains(&ratio),
        "DES {} vs model {} (ratio {ratio})",
        out.makespan,
        tuned.t_total
    );
}

#[test]
fn block_reading_scales_with_longitudinal_subdivisions() {
    // Figure 5's premise at small scale: seeks grow with n_sdx.
    let cfg = small_cfg();
    let t10 = model_block_read(&cfg, 10, 6, 12).unwrap();
    let t20 = model_block_read(&cfg, 20, 6, 12).unwrap();
    let t40 = model_block_read(&cfg, 40, 6, 12).unwrap();
    assert!(t10 < t20 && t20 < t40);
    // Roughly linear: quadrupling n_sdx should not be sub-2x.
    assert!(t40 / t10 > 2.0, "t40/t10 = {}", t40 / t10);
}

#[test]
fn concurrent_groups_saturate_at_ost_count() {
    let cfg = small_cfg();
    let t1 = model_concurrent_read(&cfg, 6, 1, 12).unwrap();
    let t6 = model_concurrent_read(&cfg, 6, 6, 12).unwrap();
    let t12 = model_concurrent_read(&cfg, 6, 12, 12).unwrap();
    assert!(t6 < t1, "groups must help before saturation");
    // Past the OST count, no meaningful further gain.
    assert!(t12 > t6 * 0.7, "t12 {} vs t6 {}", t12, t6);
}

#[test]
fn penkf_io_share_grows_with_ranks() {
    // Figure 1's shape at small scale.
    let cfg = small_cfg();
    let share = |nsdx: usize, nsdy: usize| {
        let out = model_penkf_traced(&cfg, nsdx, nsdy).unwrap().0;
        let m = out.compute_mean;
        let io = m.read + m.comm + m.wait;
        io / (io + m.compute)
    };
    let small = share(12, 6);
    let large = share(36, 18);
    assert!(large > small, "io share {small} -> {large}");
}

#[test]
fn overlap_fraction_is_sustained_across_scales() {
    // Figure 11's shape: overlapped share stays high as ranks grow.
    let cfg = small_cfg();
    let (a, _) = model_senkf_traced(
        &cfg,
        Params {
            nsdx: 12,
            nsdy: 6,
            layers: 3,
            ncg: 2,
        },
    )
    .unwrap();
    let (b, _) = model_senkf_traced(
        &cfg,
        Params {
            nsdx: 36,
            nsdy: 18,
            layers: 2,
            ncg: 4,
        },
    )
    .unwrap();
    assert!(
        a.overlapped_fraction() > 0.5,
        "small: {}",
        a.overlapped_fraction()
    );
    assert!(
        b.overlapped_fraction() > 0.5,
        "large: {}",
        b.overlapped_fraction()
    );
}

#[test]
fn autotuned_configuration_is_competitive_on_the_des() {
    // The tuner's pick should beat a deliberately poor hand-picked
    // configuration of the same budget class.
    let cfg = small_cfg();
    let cost = cfg.cost_params();
    let np = 700;
    let tuned = autotune(&cost, np, 2e-2).expect("tunable");
    let good = model_senkf_traced(&cfg, tuned.params).unwrap().0;
    // Poor choice: no layering, single group, skewed decomposition.
    let (poor, _) = model_senkf_traced(
        &cfg,
        Params {
            nsdx: 120,
            nsdy: 5,
            layers: 1,
            ncg: 1,
        },
    )
    .unwrap();
    assert!(
        good.makespan < poor.makespan,
        "tuned {} vs poor {}",
        good.makespan,
        poor.makespan
    );
}
