//! `senkf_dense` and `penkf_wide`: supervised assimilation campaigns on
//! the real threaded path.
//!
//! The untraced run times `run_campaign_ctx` — the entry point users call —
//! in a closed loop, one campaign after another, and takes each cycle's end
//! from its first checkpoint span on the campaign clock. The traced run
//! replays the same inputs through the layers' public functions
//! (`CycledExperiment::run_cycle`, `write_ensemble`, `run_traced`,
//! `CheckpointStore::save` / `AsyncCheckpointer::save_async`) and times
//! each call from outside, so the layer times plus a residual add up to
//! the cycle time.

use crate::util::{self, Metrics, Spans};
use enkf_ckpt::{AsyncCheckpointer, CampaignCheckpoint, CheckpointStore};
use enkf_core::{inflated, serial_enkf, Ensemble, LocalAnalysis, Observations};
use enkf_data::{write_ensemble, CycleConfig, CycleStats, CycledExperiment};
use enkf_fault::{FaultConfig, RetryPolicy};
use enkf_grid::{FileLayout, LocalizationRadius, Mesh};
use enkf_linalg::Matrix;
use enkf_parallel::{
    run_campaign_ctx, AssimilationSetup, BackoffClock, CampaignConfig, CampaignCtx,
    CampaignExecutor, CampaignReport, CkptMode, PEnkf, SEnkf,
};
use enkf_pfs::FileStore;
use enkf_trace::{Op, RankTracer, Role, Span, Trace};
use enkf_tuning::Params;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One real-path workload.
pub struct Workload {
    pub name: &'static str,
    /// Mesh extent `(nx, ny)`.
    extent: (usize, usize),
    members: usize,
    obs_stride: usize,
    radius: usize,
    exec: CampaignExecutor,
    mode: CkptMode,
    cycles: usize,
    inflation: f64,
}

/// Dense local analysis on a small state: compute-bound.
pub const SENKF_DENSE: Workload = Workload {
    name: "senkf_dense",
    extent: (96, 48),
    members: 16,
    obs_stride: 2,
    radius: 2,
    exec: CampaignExecutor::SEnkf(Params {
        nsdx: 2,
        nsdy: 1,
        layers: 2,
        ncg: 1,
    }),
    mode: CkptMode::Pipelined,
    cycles: 12,
    inflation: 1.1,
};

/// Sparse, cheap analysis on a 28× larger state: data-plane-bound.
pub const PENKF_WIDE: Workload = Workload {
    name: "penkf_wide",
    extent: (512, 256),
    members: 8,
    obs_stride: 8,
    radius: 1,
    exec: CampaignExecutor::PEnkf { nsdx: 2, nsdy: 1 },
    mode: CkptMode::Sync,
    cycles: 6,
    inflation: 1.1,
};

impl Workload {
    fn mesh(&self) -> Mesh {
        Mesh::new(self.extent.0, self.extent.1)
    }

    fn radius(&self) -> LocalizationRadius {
        LocalizationRadius {
            xi: self.radius,
            eta: self.radius,
        }
    }

    fn campaign(&self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            mesh: self.mesh(),
            cycles: self.cycles,
            members: self.members,
            cycle: CycleConfig {
                obs_stride: self.obs_stride,
                ..CycleConfig::default()
            },
            seed,
            analysis: LocalAnalysis::new(self.radius()),
            inflation: self.inflation,
            restart: RetryPolicy::default(),
        }
    }

    /// Bytes of one ensemble held in memory (`n · N · 8`).
    fn state_bytes(&self) -> usize {
        self.mesh().n() * self.members * 8
    }
}

/// The work store and checkpoint directory of one run.
struct Stores {
    work: FileStore,
    ckpt_root: PathBuf,
}

impl Stores {
    /// A fresh, empty checkpoint store (a campaign resumes from any
    /// matching checkpoint it finds, so every campaign starts clean).
    fn fresh_ckpt(&self) -> std::io::Result<CheckpointStore> {
        if self.ckpt_root.exists() {
            std::fs::remove_dir_all(&self.ckpt_root)?;
        }
        CheckpointStore::create(&self.ckpt_root)
    }
}

/// Set-up: open the stores and generate the seeded initial state, writing
/// its inflated background into the work store.
fn setup(wl: &Workload, cfg: &CampaignConfig, dir: &Path) -> std::io::Result<Stores> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let work = FileStore::open(dir.join("work"), FileLayout::new(wl.mesh(), 8))?;
    let exp = CycledExperiment::new(cfg.mesh, cfg.members, cfg.cycle, cfg.seed);
    write_ensemble(&work, &inflated(exp.background(), cfg.inflation))?;
    Ok(Stores {
        work,
        ckpt_root: dir.join("ckpt"),
    })
}

fn bits_equal(a: &Ensemble, b: &Ensemble) -> bool {
    let (a, b) = (a.states().as_slice(), b.states().as_slice());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The reference: the same seeded cycles through `run_cycle` with the
/// single-rank `serial_enkf` and the same inflation.
fn serial_replay(
    wl: &Workload,
    cfg: &CampaignConfig,
) -> Result<(Ensemble, Vec<CycleStats>), String> {
    let mut exp = CycledExperiment::new(cfg.mesh, cfg.members, cfg.cycle, cfg.seed);
    let mut stats = Vec::new();
    for _ in 0..cfg.cycles {
        let s = exp
            .run_cycle(|bg, obs| serial_enkf(&inflated(bg, cfg.inflation), obs, wl.radius()))
            .map_err(|e| format!("serial replay: {e}"))?;
        stats.push(s);
    }
    Ok((exp.background().clone(), stats))
}

/// Output checks shared by both runs.
fn check_outputs(
    what: &str,
    analysis: &Ensemble,
    stats: &[CycleStats],
    reference: &(Ensemble, Vec<CycleStats>),
) -> Result<(), String> {
    if !bits_equal(analysis, &reference.0) {
        return Err(format!(
            "{what}: final analysis differs from the serial replay"
        ));
    }
    if stats != reference.1.as_slice() {
        return Err(format!(
            "{what}: cycle statistics differ from the serial replay"
        ));
    }
    let last = stats.last().ok_or(format!("{what}: no cycle ran"))?;
    if last.analysis_rmse.partial_cmp(&last.free_run_rmse) != Some(std::cmp::Ordering::Less) {
        return Err(format!(
            "{what}: analysis RMSE {} does not beat the free run {}",
            last.analysis_rmse, last.free_run_rmse
        ));
    }
    Ok(())
}

/// Exact per-cycle operation counts at the layer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    read_bytes: u64,
    read_seeks: u64,
    msgs: u64,
    send_bytes: u64,
    ckpt_bytes: u64,
}

/// One checkpoint save as its Ckpt spans record it.
#[derive(Debug, Clone, Copy)]
struct Save {
    start: f64,
    busy: f64,
    bytes: u64,
}

/// Checkpoint saves of a trace in time order; a save starts at its
/// member-0 span.
fn ckpt_saves(spans: &[Span]) -> Vec<Save> {
    let mut ck: Vec<&Span> = spans.iter().filter(|s| s.op == Op::Ckpt).collect();
    ck.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut saves: Vec<Save> = Vec::new();
    for s in ck {
        match saves.last_mut() {
            Some(last) if s.member != Some(0) => {
                last.busy += s.dur;
                last.bytes += s.bytes;
            }
            _ => saves.push(Save {
                start: s.start,
                busy: s.dur,
                bytes: s.bytes,
            }),
        }
    }
    saves
}

/// Per-cycle latencies and counts of one untraced campaign.
fn campaign_cycles(wl: &Workload, rep: &CampaignReport) -> Result<(Vec<f64>, Counts), String> {
    let saves = ckpt_saves(rep.trace.spans());
    if saves.len() != wl.cycles + 1 {
        return Err(format!(
            "expected {} checkpoint saves, found {}",
            wl.cycles + 1,
            saves.len()
        ));
    }
    if saves.iter().any(|s| s.bytes != saves[0].bytes) {
        return Err("checkpoint bytes differ between saves".into());
    }
    let lat = saves.windows(2).map(|w| w[1].start - w[0].start).collect();
    let k = wl.cycles as u64;
    let mut c = Counts {
        ckpt_bytes: saves[0].bytes,
        ..Counts::default()
    };
    for s in rep.trace.spans() {
        match s.op {
            Op::Read => {
                c.read_bytes += s.bytes;
                c.read_seeks += s.seeks;
            }
            Op::Send => {
                c.msgs += 1;
                c.send_bytes += s.bytes;
            }
            _ => {}
        }
    }
    if [c.read_bytes, c.read_seeks, c.msgs, c.send_bytes]
        .iter()
        .any(|v| v % k != 0)
    {
        return Err(format!(
            "campaign counts {c:?} are not a whole multiple of {k} cycles"
        ));
    }
    c.read_bytes /= k;
    c.read_seeks /= k;
    c.msgs /= k;
    c.send_bytes /= k;
    Ok((lat, c))
}

fn run_campaign(
    wl: &Workload,
    cfg: &CampaignConfig,
    st: &Stores,
) -> Result<CampaignReport, String> {
    let ckpt = st
        .fresh_ckpt()
        .map_err(|e| format!("checkpoint dir: {e}"))?;
    let ctx = CampaignCtx {
        tenant: None,
        backoff: BackoffClock::Wall,
        ckpt_mode: wl.mode,
        health: None,
    };
    let rep = run_campaign_ctx(&st.work, &ckpt, &wl.exec, cfg, &FaultConfig::none(), &ctx)
        .map_err(|e| format!("run_campaign_ctx: {e}"))?;
    if !rep.recoveries.is_empty() || rep.degraded {
        return Err(format!(
            "fault-free campaign recovered {} times (degraded: {})",
            rep.recoveries.len(),
            rep.degraded
        ));
    }
    Ok(rep)
}

/// What one traced cycle measured.
#[derive(Debug, Clone, Copy, Default)]
struct CycleRow {
    forecast: f64,
    write: f64,
    write_bytes: u64,
    analysis: f64,
    ckpt_save: f64,
    ckpt_exposed: f64,
    cycle: f64,
    read_s: f64,
    send_s: f64,
    compute_s: f64,
    wait_s: f64,
    counts: Counts,
}

impl CycleRow {
    fn residual(&self) -> f64 {
        self.cycle - self.forecast - self.write - self.analysis - self.ckpt_exposed
    }
}

/// Fold one executor trace into a cycle row.
fn fold_exec_trace(row: &mut CycleRow, trace: &Trace) {
    for s in trace.spans() {
        match s.op {
            Op::Read => {
                row.read_s += s.dur;
                row.counts.read_bytes += s.bytes;
                row.counts.read_seeks += s.seeks;
            }
            Op::Send => {
                row.send_s += s.dur;
                row.counts.msgs += 1;
                row.counts.send_bytes += s.bytes;
            }
            Op::Compute => row.compute_s += s.dur,
            Op::Wait if s.role == Role::Compute => row.wait_s += s.dur,
            _ => {}
        }
    }
}

fn run_exec(
    exec: &CampaignExecutor,
    setup: &AssimilationSetup<'_>,
) -> Result<(Ensemble, Trace), String> {
    let res = match *exec {
        CampaignExecutor::SEnkf(p) => SEnkf::new(p).run_traced(setup),
        CampaignExecutor::PEnkf { nsdx, nsdy } => PEnkf { nsdx, nsdy }.run_traced(setup),
        other => return Err(format!("executor {other:?} is not benchmarked")),
    };
    res.map(|(a, _, t)| (a, t))
        .map_err(|e| format!("run_traced: {e}"))
}

/// The inputs and output of one traced cycle, kept for the serial baseline.
struct CycleIo {
    background: Ensemble,
    observations: Observations,
    analysis: Ensemble,
}

/// What one traced campaign produced.
struct TracedCampaign {
    rows: Vec<CycleRow>,
    analysis: Ensemble,
    stats: Vec<CycleStats>,
    ios: Vec<CycleIo>,
}

/// One campaign driven through the layers' public calls, timed from
/// outside. Mirrors the supervisor: initial commit, then per cycle
/// forecast → inflate → write members → executor → checkpoint.
fn traced_campaign(
    wl: &Workload,
    cfg: &CampaignConfig,
    st: &Stores,
    spans: &mut Spans,
    keep_io: bool,
    first_id: u64,
) -> Result<TracedCampaign, String> {
    let ckpt = st
        .fresh_ckpt()
        .map_err(|e| format!("checkpoint dir: {e}"))?;
    let fp = cfg.fingerprint(&wl.exec);
    let mut exp = CycledExperiment::new(cfg.mesh, cfg.members, cfg.cycle, cfg.seed);
    let mut stats: Vec<CycleStats> = Vec::new();
    let mut rows: Vec<CycleRow> = Vec::new();
    let mut ios: Vec<CycleIo> = Vec::new();
    let snapshot = |exp: &CycledExperiment, stats: &[CycleStats]| {
        let s = exp.snapshot();
        CampaignCheckpoint {
            cycle: s.cycle,
            seed: cfg.seed,
            members0: cfg.members,
            rng_cursor: s.rng_cursor,
            config_fp: fp,
            truth: s.truth,
            analysis: s.background,
            free_run: s.free_run,
            stats: stats.to_vec(),
            cycle_digests: Vec::new(),
        }
    };
    let epoch = Instant::now();
    let mut sup = RankTracer::new(wl.exec.num_ranks(), epoch);
    sup.set_role(Role::Io);
    let mut ck_spans: Vec<Span> = Vec::new();
    let pipelined = wl.mode == CkptMode::Pipelined;
    std::thread::scope(|scope| -> Result<(), String> {
        let writer = pipelined.then(|| AsyncCheckpointer::spawn(scope, &ckpt, sup.fork()));
        let io_err = |e: std::io::Error| format!("checkpoint save: {e}");
        spans
            .time("ckpt", "initial commit", first_id, || {
                ckpt.save(&snapshot(&exp, &stats), Some(&mut sup))
            })
            .0
            .map_err(io_err)?;
        for c in 0..wl.cycles {
            let id = first_id + c as u64;
            let mut row = CycleRow::default();
            let mut exec_err: Option<String> = None;
            let mut io_keep: Option<CycleIo> = None;
            let t_cycle = Instant::now();
            let res = exp.run_cycle(|bg, obs| {
                row.forecast = t_cycle.elapsed().as_secs_f64();
                spans.record("data", "forecast+observe", id, t_cycle, row.forecast);
                let bg = inflated(bg, cfg.inflation);
                let w0 = st.work.stats().bytes_written;
                let (w, dt) = spans.time("data", "write_ensemble", id, || {
                    write_ensemble(&st.work, &bg)
                });
                row.write = dt;
                row.write_bytes = st.work.stats().bytes_written - w0;
                if let Err(e) = w {
                    exec_err = Some(format!("write_ensemble: {e}"));
                    return Err(());
                }
                let setup = AssimilationSetup {
                    store: &st.work,
                    members: bg.size(),
                    observations: obs,
                    analysis: cfg.analysis,
                };
                let (r, dt) = spans.time("exec", "run_traced", id, || run_exec(&wl.exec, &setup));
                row.analysis = dt;
                match r {
                    Ok((analysis, trace)) => {
                        fold_exec_trace(&mut row, &trace);
                        if keep_io {
                            io_keep = Some(CycleIo {
                                background: bg.clone(),
                                observations: obs.clone(),
                                analysis: analysis.clone(),
                            });
                        }
                        Ok(analysis)
                    }
                    Err(e) => {
                        exec_err = Some(e);
                        Err(())
                    }
                }
            });
            match res {
                Ok(s) => stats.push(s),
                Err(()) => return Err(exec_err.unwrap_or_else(|| "cycle failed".into())),
            }
            let snap = snapshot(&exp, &stats);
            let t_ck = Instant::now();
            let saved = match &writer {
                Some(w) => w.save_async(snap),
                None => ckpt.save(&snap, Some(&mut sup)),
            };
            row.ckpt_exposed = t_ck.elapsed().as_secs_f64();
            spans.record("ckpt", "save (critical path)", id, t_ck, row.ckpt_exposed);
            saved.map_err(io_err)?;
            row.cycle = t_cycle.elapsed().as_secs_f64();
            spans.record("campaign", "cycle", id, t_cycle, row.cycle);
            rows.push(row);
            ios.extend(io_keep);
        }
        if let Some(w) = &writer {
            let t_drain = Instant::now();
            let (s, res) = w.drain();
            spans.record(
                "ckpt",
                "final drain",
                first_id,
                t_drain,
                t_drain.elapsed().as_secs_f64(),
            );
            res.map_err(io_err)?;
            ck_spans.extend(s);
        }
        Ok(())
    })?;
    // Checkpoint write time and payload per save from the Ckpt spans
    // (synchronous saves trace on `sup`, pipelined ones on the writer).
    ck_spans.extend(sup.into_spans());
    let saves = ckpt_saves(&ck_spans);
    if saves.len() != wl.cycles + 1 {
        return Err(format!("traced campaign recorded {} saves", saves.len()));
    }
    for (row, save) in rows.iter_mut().zip(saves.iter().skip(1)) {
        row.ckpt_save = save.busy;
        row.counts.ckpt_bytes = save.bytes;
    }
    Ok(TracedCampaign {
        rows,
        analysis: exp.background().clone(),
        stats,
        ios,
    })
}

/// GEMM throughput at the local-box shapes of the point-wise analysis:
/// the `Xᵀ·X` normal equations of the modified-Cholesky regressions
/// (`N × p`, `p` = predecessors in a full box) and the `nbar × nbar`
/// products of the inverse-covariance assembly.
fn gemm_gflops(wl: &Workload) -> f64 {
    let r = wl.radius;
    let side = 2 * r + 1;
    let nbar = side * side;
    let p = side * r + r;
    let n = wl.members;
    let x = Matrix::from_fn(n, p, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
    let a = Matrix::from_fn(nbar, nbar, |i, j| ((i * 5 + j) % 13) as f64 * 0.05);
    let flops_per = (2 * p * p * n + 2 * nbar * nbar * nbar) as f64;
    let mut reps = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.25 {
        for _ in 0..64 {
            std::hint::black_box(x.tr_matmul(&x).expect("shapes agree"));
            std::hint::black_box(a.matmul(&a).expect("shapes agree"));
        }
        reps += 64;
    }
    flops_per * reps as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Run the workload and print its record and result line.
pub fn run(wl: &Workload, args: &util::Args, out_dir: &Path, work_dir: &Path) {
    let cfg = wl.campaign(args.seed);
    let llc = util::llc_bytes();
    println!(
        "# workload {{\"name\": \"{}\", \"kind\": \"real threaded path, wall clock\", \
         \"mesh\": \"{}x{}\", \"members\": {}, \"obs_stride\": {}, \"radius\": {}, \
         \"executor\": \"{:?}\", \"ckpt_mode\": \"{:?}\", \"cycles_per_campaign\": {}, \
         \"state_bytes\": {}, \"state_vs_llc\": {:.4}, \"analysis_points\": {}}}",
        wl.name,
        wl.mesh().nx(),
        wl.mesh().ny(),
        wl.members,
        wl.obs_stride,
        wl.radius,
        wl.exec,
        wl.mode,
        wl.cycles,
        wl.state_bytes(),
        wl.state_bytes() as f64 / llc.max(1) as f64,
        wl.mesh().n()
    );

    let mut failed: Vec<String> = Vec::new();
    let mut setups = Vec::new();
    let mut stores = None;
    for _ in 0..7 {
        let t0 = Instant::now();
        let st = setup(wl, &cfg, work_dir).unwrap_or_else(|e| {
            eprintln!("perfbench: set-up of {}: {e}", wl.name);
            std::process::exit(1);
        });
        setups.push(t0.elapsed().as_secs_f64());
        stores = Some(st);
    }
    let st = stores.expect("set-up ran");
    let mut spans = Spans::new();
    let mut metrics = Metrics::default();
    let mut attempted = 0u64;

    // One unmeasured campaign first, so thread start-up, file handles and
    // the page cache are warm before timing; its outputs are still checked.
    let warm = run_campaign(wl, &cfg, &st);
    if let Err(e) = &warm {
        failed.push(format!("warm-up campaign: {e}"));
    }

    if !args.trace {
        let mut lat = Vec::new();
        let mut finals: Vec<(Ensemble, Vec<CycleStats>)> = warm
            .into_iter()
            .map(|r| (r.final_analysis, r.stats))
            .collect();
        let mut counts: Option<Counts> = None;
        let (cpu0, _) = util::rusage();
        let t_start = Instant::now();
        while t_start.elapsed().as_secs_f64() < args.seconds {
            let id = attempted;
            attempted += wl.cycles as u64;
            let (rep, _) = spans.time("campaign", "run_campaign_ctx", id, || {
                run_campaign(wl, &cfg, &st)
            });
            let outcome = rep.and_then(|rep| {
                let (l, c) = campaign_cycles(wl, &rep)?;
                match counts {
                    Some(prev) if prev != c => {
                        return Err(format!(
                            "counts changed between campaigns: {prev:?} vs {c:?}"
                        ))
                    }
                    _ => counts = Some(c),
                }
                Ok((l, rep))
            });
            match outcome {
                Ok((l, rep)) => {
                    lat.extend(l);
                    finals.push((rep.final_analysis, rep.stats));
                }
                Err(e) => failed.push(e),
            }
        }
        let wall = t_start.elapsed().as_secs_f64();
        let cpu = util::cpu_since(cpu0);
        // Output checks (outside the measured window).
        match serial_replay(wl, &cfg) {
            Ok(reference) => {
                for (i, (a, s)) in finals.iter().enumerate() {
                    if let Err(e) = check_outputs(&format!("campaign {i}"), a, s, &reference) {
                        failed.push(e);
                    }
                }
            }
            Err(e) => failed.push(e),
        }
        let (_, rss) = util::rusage();
        if lat.is_empty() {
            lat.push(wall);
        }
        let c = counts.unwrap_or_default();
        println!(
            "# counts per cycle (exact, asserted equal across campaigns): read_bytes={} \
             read_seeks={} msgs={} send_bytes={} ckpt_bytes={}",
            c.read_bytes, c.read_seeks, c.msgs, c.send_bytes, c.ckpt_bytes
        );
        util::put_latency(&mut metrics, &lat, "cycle_p90_s");
        metrics.put("ops_per_s", attempted as f64 / wall, "1/s");
        metrics.put("cpu_s_per_op", cpu / attempted as f64, "s");
        metrics.put("setup_s", util::median(&setups), "s");
        metrics.put("rss_peak_mb", rss, "MB");
        println!(
            "# {}: {} cycles in {} campaigns over {wall:.3} s ({} latency samples)",
            wl.name,
            attempted,
            attempted / wl.cycles as u64,
            lat.len(),
        );
    } else {
        traced(
            wl,
            &cfg,
            &st,
            args,
            &mut spans,
            &mut metrics,
            &mut failed,
            &mut attempted,
            out_dir,
        );
    }
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        wl.name, args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, spans.to_chrome_json()) {
        failed.push(format!("writing {}: {e}", path.display()));
    }
    // A failed check spoils every cycle of its campaign.
    let failed_ops = failed.len() as u64 * wl.cycles as u64;
    let aliases = [
        ("cycle_p50_s", "latency_p50_s"),
        ("cycle_p75_s", "latency_p75_s"),
        ("cycles_per_s", "ops_per_s"),
    ];
    util::finish(
        args.trace, attempted, failed_ops, &failed, &aliases, metrics,
    );
}

/// The traced run: an untraced campaign for the baseline cycle time, then
/// traced campaigns until the time is up, then the serial baseline and a
/// GEMM probe on the same shapes.
#[allow(clippy::too_many_arguments)]
fn traced(
    wl: &Workload,
    cfg: &CampaignConfig,
    st: &Stores,
    args: &util::Args,
    spans: &mut Spans,
    metrics: &mut Metrics,
    failed: &mut Vec<String>,
    attempted: &mut u64,
    out_dir: &Path,
) {
    let untraced = run_campaign(wl, cfg, st).and_then(|rep| {
        let (lat, _) = campaign_cycles(wl, &rep)?;
        Ok((util::median(&lat), rep))
    });
    let (cpu0, _) = util::rusage();
    let t_start = Instant::now();
    let mut rows: Vec<CycleRow> = Vec::new();
    let mut ios: Vec<CycleIo> = Vec::new();
    let mut last: Option<(Ensemble, Vec<CycleStats>)> = None;
    while rows.is_empty() || t_start.elapsed().as_secs_f64() < args.seconds {
        let first = rows.is_empty();
        let id = *attempted;
        *attempted += wl.cycles as u64;
        match traced_campaign(wl, cfg, st, spans, first, id) {
            Ok(tc) => {
                if let Some((pa, ps)) = &last {
                    if !bits_equal(pa, &tc.analysis) || ps != &tc.stats {
                        failed.push("traced campaigns disagree with each other".into());
                    }
                }
                rows.extend(tc.rows);
                ios.extend(tc.ios);
                last = Some((tc.analysis, tc.stats));
            }
            Err(e) => {
                failed.push(e);
                break;
            }
        }
    }
    let wall = t_start.elapsed().as_secs_f64();
    let cpu = util::cpu_since(cpu0);

    // Single-rank baseline on the very inputs the executor saw, which is
    // also a per-cycle bitwise check of the executor's analysis.
    let mut serial = Vec::new();
    for (c, io) in ios.iter().enumerate() {
        let (a, dt) = spans.time("core", "serial_enkf", c as u64, || {
            serial_enkf(&io.background, &io.observations, wl.radius())
        });
        serial.push(dt);
        match a {
            Ok(a) if bits_equal(&a, &io.analysis) => {}
            Ok(_) => failed.push(format!(
                "cycle {c}: executor analysis differs from serial_enkf"
            )),
            Err(e) => failed.push(format!("cycle {c}: serial_enkf: {e}")),
        }
    }
    let (gflops, _) = spans.time("linalg", "gemm probe", 0, || gemm_gflops(wl));
    match (&untraced, &last) {
        (Ok((_, rep)), Some(traced)) => {
            if let Err(e) = check_outputs("campaign", &rep.final_analysis, &rep.stats, traced) {
                failed.push(e);
            }
        }
        (Err(e), _) => failed.push(e.clone()),
        _ => {}
    }
    if let Some(r) = rows.first() {
        if rows.iter().any(|x| x.counts != r.counts) {
            failed.push("per-cycle counts differ between cycles".into());
        }
    }
    if rows.is_empty() {
        rows.push(CycleRow::default());
    }
    if serial.is_empty() {
        serial.push(0.0);
    }

    // Per-cycle table: the layer times plus the residual are the cycle.
    let mut table = String::from(
        "cycle\tforecast_s\twrite_ensemble_s\tanalysis_s\tckpt_exposed_s\tresidual_s\tcycle_s\n",
    );
    for (c, r) in rows.iter().enumerate() {
        table.push_str(&format!(
            "{c}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\n",
            r.forecast,
            r.write,
            r.analysis,
            r.ckpt_exposed,
            r.residual(),
            r.cycle
        ));
    }
    println!("# per-cycle table (layer times + residual = cycle time), first campaign:");
    for line in table.lines().take(wl.cycles + 1) {
        println!("#   {line}");
    }
    let tsv = out_dir.join(format!("{}-seed{}-cycles.tsv", wl.name, args.seed));
    if let Err(e) = std::fs::write(&tsv, &table) {
        failed.push(format!("writing {}: {e}", tsv.display()));
    }

    let med = |f: &dyn Fn(&CycleRow) -> f64| util::median(&rows.iter().map(f).collect::<Vec<_>>());
    let c = rows[0].counts;
    let cycle_p50 = med(&|r| r.cycle);
    let analysis = med(&|r| r.analysis);
    let read_s = med(&|r| r.read_s);
    let compute_s = med(&|r| r.compute_s);
    let serial_s = util::median(&serial);
    crate::put_bypassed(metrics, crate::MODEL_LAYER);
    metrics.put("data.forecast_s", med(&|r| r.forecast), "s");
    metrics.put("data.write_ensemble_s", med(&|r| r.write), "s");
    metrics.put("data.write_bytes", rows[0].write_bytes as f64, "B");
    metrics.put("pfs.read_s", read_s, "s");
    metrics.put("pfs.read_bytes", c.read_bytes as f64, "B");
    metrics.put("pfs.read_seeks", c.read_seeks as f64, "count");
    metrics.put(
        "pfs.read_gbps",
        if read_s > 0.0 {
            c.read_bytes as f64 / read_s / 1e9
        } else {
            0.0
        },
        "GB/s",
    );
    metrics.put("net.send_s", med(&|r| r.send_s), "s");
    metrics.put("net.msgs", c.msgs as f64, "count");
    metrics.put("net.send_bytes", c.send_bytes as f64, "B");
    metrics.put("core.compute_s", compute_s, "s");
    metrics.put(
        "core.us_per_point",
        compute_s / wl.mesh().n() as f64 * 1e6,
        "us",
    );
    metrics.put("core.serial_enkf_s", serial_s, "s");
    metrics.put("linalg.gemm_gflops", gflops, "GF/s");
    metrics.put("exec.analysis_s", analysis, "s");
    metrics.put("exec.wait_s", med(&|r| r.wait_s), "s");
    metrics.put(
        "exec.speedup_vs_serial",
        if analysis > 0.0 {
            serial_s / analysis
        } else {
            0.0
        },
        "x",
    );
    metrics.put("ckpt.save_s", med(&|r| r.ckpt_save), "s");
    metrics.put("ckpt.exposed_s", med(&|r| r.ckpt_exposed), "s");
    metrics.put("ckpt.bytes", c.ckpt_bytes as f64, "B");
    metrics.put("campaign.cycle_s", cycle_p50, "s");
    metrics.put("campaign.residual_s", med(&|r| r.residual()), "s");
    metrics.put(
        "trace.overhead_s",
        untraced.as_ref().map_or(0.0, |(p50, _)| cycle_p50 - p50),
        "s",
    );
    metrics.put(
        "proc.cpu_util",
        cpu / (wall * util::nproc() as f64),
        "ratio",
    );
    println!(
        "# {}: {} traced cycles; pfs/data rates are page-cache rates (files live in the \
         checkout, reads hit the OS page cache)",
        wl.name,
        rows.len()
    );
}
