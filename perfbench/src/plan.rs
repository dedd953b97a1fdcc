//! `plan_paper`: seeded capacity-planning requests at the paper geometry.
//!
//! One request is what SLA admission does for a campaign: `autotune` at a
//! processor count `n_p`, then `DesPlanner::price` of the campaign for one
//! executor variant. Everything runs on the modeled path (tuning, the DES,
//! the planner); no file or rank thread is touched.

use crate::util::{self, Metrics, Spans};
use enkf_core::LocalAnalysis;
use enkf_data::CycleConfig;
use enkf_fault::{FaultConfig, RetryPolicy};
use enkf_grid::{LocalizationRadius, Mesh};
use enkf_parallel::{
    model_lenkf_traced, model_penkf_traced, model_senkf_traced, CampaignConfig, CampaignExecutor,
    CkptMode, ModelConfig, ModelVariant,
};
use enkf_sched::{DesPlanner, JobModel, JobSpec, StepCost};
use enkf_trace::Trace;
use enkf_tuning::{autotune, Params};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Economic-choice threshold handed to the auto-tuner (the value the
/// strong-scaling figures use).
const EPSILON: f64 = 2e-2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    S,
    P,
    L,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::S => "senkf",
            Variant::P => "penkf",
            Variant::L => "lenkf",
        }
    }
}

/// One capacity-planning request.
#[derive(Debug, Clone, Copy)]
struct Request {
    np: usize,
    nsdx: usize,
    nsdy: usize,
    variant: Variant,
}

/// What the DES answers for a request. The DES is deterministic, so these
/// are pinned: any drift is a correctness failure, not noise.
struct Pinned {
    np: usize,
    variant: Variant,
    tuned: Params,
    cycle_bits: u64,
    init_bits: u64,
}

/// `(n_p, variant) → (tuned params, StepCost bits)`, recorded from this
/// code at the commit that introduced the benchmark.
const PINNED: &[Pinned] = &[
    Pinned {
        np: 2000,
        variant: Variant::P,
        tuned: Params {
            nsdx: 240,
            nsdy: 8,
            layers: 45,
            ncg: 10,
        },
        cycle_bits: 0x4088e2a0b1bbcead,
        init_bits: 0x4034c28f5c28f5c0,
    },
    Pinned {
        np: 2000,
        variant: Variant::L,
        tuned: Params {
            nsdx: 240,
            nsdy: 8,
            layers: 45,
            ncg: 10,
        },
        cycle_bits: 0x40a0069b8cb8be1b,
        init_bits: 0x4034c28f5c28f500,
    },
    Pinned {
        np: 4000,
        variant: Variant::S,
        tuned: Params {
            nsdx: 150,
            nsdy: 25,
            layers: 18,
            ncg: 5,
        },
        cycle_bits: 0x4075d46e64f58c82,
        init_bits: 0x4044c1462af020e0,
    },
    Pinned {
        np: 4000,
        variant: Variant::P,
        tuned: Params {
            nsdx: 150,
            nsdy: 25,
            layers: 18,
            ncg: 5,
        },
        cycle_bits: 0x4081dd7a99235404,
        init_bits: 0x4034c28f5c28f5c0,
    },
    Pinned {
        np: 6000,
        variant: Variant::P,
        tuned: Params {
            nsdx: 720,
            nsdy: 8,
            layers: 45,
            ncg: 10,
        },
        cycle_bits: 0x407d8f26f89251cd,
        init_bits: 0x4034c28f5c28f5a0,
    },
    Pinned {
        np: 6000,
        variant: Variant::L,
        tuned: Params {
            nsdx: 720,
            nsdy: 8,
            layers: 45,
            ncg: 10,
        },
        cycle_bits: 0x409bdf0fcf805a7d,
        init_bits: 0x4034c28f5c291380,
    },
    Pinned {
        np: 8000,
        variant: Variant::P,
        tuned: Params {
            nsdx: 300,
            nsdy: 25,
            layers: 18,
            ncg: 5,
        },
        cycle_bits: 0x40788de405ce732f,
        init_bits: 0x4034c28f5c28f5a0,
    },
    Pinned {
        np: 10000,
        variant: Variant::P,
        tuned: Params {
            nsdx: 400,
            nsdy: 24,
            layers: 15,
            ncg: 6,
        },
        cycle_bits: 0x4079516f4029ac74,
        init_bits: 0x4034c28f5c28f5c0,
    },
    Pinned {
        np: 10000,
        variant: Variant::L,
        tuned: Params {
            nsdx: 400,
            nsdy: 24,
            layers: 15,
            ncg: 6,
        },
        cycle_bits: 0x409cfb26aebfd7ce,
        init_bits: 0x4034c28f5c291400,
    },
    Pinned {
        np: 12000,
        variant: Variant::P,
        tuned: Params {
            nsdx: 450,
            nsdy: 25,
            layers: 18,
            ncg: 5,
        },
        cycle_bits: 0x407ac1c941fdd116,
        init_bits: 0x4034c28f5c28f5c0,
    },
];

/// The request deck as `(n_p, variant)`. P-EnKF is priced at every paper
/// scaling point, L-EnKF at every other one, and S-EnKF at n_p = 4000 with
/// pipelined checkpoints: one S-EnKF price costs 2.5–17 s of wall time at
/// this geometry, so more of them would leave too few requests in a run.
/// One deck takes about 18 s on a 2-core host.
const DECK: [(usize, Variant); 10] = [
    (2000, Variant::P),
    (4000, Variant::P),
    (6000, Variant::P),
    (8000, Variant::P),
    (10000, Variant::P),
    (12000, Variant::P),
    (2000, Variant::L),
    (6000, Variant::L),
    (10000, Variant::L),
    (4000, Variant::S),
];

/// The request deck in a seeded order. Each run measures whole decks, so
/// every seed times the same multiset of requests and only their order
/// (and so cache and allocator state) moves.
fn deck(seed: u64) -> Vec<Request> {
    let points = enkf_bench::paper_scaling_points();
    let mut reqs: Vec<Request> = DECK
        .iter()
        .map(|&(np, variant)| {
            let &(_, nsdx, nsdy) = points
                .iter()
                .find(|p| p.0 == np)
                .expect("deck n_p is a paper scaling point");
            Request {
                np,
                nsdx,
                nsdy,
                variant,
            }
        })
        .collect();
    let mut rng = util::SplitMix(seed ^ 0x706c_616e);
    for i in (1..reqs.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        reqs.swap(i, j);
    }
    reqs
}

/// The job spec SLA admission would price for `req` once tuned.
fn job_spec(cfg: &ModelConfig, req: &Request, tuned: Params) -> JobSpec {
    let (exec, variant, mode) = match req.variant {
        // The co-designed variant commits checkpoints behind the next
        // cycle; the baselines commit synchronously.
        Variant::S => (
            CampaignExecutor::SEnkf(tuned),
            ModelVariant::SEnkf(tuned),
            CkptMode::Pipelined,
        ),
        Variant::P => (
            CampaignExecutor::PEnkf {
                nsdx: req.nsdx,
                nsdy: req.nsdy,
            },
            ModelVariant::PEnkf {
                nsdx: req.nsdx,
                nsdy: req.nsdy,
            },
            CkptMode::Sync,
        ),
        Variant::L => (
            CampaignExecutor::LEnkf {
                nsdx: req.nsdx,
                nsdy: req.nsdy,
            },
            ModelVariant::LEnkf {
                nsdx: req.nsdx,
                nsdy: req.nsdy,
            },
            CkptMode::Sync,
        ),
    };
    let w = cfg.workload;
    let campaign = CampaignConfig {
        mesh: Mesh::new(w.nx, w.ny),
        cycles: 10,
        members: w.members,
        cycle: CycleConfig::default(),
        seed: 0,
        analysis: LocalAnalysis::new(LocalizationRadius {
            xi: w.xi,
            eta: w.eta,
        }),
        inflation: 1.0,
        restart: RetryPolicy::default(),
    };
    let mut spec = JobSpec::best_effort(exec, campaign);
    spec.ckpt_mode = mode;
    spec.fault = FaultConfig::none();
    spec.model = Some(JobModel {
        cfg: *cfg,
        variant,
        checkpoint: true,
    });
    spec
}

/// Serve one request: tune, then price. Returns the tuned parameters, the
/// price, and the two call durations.
fn serve(
    cfg: &ModelConfig,
    req: &Request,
    spans: &mut Spans,
    id: u64,
) -> Result<(Params, StepCost, f64, f64), String> {
    let (tuned, t_tune) = spans.time("tuning", "autotune", id, || {
        autotune(&cfg.cost_params(), req.np, EPSILON)
    });
    let tuned = tuned
        .ok_or_else(|| format!("autotune found no parameters at n_p={}", req.np))?
        .params;
    let spec = job_spec(cfg, req, tuned);
    let (price, t_price) = spans.time("sched", "DesPlanner::price", id, || {
        catch_unwind(AssertUnwindSafe(|| DesPlanner::price(&spec, 1.0)))
    });
    let price = price.map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("DesPlanner::price panicked: {msg}")
    })?;
    Ok((tuned, price, t_tune, t_price))
}

/// Check a served request against the pinned answer.
fn check(req: &Request, tuned: Params, price: StepCost) -> Result<(), String> {
    let Some(pin) = PINNED
        .iter()
        .find(|p| p.np == req.np && p.variant == req.variant)
    else {
        return Err(format!(
            "no pinned answer for n_p={} {}: tuned={tuned:?} cycle_bits={:#x} init_bits={:#x}",
            req.np,
            req.variant.name(),
            price.cycle.to_bits(),
            price.init.to_bits()
        ));
    };
    if pin.tuned != tuned
        || pin.cycle_bits != price.cycle.to_bits()
        || pin.init_bits != price.init.to_bits()
    {
        return Err(format!(
            "n_p={} {}: got tuned={tuned:?} cycle={} init={}, pinned tuned={:?} cycle={} init={}",
            req.np,
            req.variant.name(),
            price.cycle,
            price.init,
            pin.tuned,
            f64::from_bits(pin.cycle_bits),
            f64::from_bits(pin.init_bits)
        ));
    }
    Ok(())
}

/// The request's single-cycle DES, traced — the simulator work `price`
/// performs twice (one- and two-cycle campaign models share it).
fn model_cycle(cfg: &ModelConfig, req: &Request, tuned: Params) -> Result<Trace, String> {
    match req.variant {
        Variant::S => model_senkf_traced(cfg, tuned).map(|(_, t)| t),
        Variant::P => model_penkf_traced(cfg, req.nsdx, req.nsdy).map(|(_, t)| t),
        Variant::L => model_lenkf_traced(cfg, req.nsdx, req.nsdy).map(|(_, t)| t),
    }
}

/// Run the workload and print its record and result line.
pub fn run(args: &util::Args, out_dir: &std::path::Path) {
    let mut setups = Vec::new();
    let mut reqs = Vec::new();
    let mut cfg = ModelConfig::paper();
    for _ in 0..15 {
        let t0 = Instant::now();
        cfg = ModelConfig::paper();
        reqs = deck(args.seed);
        // Warm the tuner's cost model once, as a long-lived admission
        // service would have.
        std::hint::black_box(autotune(&cfg.cost_params(), DECK[0].0, EPSILON));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let w = cfg.workload;
    println!(
        "# workload {{\"name\": \"plan_paper\", \"kind\": \"model/virtual outputs, wall-clock timing\", \
         \"mesh\": \"{}x{}\", \"members\": {}, \"requests_per_deck\": {}, \"state_bytes\": {}, \
         \"working_set_vs_llc\": \"model only: no state is materialized\"}}",
        w.nx,
        w.ny,
        w.members,
        reqs.len(),
        w.nx * w.ny * w.members * 8
    );

    let mut spans = Spans::new();
    let mut failed: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut metrics = Metrics::default();
    let mut latencies = Vec::new();
    let mut tune = Vec::new();
    let mut price = Vec::new();
    let mut residual = Vec::new();
    let mut model: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut span_counts = Vec::new();
    let mut span_rates = Vec::new();
    let mut allocs_per_span = Vec::new();
    let (cpu0, _) = util::rusage();
    let t_start = Instant::now();
    // Closed loop, one client: whole decks until the time is up.
    while t_start.elapsed().as_secs_f64() < args.seconds {
        for req in &reqs {
            let id = attempted;
            attempted += 1;
            let t0 = Instant::now();
            let res = serve(&cfg, req, &mut spans, id);
            let dt = t0.elapsed().as_secs_f64();
            spans.record("plan", "request", id, t0, dt);
            let (tuned, t_tune, t_price) = match res
                .and_then(|(tuned, p, tt, tp)| check(req, tuned, p).map(|()| (tuned, tt, tp)))
            {
                Ok(v) => v,
                Err(e) => {
                    failed.push(e);
                    continue;
                }
            };
            latencies.push(dt);
            tune.push(t_tune);
            price.push(t_price);
            residual.push(dt - t_tune - t_price);
            if !args.trace {
                continue;
            }
            // The simulator on its own, from outside: one traced
            // single-cycle model with allocations counted.
            let a0 = util::allocations();
            let (trace, t_model) = spans.time("sim", req.variant.name(), id, || {
                model_cycle(&cfg, req, tuned)
            });
            let allocs = util::allocations() - a0;
            match trace {
                Ok(trace) => {
                    let n = trace.spans().len() as f64;
                    model[req.variant as usize].push(t_model);
                    span_counts.push(n);
                    span_rates.push(n / t_model);
                    allocs_per_span.push(allocs as f64 / n);
                }
                Err(e) => failed.push(format!("single-cycle model: {e}")),
            }
        }
    }
    let wall = t_start.elapsed().as_secs_f64();
    let cpu = util::cpu_since(cpu0);
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { util::median(v) };

    if !args.trace {
        let (_, rss) = util::rusage();
        if latencies.is_empty() {
            latencies.push(wall);
        }
        util::put_latency(&mut metrics, &latencies, "plan_p90_s");
        metrics.put("ops_per_s", attempted as f64 / wall, "1/s");
        metrics.put("cpu_s_per_op", cpu / attempted as f64, "s");
        metrics.put("setup_s", util::median(&setups), "s");
        metrics.put("rss_peak_mb", rss, "MB");
        println!(
            "# plan_paper: {attempted} requests over {wall:.3} s (model/virtual answers, \
             wall-clock latency)"
        );
    } else {
        // Exact counts must repeat: run the smallest P-EnKF model twice and
        // compare its spans and allocations.
        let (_, nsdx, nsdy) = enkf_bench::paper_scaling_points()[0];
        let counts: Vec<(usize, u64)> = (0..2)
            .map(|_| {
                let a0 = util::allocations();
                let n = model_penkf_traced(&cfg, nsdx, nsdy).map_or(0, |(_, t)| t.spans().len());
                (n, util::allocations() - a0)
            })
            .collect();
        if counts[0] != counts[1] {
            failed.push(format!(
                "DES counts do not repeat: {:?} vs {:?}",
                counts[0], counts[1]
            ));
        }
        crate::put_bypassed(&mut metrics, crate::REAL_LAYER);
        metrics.put("tuning.autotune_s", med(&tune), "s");
        metrics.put("sched.price_s", med(&price), "s");
        metrics.put("plan.residual_s", med(&residual), "s");
        metrics.put("model.senkf_s", med(&model[0]), "s");
        metrics.put("model.penkf_s", med(&model[1]), "s");
        metrics.put("model.lenkf_s", med(&model[2]), "s");
        metrics.put("sim.spans", med(&span_counts), "count");
        metrics.put("sim.spans_per_s", med(&span_rates), "1/s");
        metrics.put("sim.allocs_per_span", med(&allocs_per_span), "count");
        metrics.put(
            "proc.cpu_util",
            cpu / (wall * util::nproc() as f64),
            "ratio",
        );
        println!("# per-request layer table (medians): request = autotune + price + residual");
        println!(
            "#   autotune_s={:.6} price_s={:.6} residual_s={:.6}",
            med(&tune),
            med(&price),
            med(&residual)
        );
        println!("# DES outputs are model/virtual quantities; every time is wall clock");
    }
    let path = out_dir.join(format!(
        "plan_paper-seed{}-trace{}.json",
        args.seed, args.trace as u8
    ));
    if let Err(e) = std::fs::write(&path, spans.to_chrome_json()) {
        failed.push(format!("writing {}: {e}", path.display()));
    }
    let failed_ops = failed.len() as u64;
    let aliases = [
        ("plan_p50_s", "latency_p50_s"),
        ("plan_p75_s", "latency_p75_s"),
        ("requests_per_s", "ops_per_s"),
    ];
    util::finish(
        args.trace, attempted, failed_ops, &failed, &aliases, metrics,
    );
}
