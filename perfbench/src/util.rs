//! Shared plumbing: command line, order statistics, process accounting,
//! the counting allocator, the host record and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} needs a value"))
        };
        let workload = get("--workload")?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Median of a sample (mean of the two middle values when even).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Process user + system CPU seconds (all threads) and peak RSS in MiB.
pub fn rusage() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `Rusage` mirrors the C `struct rusage` layout on 64-bit
    // Linux (two timevals then fourteen longs); RUSAGE_SELF = 0.
    let ru = unsafe {
        assert_eq!(getrusage(0, ru.as_mut_ptr()), 0, "getrusage failed");
        ru.assume_init()
    };
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    (t(&ru.utime) + t(&ru.stime), ru.maxrss as f64 / 1024.0)
}

/// Process CPU seconds since an earlier [`rusage`] reading.
pub fn cpu_since(cpu0: f64) -> f64 {
    rusage().0 - cpu0
}

/// Global allocator that counts allocation calls, so the DES layer's
/// allocations per span are measured exactly.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every operation to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation calls made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Layer spans recorded by the benchmark around the public calls it makes,
/// exported as Chrome-trace JSON.
pub struct Spans {
    epoch: Instant,
    events: Vec<(String, &'static str, f64, f64, u64)>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Time `f`, record it as span `name` of layer `cat` belonging to
    /// request/cycle `id`, and return its result and duration.
    pub fn time<T>(
        &mut self,
        cat: &'static str,
        name: &str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let dur = t0.elapsed().as_secs_f64();
        self.record(cat, name, id, t0, dur);
        (out, dur)
    }

    /// Record an already measured span that started at `start`.
    pub fn record(&mut self, cat: &'static str, name: &str, id: u64, start: Instant, dur: f64) {
        let ts = start.duration_since(self.epoch).as_secs_f64();
        self.events.push((name.to_string(), cat, ts, dur, id));
    }

    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, (name, cat, ts, dur, id)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"id\":{id}}}}}",
                ts * 1e6,
                dur * 1e6
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }
}

/// One reported metric.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric set printed in the result line.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, Metric { value, unit });
    }

    /// Aligned human-readable table (stdout, before the result line).
    pub fn print_table(&self, kind: &str) {
        println!("# {kind} metrics");
        for (name, m) in &self.0 {
            println!(
                "#   {name:<24} {:>16} {}",
                format!("{:.6}", m.value),
                m.unit
            );
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_f64(m.value),
                m.unit
            )
            .expect("write to String");
        }
        out.push('}');
        out
    }
}

/// Full-precision JSON number.
pub fn json_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Put the latency metrics of one run: the median and the 75th percentile.
/// A real-workload run holds at least 60 cycles, so at least ten lie
/// beyond the 75th percentile. The 90th percentile is printed for reading, with its
/// sample count, but is not a metric: with only a few samples beyond it,
/// it does not repeat from run to run.
pub fn put_latency(m: &mut Metrics, lat: &[f64], p90_name: &str) {
    m.put("latency_p50_s", median(lat), "s");
    m.put("latency_p75_s", quantile(lat, 0.75), "s");
    println!(
        "# {p90_name} = {:.6} s ({} samples)",
        quantile(lat, 0.9),
        lat.len()
    );
}

/// Print the metric table and, as the last line of standard output, the
/// result. `failed_ops` is how many of the `attempted` operations the
/// `failures` cost; the end-to-end set gets `success_rate` from them.
/// `aliases` names end-to-end metrics as the workload's users know them
/// (`cycle_p50_s` for `latency_p50_s`, …) on the readable lines.
pub fn finish(
    trace: bool,
    attempted: u64,
    failed_ops: u64,
    failures: &[String],
    aliases: &[(&str, &str)],
    mut metrics: Metrics,
) {
    let attempted = attempted.max(1);
    let failed_ops = failed_ops.min(attempted);
    if !trace {
        metrics.put(
            "success_rate",
            (attempted - failed_ops) as f64 / attempted as f64,
            "ratio",
        );
    }
    println!(
        "# error_rate = {} ({failed_ops} of {attempted} operations failed)",
        failed_ops as f64 / attempted as f64
    );
    metrics.print_table(if trace { "per-layer" } else { "end-to-end" });
    if !trace {
        for (alias, name) in aliases {
            let m = &metrics.0[name];
            println!(
                "#   {alias:<24} {:>16} {} (= {name})",
                format!("{:.6}", m.value),
                m.unit
            );
        }
    }
    for f in failures {
        println!("# FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed_ops}, \"metrics\": {}}}",
        failures.is_empty(),
        metrics.to_json()
    );
}

/// Host facts every result is recorded against.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc = llc_bytes();
    let rustc = option_env!("PERFBENCH_RUSTC").unwrap_or("unknown");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"isa\": \"{}\", \"fma_active\": {}, \"llc_bytes\": {llc}, \
         \"rustc\": \"{rustc}\", \"profile\": \"{profile}\"}}",
        enkf_linalg::kernel::active_isa().name(),
        enkf_linalg::kernel::fma_active()
    )
}

/// Logical cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the largest CPU cache in bytes, from CPUID's deterministic
/// cache parameters (0 when the CPU does not report them).
pub fn llc_bytes() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        #[allow(unused_unsafe)]
        // SAFETY: CPUID is available on every x86_64 CPU; leaves beyond
        // the reported maximum are never queried.
        let leaf = |l: u32, s: u32| unsafe { __cpuid_count(l, s) };
        #[allow(unused_unsafe)]
        // SAFETY: as above.
        let max_std = unsafe { __cpuid(0) }.eax;
        #[allow(unused_unsafe)]
        // SAFETY: as above.
        let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
        let mut best = 0u64;
        for l in [4u32, 0x8000_001D] {
            let max = if l < 0x8000_0000 { max_std } else { max_ext };
            if l > max {
                continue;
            }
            for sub in 0..16 {
                let r = leaf(l, sub);
                if r.eax & 0x1f == 0 {
                    break;
                }
                let ways = ((r.ebx >> 22) & 0x3ff) as u64 + 1;
                let parts = ((r.ebx >> 12) & 0x3ff) as u64 + 1;
                let line = (r.ebx & 0xfff) as u64 + 1;
                let sets = r.ecx as u64 + 1;
                best = best.max(ways * parts * line * sets);
            }
            if best > 0 {
                break;
            }
        }
        best
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// SplitMix64: the benchmark's own seeded stream for shuffling inputs.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
