//! Job-level benchmark of the FAROS pipeline.
//!
//! ```text
//! faros-perfbench --workload <corpus|long-replay|service|image-scan>
//!                 --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! With `--trace 0` the run measures jobs untraced and prints the
//! end-to-end metrics; with `--trace 1` it measures half the time untraced
//! and half through the traced mirrors (see `mirror`) and prints the
//! per-layer split. Either way it checks every output it times, prints a
//! `context` line (host, build, input properties) and then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

mod jobs;
mod mirror;
mod scan;
mod service;
mod trace;

use std::collections::BTreeMap;
use std::collections::HashSet;
use std::time::{Duration, Instant};

use faros_kernel::module::FdlImage;
use trace::Tracer;

/// Set-up runs this many times before the first pass...
const SETUP_REPS: usize = 3;
/// ...and once more after any untraced pass that ends this long after the
/// previous repetition, so the repetitions sample the whole run rather
/// than its first second. `setup_s` is their mean: the host alternates
/// between a fast and a ~1.5x slower phase for seconds at a time, and a
/// median of repetitions reports whichever phase held most of the run.
const SETUP_EVERY: Duration = Duration::from_secs(2);

/// Every per-layer metric, in output order, with its unit. Metrics a
/// workload does not exercise read 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("replay.faros_ms", "ms"),
    ("replay.observers_ms", "ms"),
    ("replay.record_ms", "ms"),
    ("replay.ingest_ms", "ms"),
    ("replay.guest_insns", "count"),
    ("replay.minsn_per_s", "Minsn/s"),
    ("replay.recording_bytes", "bytes"),
    ("emu.tc.hits", "count"),
    ("emu.tc.misses", "count"),
    ("emu.tc.elided_blocks", "count"),
    ("taint.copies", "count"),
    ("taint.fastpath.hits", "count"),
    ("plugin.faros.dispatches", "count"),
    ("plugin.block-coverage.dispatches", "count"),
    ("plugin.cfi-monitor.dispatches", "count"),
    ("plugin.capability-monitor.dispatches", "count"),
    ("analyze.cfg_ms", "ms"),
    ("analyze.dataflow_ms", "ms"),
    ("analyze.check.coverage_ms", "ms"),
    ("analyze.check.taint_ms", "ms"),
    ("analyze.check.cfi_ms", "ms"),
    ("analyze.check.caps_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("analyze.gadgets_ms", "ms"),
    ("analyze.models_ms", "ms"),
    ("analyze.images", "count"),
    ("analyze.image_repeat_share", "ratio"),
    ("analyze.code_bytes", "bytes"),
    ("analyze.code_zero_share", "ratio"),
    ("cfi.models", "count"),
    ("syscap.images", "count"),
    ("analyze.worklist.iterations", "count"),
    ("core.assemble_ms", "ms"),
    ("core.report_json_ms", "ms"),
    ("core.report_bytes", "bytes"),
    ("core.job_residual_ms", "ms"),
    ("core.verdict_errors", "count"),
    ("corpus.resolve_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.busy_share", "ratio"),
    ("service.workers_replaced", "count"),
    ("trace.job_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Option<String>,
}

/// Properties of one pass's inputs, reported with every result so a
/// change that helps only some inputs can cite the measured share.
#[derive(Debug, Default, Clone)]
pub struct Inputs {
    pub jobs_per_pass: u64,
    pub images: u64,
    pub image_repeat_share: f64,
    pub code_bytes: u64,
    pub code_zero_share: f64,
    /// Guest instructions the pass's recordings retire (static
    /// instructions in the images, for `image-scan`).
    pub guest_insns: u64,
    pub recording_bytes: u64,
}

impl Inputs {
    /// Fills the image properties from every image one pass analyzes, in
    /// pass order: a repeat is an image byte-identical to an earlier one.
    pub fn count_images<'a>(&mut self, images: impl IntoIterator<Item = &'a FdlImage>) {
        let mut seen = HashSet::new();
        let (mut n, mut repeats, mut code, mut zero) = (0u64, 0u64, 0u64, 0u64);
        for image in images {
            n += 1;
            if !seen.insert(image.to_bytes()) {
                repeats += 1;
            }
            for s in image.code_sections() {
                code += s.data.len() as u64;
                zero += s.data.iter().filter(|&&b| b == 0).count() as u64;
            }
        }
        self.images = n;
        self.image_repeat_share = ratio(repeats, n);
        self.code_bytes = code;
        self.code_zero_share = ratio(zero, code);
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every measured job, pass after pass, each pass in
    /// input order.
    pub job_ns: Vec<u64>,
    /// Measured wall time of the untraced passes, output checks excluded.
    pub wall_ns: u64,
    /// Guest instructions the measured jobs retired.
    pub guest_insns: u64,
    pub attempted: u64,
    pub failed: u64,
    pub passes: u64,
    /// Failed run-level checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub inputs: Inputs,
    /// Samples whose verdict disagrees with ground truth, per pass.
    pub verdict_errors: u64,
    /// Per-layer metrics (traced runs only); unnamed ones read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

impl Measured {
    /// Counts one job's outcome: `Err` carries why it failed.
    pub fn job(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(why);
            }
        }
    }

    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median over a pass's inputs of each input's mean latency across
/// the run's passes. Averaging an input over passes spread through the run
/// smooths the host's fast and slow phases, which a pooled median flips
/// between.
fn median_input_ns(m: &Measured) -> f64 {
    let n = (m.inputs.jobs_per_pass as usize).max(1);
    let mut sums = vec![0u64; n];
    let mut counts = vec![0u64; n];
    for (i, &ns) in m.job_ns.iter().enumerate() {
        sums[i % n] += ns;
        counts[i % n] += 1;
    }
    let means: Vec<f64> =
        sums.iter().zip(&counts).map(|(&s, &c)| s as f64 / c.max(1) as f64).collect();
    median(&means)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs one set-up repetition, recording its wall time.
pub fn setup_rep<T>(m: &mut Measured, f: &mut impl FnMut() -> T) -> T {
    let start = Instant::now();
    let out = f();
    m.setup_s.push(start.elapsed().as_secs_f64());
    out
}

/// The set-up repetitions before the first pass; keeps the last result.
pub fn timed_setup<T>(m: &mut Measured, f: &mut impl FnMut() -> T) -> T {
    let mut out = setup_rep(m, f);
    while m.setup_s.len() < SETUP_REPS {
        out = setup_rep(m, f);
    }
    out
}

/// A workload's measured passes. A pass runs every input of the workload
/// once; outputs are checked after the pass, outside its wall time.
pub trait Workload {
    /// One untraced pass: times every job into `m`, checks the outputs,
    /// and returns the pass's wall time in ns.
    fn pass(&mut self, m: &mut Measured) -> u64;
    /// One pass through the traced mirrors; returns its wall time in ns.
    fn traced_pass(&mut self, m: &mut Measured, tr: &mut Tracer, pass: u64) -> u64;
}

/// Runs whole passes until `seconds` of measured time have run, with a
/// `setup` repetition every `SETUP_EVERY`. A traced run follows each
/// untraced pass with a traced one, so drift over the run touches both
/// halves alike; it returns the spans.
pub fn drive(
    w: &mut impl Workload,
    m: &mut Measured,
    args: &Args,
    setup: &mut dyn FnMut(&mut Measured),
) -> Option<Tracer> {
    let budget = (args.seconds * 1e9) as u64;
    let mut tr = args.trace.then(Tracer::new);
    let (mut spent, mut pass) = (0u64, 0u64);
    let mut last_setup = Instant::now();
    while pass == 0 || spent < budget {
        let ns = w.pass(m);
        m.wall_ns += ns;
        m.passes += 1;
        spent += ns;
        if let Some(tr) = &mut tr {
            spent += w.traced_pass(m, tr, pass);
        }
        if last_setup.elapsed() >= SETUP_EVERY {
            setup(m);
            last_setup = Instant::now();
        }
        pass += 1;
    }
    tr
}

/// Seeded permutation of `0..n`.
pub fn seeded_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = faros_support::prop::Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("faros-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut m = match args.workload.as_str() {
        "corpus" => jobs::corpus(&args),
        "long-replay" => jobs::long_replay(&args),
        "service" => service::run(&args),
        "image-scan" => scan::run(&args),
        other => {
            eprintln!("faros-perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    if m.attempted == 0 {
        m.problem("no job was attempted".into());
    }
    if let (Some(path), Some(spans)) = (&args.spans, &m.spans) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            spans.write_json(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            m.problem(format!("writing spans to {path}: {e}"));
        }
    }
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        m.problem(e);
        0.0
    });

    let mut sorted = m.job_ns.clone();
    sorted.sort_unstable();
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| json_metric(name, m.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let wall_s = m.wall_ns as f64 / 1e9;
        let (p50, p90) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (median_input_ns(&m) / 1e6, ms(percentile(&sorted, 0.9)))
        };
        vec![
            json_metric("setup_s", mean(&m.setup_s), "s"),
            json_metric("jobs_per_s", m.job_ns.len() as f64 / wall_s, "jobs/s"),
            json_metric("job_ms.p50", p50, "ms"),
            json_metric("job_ms.p90", p90, "ms"),
            json_metric("guest_minsn_per_s", m.guest_insns as f64 / wall_s / 1e6, "Minsn/s"),
            json_metric("ok_frac", 1.0 - ratio(m.failed, m.attempted), "ratio"),
            json_metric("peak_rss_mb", rss, "MiB"),
        ]
    };

    for p in &m.problems {
        eprintln!("faros-perfbench: check failed: {p}");
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let i = &m.inputs;
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"commit\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"setup_reps\": {}, \"setup_median_s\": {:?}, \"passes\": {}, \"job_samples\": {}, \"jobs_per_pass\": {}, \
         \"images_per_pass\": {}, \"image_repeat_share\": {:?}, \"code_bytes\": {}, \
         \"code_zero_share\": {:?}, \"guest_insns_per_pass\": {}, \"recording_bytes\": {}, \
         \"verdict_errors\": {}}}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        env("FAROS_BENCH_COMMIT"),
        env("FAROS_BENCH_SOURCE_DIGEST"),
        env("FAROS_BENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        m.setup_s.len(),
        median(&m.setup_s),
        m.passes,
        m.job_ns.len(),
        i.jobs_per_pass,
        i.images,
        i.image_repeat_share,
        i.code_bytes,
        i.code_zero_share,
        i.guest_insns,
        i.recording_bytes,
        m.verdict_errors,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.problems.is_empty() && m.failed == 0,
        m.attempted,
        m.failed,
        metrics.join(", ")
    );
}
