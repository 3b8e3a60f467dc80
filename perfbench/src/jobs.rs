//! The `corpus` and `long-replay` workloads: every input is recorded
//! during set-up, then `faros::analyze_recording` runs over all of them on
//! one thread in seeded order — a closed loop with one caller.

use crate::mirror::{self, TracedJob};
use crate::trace::Tracer;
use crate::{drive, ms, seeded_order, setup_rep, timed_setup, Args, Measured, Workload};
use faros::AnalysisConfig;
use faros_corpus::{families, Sample};
use faros_replay::{record, Recording, Scenario as _};
use std::collections::BTreeMap;
use std::time::Instant;

/// Loop count of every `long-replay` family program (about 56 M guest
/// instructions per pass over the 21 programs).
const LONG_REPLAY_ROUNDS: u32 = 1000;

/// One recorded input.
#[derive(Debug)]
pub struct Job {
    pub sample: Sample,
    pub recording: Recording,
}

/// Every `sample_registry()` sample.
pub fn corpus(args: &Args) -> Measured {
    run(args, faros_corpus::sample_registry)
}

/// The 21 Table IV family programs at `LONG_REPLAY_ROUNDS`; the seed
/// picks each program's variant (its name and C2 port).
pub fn long_replay(args: &Args) -> Measured {
    let rows: Vec<families::Family> =
        families::malware_rows().into_iter().chain(families::benign_rows()).collect();
    let mut rng = faros_support::prop::Rng::new(args.seed ^ 0x5eed_f00d);
    let variants: Vec<u32> = rows.iter().map(|_| rng.below(256) as u32).collect();
    run(args, || {
        rows.iter()
            .zip(&variants)
            .map(|(row, &v)| families::build_family_sample(row, v, LONG_REPLAY_ROUNDS))
            .collect()
    })
}

/// Builds and records every sample, each `record` in a span.
pub fn record_all(
    tr: &mut Tracer,
    samples: Vec<Sample>,
    cfg: &AnalysisConfig,
) -> Result<Vec<Job>, String> {
    samples
        .into_iter()
        .map(|sample| {
            let (recording, _) = tr
                .time("replay.record", || record(&sample.scenario, cfg.budget))
                .map_err(|e| format!("recording {}: {e}", sample.name()))?;
            Ok(Job { sample, recording })
        })
        .collect()
}

fn run(args: &Args, build: impl Fn() -> Vec<Sample>) -> Measured {
    let mut m = Measured::default();
    let cfg = AnalysisConfig::default();
    let mut setup_spans = Tracer::new();
    let mut setup = || record_all(&mut setup_spans, build(), &cfg);
    let recorded = timed_setup(&mut m, &mut setup);
    let mut recorded = match recorded {
        Ok(jobs) => jobs.into_iter().map(Some).collect::<Vec<_>>(),
        Err(e) => {
            m.problem(e);
            return m;
        }
    };
    let jobs: Vec<Job> = seeded_order(args.seed, recorded.len())
        .into_iter()
        .map(|i| recorded[i].take().expect("a permutation takes each job once"))
        .collect();

    m.inputs.jobs_per_pass = jobs.len() as u64;
    m.inputs.count_images(
        jobs.iter().flat_map(|j| j.sample.scenario.programs().iter().map(|(_, i)| i)),
    );
    m.inputs.guest_insns = jobs.iter().map(|j| j.recording.instructions).sum();
    m.inputs.recording_bytes =
        jobs.iter().map(|j| j.recording.to_json().map_or(0, |s| s.len() as u64)).sum();

    let mut w =
        Pipeline { jobs: &jobs, cfg: &cfg, base: Baseline::default(), counts: Counts::default() };
    let Some(mut tr) = drive(&mut w, &mut m, args, &mut |m| drop(setup_rep(m, &mut setup))) else {
        return m;
    };
    for (k, job) in jobs.iter().enumerate() {
        tr.set_job(k as u64);
        let images = mirror::job_images(&job.sample.scenario);
        mirror::static_probes(&mut tr, images.iter().map(|(n, i)| (n.as_str(), i)));
    }
    let recordings = (m.setup_s.len() * jobs.len()) as f64;
    m.layers.insert("replay.record_ms", ms(setup_spans.total_ns("replay.record")) / recordings);
    fill_layers(&mut m, &tr, jobs.len() as u64, w.base.job_ms(), &w.counts);
    m.spans = Some(tr);
    m
}

/// Reference outputs and untraced job cost from the untraced passes.
#[derive(Debug, Default)]
pub struct Baseline {
    /// First-pass report bytes per job (`None` when the job failed).
    pub reports: Vec<Option<String>>,
    /// Summed wall time of whole jobs (analysis plus serialization).
    pub job_ns: u64,
    pub jobs: u64,
}

impl Baseline {
    pub fn job_ms(&self) -> f64 {
        ms(self.job_ns) / self.jobs.max(1) as f64
    }

    /// Checks one job's report bytes against the reference.
    pub fn check(&self, k: usize, json: &str) -> Result<(), String> {
        match self.reports.get(k) {
            Some(Some(r)) if r == json => Ok(()),
            Some(Some(_)) => Err(format!("job {k}: report bytes differ from the reference")),
            _ => Err(format!("job {k}: no reference report")),
        }
    }
}

/// `analyze_recording` over every recorded job, in order.
struct Pipeline<'a> {
    jobs: &'a [Job],
    cfg: &'a AnalysisConfig,
    base: Baseline,
    counts: Counts,
}

impl Workload for Pipeline<'_> {
    fn pass(&mut self, m: &mut Measured) -> u64 {
        let first = m.passes == 0;
        let start = Instant::now();
        let mut outputs = Vec::with_capacity(self.jobs.len());
        for job in self.jobs {
            let t = Instant::now();
            let analyzed = faros::analyze_recording(&job.sample.scenario, &job.recording, self.cfg);
            m.job_ns.push(t.elapsed().as_nanos() as u64);
            outputs.push(analyzed.map(|j| {
                let json = j.report.to_json().expect("a report always serializes");
                (json, j.report.attack_flagged(), j.instructions)
            }));
            self.base.job_ns += t.elapsed().as_nanos() as u64;
            self.base.jobs += 1;
        }
        let pass_ns = start.elapsed().as_nanos() as u64;

        let mut verdict_errors = 0;
        for (k, (job, out)) in self.jobs.iter().zip(outputs).enumerate() {
            let outcome = match out {
                Err(e) => Err(format!("{}: {e}", job.sample.name())),
                Ok((json, flagged, insns)) => {
                    m.guest_insns += insns;
                    verdict_errors += u64::from(flagged != job.sample.category.should_flag());
                    if first {
                        self.base.reports.push(Some(json));
                        Ok(())
                    } else {
                        self.base.check(k, &json)
                    }
                }
            };
            if first && outcome.is_err() {
                self.base.reports.push(None);
            }
            m.job(outcome);
        }
        check_verdicts(m, first, verdict_errors);
        pass_ns
    }

    fn traced_pass(&mut self, m: &mut Measured, tr: &mut Tracer, pass: u64) -> u64 {
        let start = Instant::now();
        for (k, job) in self.jobs.iter().enumerate() {
            tr.set_job(pass * self.jobs.len() as u64 + k as u64);
            let span = tr.open("job");
            let out = mirror::analyze_recording(tr, &job.sample.scenario, &job.recording, self.cfg);
            tr.close(span);
            let outcome = match out {
                Err(e) => Err(format!("{}: {e}", job.sample.name())),
                Ok(t) => {
                    if pass == 0 {
                        self.counts.add(&t);
                    }
                    self.base.check(k, &t.report_json)
                }
            };
            m.job(outcome.map_err(|e| format!("traced mirror: {e}")));
        }
        start.elapsed().as_nanos() as u64
    }
}

/// Pins the per-pass verdict-error count: it must repeat exactly.
pub fn check_verdicts(m: &mut Measured, first: bool, verdict_errors: u64) {
    if first {
        m.verdict_errors = verdict_errors;
    } else if verdict_errors != m.verdict_errors {
        m.problem(format!(
            "verdict errors changed between passes: {} then {verdict_errors}",
            m.verdict_errors
        ));
    }
}

/// Work counters summed over one traced pass.
#[derive(Debug, Default)]
pub struct Counts {
    pub jobs: u64,
    pub guest_insns: u64,
    pub counters: BTreeMap<String, u64>,
    pub report_bytes: u64,
}

impl Counts {
    pub fn add(&mut self, t: &TracedJob) {
        self.jobs += 1;
        self.guest_insns += t.instructions;
        self.report_bytes += t.report_json.len() as u64;
        let mut bump = |k: &str, v: u64| *self.counters.entry(k.to_string()).or_insert(0) += v;
        bump("emu.tc.hits", t.tc.hits);
        bump("emu.tc.misses", t.tc.misses);
        bump("emu.tc.elided_blocks", t.tc.elided_blocks);
        for p in &t.plugins {
            bump(&format!("plugin.{}.dispatches", p.name), p.dispatches);
        }
        for name in [
            "taint.copies",
            "taint.fastpath.hits",
            "cfi.models",
            "syscap.images",
            "analyze.worklist.iterations",
        ] {
            bump(name, t.metrics.counter(name).unwrap_or(0));
        }
    }
}

/// Spans inside a traced job, as `(span, metric)`. `analyze.dataflow`
/// (in the `image-scan` job) counts toward the residual but is reported
/// through the probes as `analyze.cfg_ms` + `analyze.dataflow_ms`.
const JOB_LAYERS: &[(&str, Option<&str>)] = &[
    ("corpus.resolve", Some("corpus.resolve_ms")),
    ("replay.record", Some("replay.record_ms")),
    ("replay.ingest", Some("replay.ingest_ms")),
    ("replay.faros", Some("replay.faros_ms")),
    ("replay.observers", Some("replay.observers_ms")),
    ("core.assemble", Some("core.assemble_ms")),
    ("analyze.check.coverage", Some("analyze.check.coverage_ms")),
    ("analyze.check.taint", Some("analyze.check.taint_ms")),
    ("analyze.check.cfi", Some("analyze.check.cfi_ms")),
    ("analyze.check.caps", Some("analyze.check.caps_ms")),
    ("analyze.dataflow", None),
    ("analyze.lint", Some("analyze.lint_ms")),
    ("analyze.models", Some("analyze.models_ms")),
    ("analyze.gadgets", Some("analyze.gadgets_ms")),
    ("core.report_json", Some("core.report_json_ms")),
];

/// Fills the per-layer metrics from a traced run: per-job self time of
/// every layer span, the static probes (run once over `probed_jobs`
/// jobs), tracing overhead against the untraced job time
/// `untraced_job_ms`, the residual, and the counters of one traced pass.
pub fn fill_layers(
    m: &mut Measured,
    tr: &Tracer,
    probed_jobs: u64,
    untraced_job_ms: f64,
    counts: &Counts,
) {
    let traced_jobs = tr.count("job");
    let per_job = |ns: u64| ms(ns) / traced_jobs.max(1) as f64;
    let self_ns = tr.self_ns();
    let mut layer_sum = 0.0;
    for (span, metric) in JOB_LAYERS {
        if let Some(&ns) = self_ns.get(span) {
            layer_sum += per_job(ns);
            if let Some(metric) = metric {
                m.layers.insert(metric, per_job(ns));
            }
        }
    }
    let cfg_ns = tr.total_ns("analyze.cfg_probe");
    let dataflow_ns = tr.total_ns("analyze.dataflow_probe");
    let probed = probed_jobs.max(1) as f64;
    m.layers.insert("analyze.cfg_ms", ms(cfg_ns) / probed);
    m.layers.insert("analyze.dataflow_ms", (ms(dataflow_ns) - ms(cfg_ns)) / probed);
    m.layers.insert("trace.job_ms", untraced_job_ms);
    m.layers.insert("trace.overhead_ms", per_job(tr.total_ns("job")) - untraced_job_ms);
    m.layers.insert("core.job_residual_ms", untraced_job_ms - layer_sum);

    let faros_ms = per_job(self_ns.get("replay.faros").copied().unwrap_or(0));
    if faros_ms > 0.0 && counts.jobs > 0 {
        let insns_per_job = counts.guest_insns as f64 / counts.jobs as f64;
        m.layers.insert("replay.minsn_per_s", insns_per_job / faros_ms / 1e3);
    }
    m.layers.insert("replay.guest_insns", counts.guest_insns as f64);
    m.layers.insert("replay.recording_bytes", m.inputs.recording_bytes as f64);
    m.layers.insert("analyze.images", m.inputs.images as f64);
    m.layers.insert("analyze.image_repeat_share", m.inputs.image_repeat_share);
    m.layers.insert("analyze.code_bytes", m.inputs.code_bytes as f64);
    m.layers.insert("analyze.code_zero_share", m.inputs.code_zero_share);
    m.layers.insert("core.report_bytes", counts.report_bytes as f64);
    m.layers.insert("core.verdict_errors", m.verdict_errors as f64);
    for (name, &v) in &counts.counters {
        if let Some((key, _)) = crate::PER_LAYER.iter().find(|(k, _)| k == name) {
            m.layers.insert(key, v as f64);
        }
    }
}
