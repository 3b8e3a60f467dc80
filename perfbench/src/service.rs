//! The `service` workload: a fresh `Detonator` per pass with one worker
//! per core, driven as a closed loop by one client thread per core in this
//! process. Every registry sample is submitted twice per pass, in seeded
//! order: once as `JobSpec::Scenario` (the worker records it live) and
//! once as `JobSpec::Recording` (the worker ingests the recording JSON).

use crate::jobs::{check_verdicts, fill_layers, record_all, Counts, Job};
use crate::mirror::{self, TracedJob};
use crate::trace::Tracer;
use crate::{
    drive, ms, nproc, ratio, seeded_order, setup_rep, timed_setup, Args, Measured, Workload,
};
use faros::AnalysisConfig;
use faros_replay::{record, Recording, Scenario as _};
use faros_service::{Detonator, JobSpec, JobStatus, ServiceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One registry sample, recorded, with its recording JSON.
struct Input {
    job: Job,
    recording_json: String,
}

/// One submission of a pass: which sample, and as which spec kind.
#[derive(Debug, Clone, Copy)]
struct Submission {
    sample: usize,
    live: bool,
}

impl Submission {
    fn spec(self, inputs: &[Input]) -> JobSpec {
        let input = &inputs[self.sample];
        if self.live {
            JobSpec::Scenario { name: input.job.sample.name().to_string() }
        } else {
            JobSpec::Recording { json: input.recording_json.clone() }
        }
    }
}

fn config(workers: usize) -> ServiceConfig {
    ServiceConfig { workers, analysis: AnalysisConfig::default(), ..ServiceConfig::default() }
}

pub fn run(args: &Args) -> Measured {
    let mut m = Measured::default();
    let cfg = AnalysisConfig::default();
    let workers = nproc();
    let mut setup_spans = Tracer::new();
    let mut setup = || -> Result<Vec<Input>, String> {
        let jobs = record_all(&mut setup_spans, faros_corpus::sample_registry(), &cfg)?;
        let inputs = jobs
            .into_iter()
            .map(|job| {
                let recording_json = job.recording.to_json().map_err(|e| e.to_string())?;
                Ok(Input { job, recording_json })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Detonator::start(config(workers)).shutdown();
        Ok(inputs)
    };
    let inputs = timed_setup(&mut m, &mut setup);
    let inputs = match inputs {
        Ok(inputs) => inputs,
        Err(e) => {
            m.problem(e);
            return m;
        }
    };

    // The sequential reference every service report must equal, byte for
    // byte. Untimed: it is a check, not part of set-up or of a pass.
    let reference: Vec<Option<String>> = inputs
        .iter()
        .map(|i| {
            faros::analyze_recording(&i.job.sample.scenario, &i.job.recording, &cfg)
                .ok()
                .and_then(|j| j.report.to_json().ok())
        })
        .collect();
    let order: Vec<Submission> = seeded_order(args.seed, 2 * inputs.len())
        .into_iter()
        .map(|k| Submission { sample: k / 2, live: k % 2 == 0 })
        .collect();

    m.inputs.jobs_per_pass = order.len() as u64;
    m.inputs.count_images(
        order
            .iter()
            .flat_map(|s| inputs[s.sample].job.sample.scenario.programs().iter().map(|(_, i)| i)),
    );
    m.inputs.guest_insns = order.iter().map(|s| inputs[s.sample].job.recording.instructions).sum();
    m.inputs.recording_bytes = inputs.iter().map(|i| i.recording_json.len() as u64).sum();

    let specs = order.iter().map(|s| s.spec(&inputs)).collect();
    let mut w = Pool {
        inputs: &inputs,
        order: &order,
        specs,
        reference: &reference,
        workers,
        cfg: &cfg,
        totals: PoolTotals::default(),
        counts: Counts::default(),
    };
    let Some(mut tr) = drive(&mut w, &mut m, args, &mut |m| drop(setup_rep(m, &mut setup))) else {
        return m;
    };
    // Both submissions of a sample analyze the same images, so the probes
    // run once per sample.
    for (k, input) in inputs.iter().enumerate() {
        tr.set_job(k as u64);
        let images = mirror::job_images(&input.job.sample.scenario);
        mirror::static_probes(&mut tr, images.iter().map(|(n, i)| (n.as_str(), i)));
    }
    let t = &w.totals;
    let worker_job_ms = ms(t.busy_ns) / t.jobs_executed.max(1) as f64;
    fill_layers(&mut m, &tr, inputs.len() as u64, worker_job_ms, &w.counts);
    m.layers.insert("service.submit_ms", ms(t.submit_ns) / t.jobs.max(1) as f64);
    m.layers.insert("service.queue_wait_ms", ms(t.queue_wait_ns) / t.queue_waits.max(1) as f64);
    m.layers.insert("service.busy_share", ratio(t.busy_ns, t.worker_ns));
    m.layers.insert("service.workers_replaced", t.workers_replaced as f64);
    m.spans = Some(tr);
    m
}

/// Service-side totals over the measured passes.
#[derive(Debug, Default)]
struct PoolTotals {
    jobs: u64,
    submit_ns: u64,
    busy_ns: u64,
    jobs_executed: u64,
    /// Workers × pass wall time.
    worker_ns: u64,
    queue_wait_ns: u64,
    queue_waits: u64,
    workers_replaced: u64,
}

/// One finished submission as a client saw it.
struct Seen {
    pos: usize,
    submit_ns: u64,
    latency_ns: u64,
    status: Result<JobStatus, String>,
}

/// A fresh `Detonator` per pass, fed by one closed-loop client per worker.
struct Pool<'a> {
    inputs: &'a [Input],
    order: &'a [Submission],
    specs: Vec<JobSpec>,
    reference: &'a [Option<String>],
    workers: usize,
    cfg: &'a AnalysisConfig,
    totals: PoolTotals,
    counts: Counts,
}

impl Workload for Pool<'_> {
    fn pass(&mut self, m: &mut Measured) -> u64 {
        let first = m.passes == 0;
        let start = Instant::now();
        let svc = Detonator::start(config(self.workers));
        let next = AtomicUsize::new(0);
        let specs = &self.specs;
        let seen: Vec<Seen> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..self.workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut seen = Vec::new();
                        loop {
                            // A bare ticket counter: it publishes no data.
                            let pos = next.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = specs.get(pos).cloned() else {
                                break;
                            };
                            let t = Instant::now();
                            let admitted = svc.submit_wait(spec);
                            let submit_ns = t.elapsed().as_nanos() as u64;
                            let status = admitted
                                .map(|id| svc.wait(id).status)
                                .map_err(|e| format!("refused: {e}"));
                            let latency_ns = t.elapsed().as_nanos() as u64;
                            seen.push(Seen { pos, submit_ns, latency_ns, status });
                        }
                        seen
                    })
                })
                .collect();
            clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
        });
        let stats = svc.shutdown();
        let pass_ns = start.elapsed().as_nanos() as u64;

        let t = &mut self.totals;
        t.worker_ns += self.workers as u64 * pass_ns;
        t.busy_ns += stats.busy_ns;
        t.jobs_executed += stats.jobs_executed;
        t.workers_replaced += stats.workers_replaced;
        if let Some(h) = stats.cost.histogram("phase.queue_wait_ns") {
            t.queue_wait_ns += h.sum;
            t.queue_waits += h.count;
        }
        if stats.workers_replaced != 0 {
            m.problem(format!("{} workers replaced in one pass", stats.workers_replaced));
        }

        let mut seen = seen;
        seen.sort_by_key(|s| s.pos);
        let mut misjudged = vec![false; self.inputs.len()];
        for s in seen {
            let sub = self.order[s.pos];
            let input = &self.inputs[sub.sample];
            m.job_ns.push(s.latency_ns);
            t.jobs += 1;
            t.submit_ns += s.submit_ns;
            let outcome = match s.status {
                Ok(JobStatus::Done(result)) => {
                    m.guest_insns += result.instructions;
                    misjudged[sub.sample] |=
                        result.flagged != input.job.sample.category.should_flag();
                    match &self.reference[sub.sample] {
                        Some(r) if *r == result.report_json => Ok(()),
                        _ => Err(format!(
                            "{} ({}): report differs from the sequential reference",
                            input.job.sample.name(),
                            if sub.live { "scenario" } else { "recording" }
                        )),
                    }
                }
                Ok(other) => Err(format!("{}: ended {other:?}", input.job.sample.name())),
                Err(e) => Err(format!("{}: {e}", input.job.sample.name())),
            };
            m.job(outcome);
        }
        check_verdicts(m, first, misjudged.iter().filter(|&&x| x).count() as u64);
        pass_ns
    }

    /// The worker's job for every submission, traced, on this thread.
    fn traced_pass(&mut self, m: &mut Measured, tr: &mut Tracer, pass: u64) -> u64 {
        let start = Instant::now();
        for (pos, sub) in self.order.iter().enumerate() {
            tr.set_job(pass * self.order.len() as u64 + pos as u64);
            let span = tr.open("job");
            let out = traced_job(tr, &self.inputs[sub.sample], sub.live, self.cfg);
            tr.close(span);
            let outcome = out.and_then(|t| {
                if pass == 0 {
                    self.counts.add(&t);
                }
                match &self.reference[sub.sample] {
                    Some(r) if *r == t.report_json => Ok(()),
                    _ => Err(format!(
                        "{}: report differs from the reference",
                        self.inputs[sub.sample].job.sample.name()
                    )),
                }
            });
            m.job(outcome.map_err(|e| format!("traced mirror: {e}")));
        }
        start.elapsed().as_nanos() as u64
    }
}

/// What a worker does for one submission, traced: resolve the scenario,
/// record it live or ingest the recording, then analyze.
fn traced_job(
    tr: &mut Tracer,
    input: &Input,
    live: bool,
    cfg: &AnalysisConfig,
) -> Result<TracedJob, String> {
    let resolve = |tr: &mut Tracer, name: &str| {
        tr.time("corpus.resolve", || faros_corpus::find_sample(name))
            .ok_or(format!("unknown scenario `{name}`"))
    };
    let (sample, recording) = if live {
        let sample = resolve(tr, input.job.sample.name())?;
        let (recording, _) = tr
            .time("replay.record", || record(&sample.scenario, cfg.budget))
            .map_err(|e| e.to_string())?;
        (sample, recording)
    } else {
        let recording = tr
            .time("replay.ingest", || Recording::from_json(&input.recording_json))
            .map_err(|e| e.to_string())?;
        (resolve(tr, &recording.scenario)?, recording)
    };
    mirror::analyze_recording(tr, &sample.scenario, &recording, cfg).map_err(|e| e.to_string())
}
