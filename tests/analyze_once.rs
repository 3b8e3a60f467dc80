//! One replay and one static analysis per image per job.
//!
//! The job pipeline replays each recording once, with FAROS and every
//! observer stacked in one `PluginManager`, builds one `JobAnalysis` per
//! recording, and every cross-check borrows it. The claims:
//!
//! 1. `analyze_recording` builds the guest machine exactly once — one
//!    replay — with profiling off and on and with trace capture on;
//! 2. the job's deterministic `static.analyses` cost counter equals the
//!    number of unique images (by basename) the scenario can load — no
//!    image is analyzed twice, none is skipped;
//! 3. the image-keyed check entry points (`diff`, the taint and capability
//!    `_with_stats` checks, `cfi::check`), which analyze internally,
//!    produce exactly what the shared-analysis path produces;
//! 4. CFG recovery never hands zero padding to the decoder: the job's
//!    `static.insns_decoded` counter is at most the non-zero code bytes of
//!    its unique images, and `static.padding_bytes` is non-zero wherever
//!    an image carries a zero run no instruction can span.

use faros::{analyze_recording, AnalysisConfig, Faros, Policy};
use faros_repro::analyze::{self, DynamicAlert, JobAnalysis};
use faros_repro::corpus::sample_registry;
use faros_repro::emu::encode::MAX_INSTR_LEN;
use faros_repro::kernel::event::Observer;
use faros_repro::kernel::machine::{Machine, MachineConfig, MachineError};
use faros_repro::kernel::module::FdlImage;
use faros_repro::kernel::net::NetworkFabric;
use faros_repro::replay::{
    record, replay, BlockCoverage, CapabilityMonitor, CfiMonitor, PluginManager, Scenario,
};
use std::cell::Cell;
use std::collections::BTreeSet;

const BUDGET: u64 = 20_000_000;

/// A registry sample that counts how many machines it has built — one per
/// record or replay.
struct CountingBuilds<'a> {
    inner: &'a dyn Scenario,
    builds: Cell<usize>,
}

impl Scenario for CountingBuilds<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn guest_ip(&self) -> [u8; 4] {
        self.inner.guest_ip()
    }
    fn build(
        &self,
        fabric: NetworkFabric,
        obs: &mut dyn Observer,
    ) -> Result<Machine, MachineError> {
        self.builds.set(self.builds.get() + 1);
        self.inner.build(fabric, obs)
    }
    fn config(&self) -> MachineConfig {
        self.inner.config()
    }
    fn programs(&self) -> &[(String, FdlImage)] {
        self.inner.programs()
    }
}

#[test]
fn analyze_recording_replays_each_job_once() {
    let sample = sample_registry()
        .into_iter()
        .find(|s| s.name() == "process_hollowing")
        .expect("registry sample");
    let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
    let counted = CountingBuilds { inner: &sample.scenario, builds: Cell::new(0) };
    for (label, cfg) in [
        ("profiling off", AnalysisConfig::default()),
        ("profiling on", AnalysisConfig { profile: true, ..AnalysisConfig::default() }),
        ("trace capture on", AnalysisConfig { capture_trace: true, ..AnalysisConfig::default() }),
    ] {
        counted.builds.set(0);
        let job = analyze_recording(&counted, &recording, &cfg).unwrap();
        assert!(job.report.attack_flagged(), "{label}: the job ran end to end");
        assert_eq!(counted.builds.get(), 1, "{label}: one replay per job");
    }
}

#[test]
fn static_analyses_equal_unique_images_for_every_sample() {
    let mut samples = 0usize;
    for sample in sample_registry() {
        samples += 1;
        let unique: BTreeSet<&str> = sample
            .scenario
            .programs()
            .iter()
            .map(|(path, _)| path.rsplit(['/', '\\']).next().unwrap_or(path))
            .collect();
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let job =
            analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default()).unwrap();
        assert_eq!(
            job.cost.metrics().counter("static.analyses"),
            Some(unique.len() as u64),
            "{}: expected one static analysis per unique image",
            sample.name(),
        );
    }
    assert_eq!(samples, 149, "the whole registry is part of the claim");
}

#[test]
fn decoder_work_skips_zero_padding_for_every_sample() {
    let mut samples = 0usize;
    for sample in sample_registry() {
        samples += 1;
        let images = analyze::image_map(
            sample.scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())),
        );
        let code: Vec<&[u8]> =
            images.values().flat_map(|i| i.code_sections()).map(|s| &s.data[..]).collect();
        let non_zero: u64 = code.iter().map(|d| d.iter().filter(|&&b| b != 0).count() as u64).sum();
        let has_padding =
            code.iter().any(|d| d.split(|&b| b != 0).any(|run| run.len() >= MAX_INSTR_LEN));
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let job =
            analyze_recording(&sample.scenario, &recording, &AnalysisConfig::default()).unwrap();
        let metrics = job.cost.metrics();
        let decoded = metrics.counter("static.insns_decoded").expect("counter emitted");
        let padding = metrics.counter("static.padding_bytes").expect("counter emitted");
        assert!(
            decoded <= non_zero,
            "{}: {decoded} decoder calls for {non_zero} non-zero code bytes",
            sample.name(),
        );
        assert!(
            !has_padding || padding > 0,
            "{}: zero padding present but none taken without the decoder",
            sample.name(),
        );
    }
    assert_eq!(samples, 149, "the whole registry is part of the claim");
}

#[test]
fn image_keyed_checks_match_the_shared_analysis_across_the_corpus() {
    for sample in sample_registry() {
        let name = sample.name();
        let (recording, _) = record(&sample.scenario, BUDGET).unwrap();
        let mut plugins = PluginManager::new();
        plugins.register(Box::new(Faros::new(Policy::paper())));
        plugins.register(Box::new(BlockCoverage::new()));
        plugins.register(Box::new(CfiMonitor::new()));
        plugins.register(Box::new(CapabilityMonitor::new()));
        replay(&sample.scenario, &recording, BUDGET, &mut plugins).unwrap();
        let faros = plugins.take_as::<Faros>("faros").expect("registered above");
        let blocks = plugins
            .take_as::<BlockCoverage>("block-coverage")
            .expect("registered above")
            .into_processes();
        let transfers = plugins
            .take_as::<CfiMonitor>("cfi-monitor")
            .expect("registered above")
            .into_processes();
        let caps = plugins
            .take_as::<CapabilityMonitor>("capability-monitor")
            .expect("registered above")
            .into_processes();
        let alerts: Vec<DynamicAlert> = faros
            .report()
            .detections
            .iter()
            .map(|d| DynamicAlert { process: d.process.clone(), va: d.insn_vaddr })
            .collect();
        let tainted = faros.tainted_transfers();

        let images = analyze::image_map(
            sample.scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())),
        );
        let shared = JobAnalysis::build(&images);
        assert_eq!(
            analyze::diff(&blocks, &images),
            analyze::diff_analyzed(&blocks, &shared),
            "{name}: coverage"
        );
        assert_eq!(
            analyze::taint_cross_check_with_stats(&alerts, &blocks, &images),
            analyze::taint_cross_check_analyzed(&alerts, &blocks, &shared),
            "{name}: taint"
        );
        assert_eq!(
            analyze::cfi::check(&transfers, &images, tainted),
            analyze::cfi::check_analyzed(&transfers, &shared, tainted),
            "{name}: cfi"
        );
        assert_eq!(
            analyze::capability_cross_check_with_stats(&caps, &images),
            analyze::capability_cross_check_analyzed(&caps, &shared),
            "{name}: capabilities"
        );
    }
}
