//! One static analysis per image per job.
//!
//! The job pipeline builds one `JobAnalysis` per recording and every
//! cross-check borrows it. Two claims over the whole registry:
//!
//! 1. the job's deterministic `static.analyses` cost counter equals the
//!    number of unique images (by basename) the scenario can load — no
//!    image is analyzed twice, none is skipped;
//! 2. the image-keyed check entry points (`diff`, the taint and capability
//!    `_with_stats` checks, `cfi::check`), which analyze internally,
//!    produce exactly what the shared-analysis path produces;
//! 3. CFG recovery never hands zero padding to the decoder: the job's
//!    `static.insns_decoded` counter is at most the non-zero code bytes of
//!    its unique images, and `static.padding_bytes` is non-zero wherever
//!    an image carries a zero run no instruction can span.

use faros::{analyze_recording, AnalysisConfig, Faros, Policy};
use faros_repro::analyze::{self, DynamicAlert, JobAnalysis};
use faros_repro::corpus::sample_registry;
use faros_repro::emu::encode::MAX_INSTR_LEN;
use faros_repro::replay::{
    record, replay, BlockCoverage, CapabilityMonitor, CfiMonitor, PluginManager, Scenario as _,
};
use std::collections::BTreeSet;

const BUDGET: u64 = 20_000_000;

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
        let mut faros = Faros::new(Policy::paper());
        replay(&sample.scenario, &recording, BUDGET, &mut faros).unwrap();
        let mut observers = PluginManager::new();
        observers.register(Box::new(BlockCoverage::new()));
        observers.register(Box::new(CfiMonitor::new()));
        observers.register(Box::new(CapabilityMonitor::new()));
        replay(&sample.scenario, &recording, BUDGET, &mut observers).unwrap();
        let blocks = observers
            .take_as::<BlockCoverage>("block-coverage")
            .expect("registered above")
            .into_processes();
        let transfers = observers
            .take_as::<CfiMonitor>("cfi-monitor")
            .expect("registered above")
            .into_processes();
        let caps = observers
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
