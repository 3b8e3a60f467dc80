//! Traced mirrors of the program's job entry points.
//!
//! Each mirror makes the same public calls, in the same order, as the
//! function it stands in for, with a span around every call into a layer.
//! The caller compares the mirror's output bytes with the real entry
//! point's, so a mirror that drifts from the pipeline fails the run
//! instead of timing something else.

use crate::trace::Tracer;
use faros::{AnalysisConfig, Faros};
use faros_analyze::{cfi, gadgets, lint, syscap, CfiModel, DynamicAlert, ModuleCfg, StaticReport};
use faros_emu::tcache::TcStats;
use faros_kernel::module::FdlImage;
use faros_obs::metrics::{MetricsRegistry, MetricsSnapshot};
use faros_replay::{
    replay_with_exec, BlockCoverage, CapabilityMonitor, CfiMonitor, PluginCost, PluginManager,
    Recording, ReplayError, Scenario,
};
use std::collections::BTreeMap;

/// What one traced `analyze_recording` mirror produced.
#[derive(Debug)]
pub struct TracedJob {
    pub report_json: String,
    /// Guest instructions the FAROS replay retired.
    pub instructions: u64,
    pub metrics: MetricsSnapshot,
    /// Translation-cache counters of the FAROS replay pass.
    pub tc: TcStats,
    pub plugins: Vec<PluginCost>,
}

/// Mirror of `faros::analyze_recording` with the default configuration
/// (no flight recorder, no profiler), followed by `FarosReport::to_json`.
pub fn analyze_recording<S: Scenario + ?Sized>(
    tr: &mut Tracer,
    scenario: &S,
    recording: &Recording,
    cfg: &AnalysisConfig,
) -> Result<TracedJob, ReplayError> {
    let faros = Faros::with_mode(cfg.policy.clone(), cfg.mode);
    let mut plugins = PluginManager::new();
    plugins.register(Box::new(faros));
    let outcome = tr.time("replay.faros", || {
        replay_with_exec(scenario, recording, cfg.budget, cfg.exec, &mut plugins)
    })?;
    let tc = outcome.machine.tc_stats();
    let mut faros = *plugins.take_as::<Faros>("faros").expect("registered above");
    let mut costs: Vec<PluginCost> = plugins.dispatch_costs().to_vec();

    let mut observers = PluginManager::new();
    observers.register(Box::new(BlockCoverage::new()));
    observers.register(Box::new(CfiMonitor::new()));
    observers.register(Box::new(CapabilityMonitor::new()));
    tr.time("replay.observers", || {
        replay_with_exec(scenario, recording, cfg.budget, cfg.exec, &mut observers)
    })?;
    let blocks = *observers.take_as::<BlockCoverage>("block-coverage").expect("registered above");
    let monitor = *observers.take_as::<CfiMonitor>("cfi-monitor").expect("registered above");
    let capmon =
        *observers.take_as::<CapabilityMonitor>("capability-monitor").expect("registered above");
    costs.extend(observers.dispatch_costs().iter().cloned());

    let assemble = tr.open("core.assemble");
    let mut report = faros.report();
    let images = job_images(scenario);
    let observed = blocks.into_processes();
    let coverage = tr.time("analyze.check.coverage", || faros_analyze::diff(&observed, &images));
    report.attach_coverage(&coverage);
    let alerts: Vec<DynamicAlert> = report
        .detections
        .iter()
        .map(|d| DynamicAlert { process: d.process.clone(), va: d.insn_vaddr })
        .collect();
    let (taint, stats) = tr.time("analyze.check.taint", || {
        faros_analyze::taint_cross_check_with_stats(&alerts, &observed, &images)
    });
    report.attach_taint(taint);
    let transfers = monitor.into_processes();
    let cfi =
        tr.time("analyze.check.cfi", || cfi::check(&transfers, &images, faros.tainted_transfers()));
    let caps_observed = capmon.into_processes();
    let (caps, cap_stats) = tr.time("analyze.check.caps", || {
        faros_analyze::capability_cross_check_with_stats(&caps_observed, &images)
    });
    let mut reg = MetricsRegistry::new();
    stats.record_into(&mut reg);
    cfi.stats.record_into(&mut reg);
    cap_stats.record_into(&mut reg);
    report.attach_cfi(cfi);
    report.attach_capabilities(caps);
    let mut snap = faros.metrics_snapshot();
    snap.merge(&reg.snapshot());
    report.attach_metrics(snap);
    tr.close(assemble);

    let report_json =
        tr.time("core.report_json", || report.to_json()).expect("a report always serializes");
    Ok(TracedJob {
        report_json,
        instructions: outcome.instructions,
        metrics: report.metrics,
        tc,
        plugins: costs,
    })
}

/// The module-image map a job's static checks run over, exactly as the
/// pipeline builds it.
pub fn job_images<S: Scenario + ?Sized>(scenario: &S) -> BTreeMap<String, FdlImage> {
    faros_analyze::image_map(scenario.programs().iter().map(|(p, i)| (p.as_str(), i.clone())))
}

/// Mirror of `StaticReport::build` followed by `StaticReport::to_json`.
pub fn static_report(tr: &mut Tracer, name: &str, image: &FdlImage) -> (StaticReport, String) {
    let analysis =
        tr.time("analyze.dataflow", || faros_analyze::dataflow::analyze_image(name, image));
    let findings = tr.time("analyze.lint", || {
        let mut findings = lint::lint_with_cfg(name, image, &analysis.cfg);
        findings.extend(syscap::unresolved_syscall_findings(name, &analysis));
        findings.sort_by(|a, b| {
            (a.severity, a.kind, a.va, &a.module, &a.detail)
                .cmp(&(b.severity, b.kind, b.va, &b.module, &b.detail))
        });
        findings.dedup();
        findings
    });
    let (capabilities, resolved_sites) = tr.time("analyze.models", || {
        let capabilities = syscap::capability_report(&analysis);
        let resolved: Vec<(u32, Vec<u32>)> = analysis
            .cfg
            .resolved_targets
            .iter()
            .map(|(&va, targets)| (va, targets.clone()))
            .collect();
        (capabilities, resolved)
    });
    let gadgets = tr.time("analyze.gadgets", || gadgets::scan_image(name, image, &analysis.cfg));
    let cfi = tr.time("analyze.models", || CfiModel::from_cfg(name, image, &analysis.cfg));
    let report = StaticReport {
        module: name.to_string(),
        findings,
        resolved_sites,
        flows: analysis.flows,
        stats: analysis.stats,
        gadgets,
        cfi,
        capabilities,
    };
    let json =
        tr.time("core.report_json", || report.to_json()).expect("a report always serializes");
    (report, json)
}

/// Probe spans outside the job: one `ModuleCfg::recover` and one
/// `analyze_image` over each of the job's images. The checks re-derive
/// these internally, where a span from outside cannot reach; the probes
/// give their cost. `analyze.dataflow_probe` includes its own CFG recovery.
pub fn static_probes<'a>(
    tr: &mut Tracer,
    images: impl IntoIterator<Item = (&'a str, &'a FdlImage)>,
) {
    for (name, image) in images {
        let cfg = tr.time("analyze.cfg_probe", || ModuleCfg::recover(name, image));
        std::hint::black_box(&cfg);
        let df = tr
            .time("analyze.dataflow_probe", || faros_analyze::dataflow::analyze_image(name, image));
        std::hint::black_box(&df);
    }
}
