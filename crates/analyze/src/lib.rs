//! # faros-analyze — static FE32/FDL binary analysis
//!
//! The static counterpart to FAROS' dynamic taint engine, in the hybrid
//! shape of SpiderPig's static pre-analysis and ROPocop's statically
//! derived code invariants:
//!
//! * [`cfg`] — recursive-descent + linear-sweep disassembly over an
//!   [`FdlImage`](faros_kernel::module::FdlImage)'s executable sections,
//!   recovering basic blocks, a control-flow graph, and direct call edges
//!   — without executing a single instruction;
//! * [`lint`] — a pass over the image and its recovered CFG emitting
//!   structured [`Finding`](lint::Finding)s: W^X sections, reachable
//!   writes into code, statically unresolvable indirect control flow,
//!   unreachable code, dangling exports, export-hash collisions;
//! * [`vsa`] — worklist-based intra-procedural value-set analysis over
//!   the FE32 registers and stack slots (strided-interval domain), the
//!   abstract interpreter behind indirect-branch resolution;
//! * [`dataflow`] — drives [`vsa`] to a whole-image fixpoint: resolves
//!   indirect call/jump targets (spliced back into the [`ModuleCfg`]),
//!   computes per-function taint summaries composed into an
//!   inter-procedural source→sink flow map, and cross-checks dynamic
//!   taint alerts against the static model (`statically explainable` vs
//!   `statically impossible-per-model` — the latter an injection signal);
//! * [`gadgets`] — the gadget-surface scanner: a byte-granular linear
//!   sweep for free-branch endpoints (`ret`, `call reg`, `jmp reg`) and
//!   the short instruction runs that reach them, scoring each image's
//!   code-reuse raw material by gadget density;
//! * [`cfi`] — the static control-flow-integrity model ([`cfi::CfiModel`]:
//!   resolved indirect target sets, call-preceded return sites, function
//!   entries) and the dynamic cross-check ([`cfi::check`]) that holds
//!   every replay-observed `ret`/`call reg`/`jmp reg` transfer to it —
//!   the code-reuse (ROP/JOP) detection signal;
//! * [`report`] — the one-call bundle behind `faros-cli analyze <image>`:
//!   CFG + dataflow + lints over a single image rendered to a stable JSON
//!   wire format;
//! * [`coverage`] — the static-vs-dynamic cross-check: diff the basic
//!   blocks a replay actually executed (recorded by
//!   [`faros_replay::BlockCoverage`]) against the union of static models
//!   of every loaded module, so *dynamically executed but statically
//!   unaccounted code* becomes an independent injection signal.
//! * [`analysis`] — [`JobAnalysis`], the per-job bundle of every image's
//!   dataflow result, CFI model and capability report, built once per
//!   image and borrowed by all four cross-checks and the profiler's
//!   symbolizer ([`symbols`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod cfg;
pub mod cfi;
pub mod coverage;
pub mod dataflow;
pub mod gadgets;
pub mod lint;
pub mod report;
pub mod symbols;
pub mod syscap;
pub mod vsa;

pub use analysis::JobAnalysis;
pub use cfg::{BasicBlock, DecodeStats, ModuleCfg};
pub use cfi::{CfiCheckReport, CfiModel, CfiStats, CfiViolation};
pub use coverage::{diff, diff_analyzed, image_map, CoverageReport, ProcessCoverage};
pub use gadgets::{GadgetReport, GadgetStats, SectionGadgets};
pub use dataflow::{
    analyze_image, taint_cross_check_analyzed, taint_cross_check_with_stats, DataflowStats,
    DynamicAlert, ImageDataflow, ImageFlowMap, ProcessTaintCheck, ResidualFlow, SinkKind,
    SourceKind, StaticFlow, TaintCrossCheck,
};
pub use lint::{lint_image, render_findings, Finding, FindingKind, Severity};
pub use report::StaticReport;
pub use symbols::{layout_map, layouts_for};
pub use syscap::{
    ambient_caps, capability_cross_check_analyzed, capability_cross_check_with_stats,
    caps_of_syscall, render_capability_check, CapWitness, CapabilityCrossCheck, CapabilityReport,
    ProcessCapCheck, Recipe, RecipeHit, ResidualRecipe, SyscapStats, RECIPES,
};
pub use vsa::{AVal, StridedInterval};
