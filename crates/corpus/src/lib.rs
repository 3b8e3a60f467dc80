//! # faros-corpus — the guest-program corpus
//!
//! Every workload of the paper's evaluation, rebuilt as deterministic FE32
//! guest programs plus scripted attacker endpoints:
//!
//! * [`attacks`] — the six in-memory-injecting samples of §VI (three
//!   reflective-DLL variants, process hollowing, two RAT code injections)
//!   plus a transient (snapshot-defeating) extension;
//! * [`families`] — the non-injecting malware families and benign software
//!   of Table IV (the 90 + 14 false-positive dataset);
//! * [`jit`] — the Java-applet / AJAX workloads of Table III (a mini-JIT:
//!   2 of 20 copy downloaded code directly and false-positive, 18 launder
//!   taint through control dependencies and stay clean);
//! * [`reuse`] — code-reuse (ROP/JOP) attacks that execute only
//!   image-backed bytes, plus benign dense-indirect foils — the family
//!   behind the CFI cross-check's truth table;
//! * [`perf`] — the six Table V performance workloads;
//! * [`builder`] — shared FE32 code-generation helpers (incl. the
//!   export-table walk every reflective payload uses);
//! * [`endpoints`] — Metasploit-handler / C2 / web-server stand-ins;
//! * [`scenario`] — the [`scenario::Sample`] type binding a buildable
//!   scenario to its ground truth and Table IV behaviour profile.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attacks;
pub mod families;
pub mod indirect;
pub mod jit;
pub mod perf;
pub mod builder;
pub mod dll;
pub mod endpoints;
pub mod evasion;
pub mod laundering;
pub mod reuse;
pub mod scenario;
pub mod smc;

pub use scenario::{Behavior, Category, InjectionKind, Sample, SampleScenario};

use std::sync::OnceLock;

/// The process-wide registry [`find_sample`] resolves names against.
static REGISTRY: OnceLock<Vec<Sample>> = OnceLock::new();

/// Every named sample in the corpus: the seven injecting samples, the
/// evasion samples, the Fig. 1/2 demos, the 20 JIT workloads, and the full
/// 104-entry false-positive dataset.
///
/// Each call builds a fresh, owned copy; name lookups go through
/// [`find_sample`], which builds it once per process.
pub fn sample_registry() -> Vec<Sample> {
    let probe = faros_kernel::Machine::new(faros_kernel::MachineConfig::default());
    let ntdll = &probe.kernel_modules()[0];
    let ods = ntdll.find_export("OutputDebugStringA").expect("kernel export").va;
    let gpa = ntdll.find_export("GetProcAddress").expect("kernel export").va;

    let mut out = attacks::all_injecting_samples();
    out.push(evasion::laundered_reflective());
    out.push(evasion::tainted_function_pointer(ods));
    out.push(evasion::clean_indirect_call(gpa));
    out.push(evasion::taint_bomb(8));
    out.push(laundering::capability_laundering());
    out.push(laundering::debugger_foil());
    out.push(indirect::fig1_lookup_table());
    out.push(indirect::fig2_bit_copy());
    out.push(smc::smc_patch_loop());
    out.push(dll::plugin_host());
    out.push(dll::dropped_dll_attack());
    out.extend(reuse::reuse_attack_samples());
    out.extend(reuse::reuse_benign_samples());
    out.extend(jit::jit_workloads());
    out.extend(families::fp_dataset());
    out
}

/// Looks a sample up by name (see [`sample_registry`]).
///
/// The registry is built once per process, on the first lookup, and every
/// lookup borrows from that copy. Sharing is safe: [`sample_registry`] is a
/// deterministic function with no inputs, nothing mutates a [`Sample`] after
/// it is built, and each `Scenario::build` makes a fresh machine and fresh
/// endpoints from the sample's factories.
pub fn find_sample(name: &str) -> Option<&'static Sample> {
    REGISTRY.get_or_init(sample_registry).iter().find(|s| s.name() == name)
}
