//! Function-table recovery — the symbolization hook for the deterministic
//! replay profiler.
//!
//! The profiler attributes retired instructions to basic-block start VAs;
//! this module turns a static image into an [`faros_obs::prof::ModuleLayout`]
//! so those VAs can be rolled up to named functions. Function entries are
//! those of the recovered CFG before indirect-branch resolution (image
//! entry point, code exports, direct call targets), which the job's shared
//! [`JobAnalysis`] already holds; names come from the export table,
//! with a `sub_<va>` synthesized for entries no export names. Everything
//! here is a pure function of the image bytes, so symbolization never
//! perturbs the profiler's replay-identical output.

use crate::analysis::{ImageAnalysis, JobAnalysis};
use crate::coverage::basename;
use faros_kernel::module::ModuleInfo;
use faros_obs::prof::ModuleLayout;
use std::collections::BTreeMap;

/// Builds the [`ModuleLayout`] of one analyzed image.
fn module_layout(name: &str, a: &ImageAnalysis<'_>) -> ModuleLayout {
    let image = a.image;
    let mut functions: BTreeMap<u32, String> = a
        .dataflow
        .recovered_function_entries
        .iter()
        .map(|&va| (va, format!("sub_{va:08x}")))
        .collect();
    for e in &image.exports {
        // Exports name entries the CFG already proved are code; an export
        // pointing at data stays out of the table.
        if let Some(slot) = functions.get_mut(&e.va) {
            *slot = e.name.clone();
        }
    }
    let base = image.sections.iter().map(|s| s.va).min().unwrap_or(0);
    let limit = image.sections.iter().map(|s| s.end_va()).max().unwrap_or(0);
    ModuleLayout { name: name.to_string(), base, limit, functions }
}

/// Builds the function-table layout of every image a [`JobAnalysis`]
/// covers (keys are basenames), one per image regardless of how many
/// processes load it.
pub fn layout_map(analysis: &JobAnalysis<'_>) -> BTreeMap<String, ModuleLayout> {
    analysis.iter().map(|(name, a)| (name.to_string(), module_layout(name, a))).collect()
}

/// Selects the layouts of a process's loaded modules, matched by basename
/// exactly as the coverage diff matches modules to images. Modules with no
/// archived image are skipped — their blocks symbolize to `[anon]`.
pub fn layouts_for(
    modules: &[ModuleInfo],
    layouts: &BTreeMap<String, ModuleLayout>,
) -> Vec<ModuleLayout> {
    modules.iter().filter_map(|m| layouts.get(basename(&m.name)).cloned()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faros_emu::asm::Asm;
    use faros_emu::mmu::Perms;
    use faros_kernel::module::{Export, FdlImage, Section};

    const BASE: u32 = 0x40_0000;

    fn image_with_export() -> (FdlImage, u32) {
        // entry: call helper; hlt. helper: ret.
        let mut asm = Asm::new(BASE);
        asm.call("helper");
        asm.hlt();
        asm.label("helper");
        asm.ret();
        let (data, labels) = asm.assemble_with_labels().unwrap();
        let helper_va = labels["helper"];
        let image = FdlImage {
            entry: BASE,
            export_table_va: 0,
            sections: vec![Section { va: BASE, data, perms: Perms::RX }],
            exports: vec![Export { name: "helper".to_string(), va: helper_va }],
        };
        (image, helper_va)
    }

    #[test]
    fn layout_spans_the_image_and_names_exports() {
        let (image, helper_va) = image_with_export();
        let images = crate::image_map([("C:/app.exe", image)]);
        let layouts = layout_map(&JobAnalysis::build(&images));
        let layout = &layouts["app.exe"];
        assert_eq!(layout.name, "app.exe");
        assert_eq!(layout.base, BASE);
        assert!(layout.limit > BASE);
        assert_eq!(layout.functions.get(&helper_va).map(String::as_str), Some("helper"));
        // The unexported entry point gets a synthesized name.
        assert_eq!(
            layout.functions.get(&BASE).map(String::as_str),
            Some(&*format!("sub_{BASE:08x}"))
        );
    }
}
