//! The shared static analysis of one job's images.
//!
//! Every static-vs-dynamic cross-check of a job — the coverage diff, the
//! taint cross-check, the CFI check, the capability check — and the
//! profiler's symbolizer consult the same per-image models. [`JobAnalysis`]
//! computes them once per image (one [`analyze_image`] run, then the CFI
//! model and capability report derived from its result) and the checks
//! borrow it, so no image is analyzed twice within a job.

use crate::cfg::DecodeStats;
use crate::cfi::CfiModel;
use crate::coverage::basename;
use crate::dataflow::{analyze_image, ImageDataflow};
use crate::syscap::{capability_report, CapabilityReport};
use faros_kernel::module::{FdlImage, ModuleInfo};
use std::collections::BTreeMap;

/// Everything the checks need from one image, derived from a single
/// dataflow run.
#[derive(Debug)]
pub(crate) struct ImageAnalysis<'a> {
    /// The analyzed image.
    pub(crate) image: &'a FdlImage,
    /// CFG (resolved indirect edges spliced in), flow map, syscall sites,
    /// call graph, and cost counters.
    pub(crate) dataflow: ImageDataflow,
    /// The control-flow-integrity model built from the spliced CFG.
    pub(crate) cfi: CfiModel,
    /// The syscall-capability report built from the dataflow result.
    pub(crate) capabilities: CapabilityReport,
}

impl<'a> ImageAnalysis<'a> {
    /// Analyzes one image.
    pub(crate) fn build(name: &str, image: &'a FdlImage) -> ImageAnalysis<'a> {
        let dataflow = analyze_image(name, image);
        let cfi = CfiModel::from_cfg(name, image, &dataflow.cfg);
        let capabilities = capability_report(&dataflow);
        ImageAnalysis { image, dataflow, cfi, capabilities }
    }
}

/// The static analyses of every image one job can load, keyed by basename
/// as in [`crate::image_map`]: one image analysis per image, however
/// many processes load it and however many checks consult it.
#[derive(Debug)]
pub struct JobAnalysis<'a> {
    images: BTreeMap<&'a str, ImageAnalysis<'a>>,
}

impl<'a> JobAnalysis<'a> {
    /// Analyzes every image of an [`crate::image_map`]-style map once.
    pub fn build(images: &'a BTreeMap<String, FdlImage>) -> JobAnalysis<'a> {
        JobAnalysis {
            images: images
                .iter()
                .map(|(name, image)| (name.as_str(), ImageAnalysis::build(name, image)))
                .collect(),
        }
    }

    /// Number of images analyzed — one [`analyze_image`] run each.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// The decoder work of every image's CFG recovery, summed.
    pub fn decode_stats(&self) -> DecodeStats {
        let mut total = DecodeStats::default();
        for a in self.images.values() {
            total += a.dataflow.cfg.decode_stats();
        }
        total
    }

    /// Returns `true` if the job has no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The analysis of a loaded module, matched by basename.
    pub(crate) fn module(&self, module: &ModuleInfo) -> Option<&ImageAnalysis<'a>> {
        self.images.get(basename(&module.name))
    }

    /// Every analysis with its basename, in basename order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'a str, &ImageAnalysis<'a>)> {
        self.images.iter().map(|(&name, a)| (name, a))
    }
}
