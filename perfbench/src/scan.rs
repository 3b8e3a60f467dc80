//! The `image-scan` workload: seeded dense FE32 code images (no zero
//! padding) through `StaticReport::build` + `to_json` — the
//! `faros-cli analyze <image>` path — on one thread.

use crate::jobs::{fill_layers, Counts};
use crate::mirror;
use crate::trace::Tracer;
use crate::{drive, ms, setup_rep, timed_setup, Args, Measured, Workload};
use faros_analyze::StaticReport;
use faros_emu::mmu::Perms;
use faros_kernel::machine::IMAGE_BASE;
use faros_kernel::module::{Export, FdlImage, Section};
use faros_support::arb;
use faros_support::prop::Rng;
use std::time::Instant;

const IMAGES: usize = 8;
const IMAGE_BYTES: usize = 64 * 1024;

struct DenseImage {
    name: String,
    image: FdlImage,
    /// Instructions encoded into the image.
    insns: u64,
}

/// `IMAGES` images of at least `IMAGE_BYTES` of encoded
/// `arb::guest_instr` instructions each, one executable section apiece.
fn dense_images(seed: u64) -> Vec<DenseImage> {
    let mut rng = Rng::new(seed);
    (0..IMAGES)
        .map(|i| {
            let mut code = Vec::with_capacity(IMAGE_BYTES + 16);
            let mut insns = 0;
            while code.len() < IMAGE_BYTES {
                faros_emu::encode::encode_into(&arb::guest_instr(&mut rng), &mut code);
                insns += 1;
            }
            let image = FdlImage {
                entry: IMAGE_BASE,
                export_table_va: IMAGE_BASE + 0x10_0000,
                sections: vec![Section { va: IMAGE_BASE, data: code, perms: Perms::RX }],
                exports: vec![Export { name: "main".into(), va: IMAGE_BASE }],
            };
            DenseImage { name: format!("dense{i}.fdl"), image, insns }
        })
        .collect()
}

pub fn run(args: &Args) -> Measured {
    let mut m = Measured::default();
    let mut setup = || dense_images(args.seed);
    let images = timed_setup(&mut m, &mut setup);
    m.inputs.jobs_per_pass = images.len() as u64;
    m.inputs.count_images(images.iter().map(|d| &d.image));
    m.inputs.guest_insns = images.iter().map(|d| d.insns).sum();

    let mut w = Scan {
        images: &images,
        reference: Vec::new(),
        job_ns: 0,
        jobs: 0,
        counts: Counts::default(),
    };
    let Some(mut tr) = drive(&mut w, &mut m, args, &mut |m| drop(setup_rep(m, &mut setup))) else {
        return m;
    };
    for (k, d) in images.iter().enumerate() {
        tr.set_job(k as u64);
        mirror::static_probes(&mut tr, [(d.name.as_str(), &d.image)]);
    }
    fill_layers(&mut m, &tr, images.len() as u64, ms(w.job_ns) / w.jobs.max(1) as f64, &w.counts);
    m.spans = Some(tr);
    m
}

/// `StaticReport::build` + `to_json` over every image, in order.
struct Scan<'a> {
    images: &'a [DenseImage],
    /// First-pass JSON per image.
    reference: Vec<String>,
    /// Summed untraced job time and job count.
    job_ns: u64,
    jobs: u64,
    counts: Counts,
}

impl Workload for Scan<'_> {
    fn pass(&mut self, m: &mut Measured) -> u64 {
        let start = Instant::now();
        let mut outputs = Vec::with_capacity(self.images.len());
        for d in self.images {
            let t = Instant::now();
            let report = StaticReport::build(&d.name, &d.image);
            let json = report.to_json().expect("a report always serializes");
            let ns = t.elapsed().as_nanos() as u64;
            m.job_ns.push(ns);
            self.job_ns += ns;
            self.jobs += 1;
            outputs.push((report, json));
        }
        let pass_ns = start.elapsed().as_nanos() as u64;
        m.guest_insns += self.images.iter().map(|d| d.insns).sum::<u64>();

        let first = self.reference.is_empty();
        for (k, ((report, json), d)) in outputs.into_iter().zip(self.images).enumerate() {
            let outcome = if first {
                // Later passes are held to these bytes, so the round trip
                // is proven once per image.
                let back = StaticReport::from_json(&json);
                let ok = matches!(&back, Ok(b) if *b == report);
                self.reference.push(json);
                if ok {
                    Ok(())
                } else {
                    Err(format!("{}: static report does not round-trip through JSON", d.name))
                }
            } else if self.reference[k] == json {
                Ok(())
            } else {
                Err(format!("{}: static report bytes differ from the first pass", d.name))
            };
            m.job(outcome);
        }
        pass_ns
    }

    fn traced_pass(&mut self, m: &mut Measured, tr: &mut Tracer, pass: u64) -> u64 {
        let start = Instant::now();
        for (k, d) in self.images.iter().enumerate() {
            tr.set_job(pass * self.images.len() as u64 + k as u64);
            let span = tr.open("job");
            let (report, json) = mirror::static_report(tr, &d.name, &d.image);
            tr.close(span);
            if pass == 0 {
                self.counts.report_bytes += json.len() as u64;
                *self.counts.counters.entry("analyze.worklist.iterations".into()).or_default() +=
                    report.stats.worklist_iterations;
            }
            let outcome = if self.reference.get(k) == Some(&json) {
                Ok(())
            } else {
                Err(format!("traced mirror: {}: static report differs from the reference", d.name))
            };
            m.job(outcome);
        }
        start.elapsed().as_nanos() as u64
    }
}
