//! Calibration rows: host nanoseconds per byte for the CPU-side steps the
//! `CostModel` charges per byte, printed beside the model's constants.
//!
//! The model is unvalidated: the repository holds no results from the
//! reference hardware the constants stand for, so these rows show how far
//! this machine is from the model, not which of the two is right.

use std::time::Instant;

use mc_hypervisor::{AddressWidth, CostModel};
use mc_pe::corpus::standard_corpus;
use mc_vmi::VmiSession;
use modchecker::{adjust_rvas, ExtractedModule, ModuleImage, ModuleSearcher};
use modchecker_repro::testbed::Testbed;

use crate::stats::{median, Clock, Metrics};

const MODULE: &str = "hal.dll";
const REPS: usize = 15;

fn capture(bed: &Testbed, i: usize) -> ModuleImage {
    let mut session = VmiSession::attach(&bed.hv, bed.vm_ids[i])
        .expect("vm exists")
        .with_fast_capture();
    ModuleSearcher::find(&mut session, MODULE).expect("module loaded")
}

/// Median host ns per byte of `f` over [`REPS`] runs on `bytes` bytes.
#[allow(clippy::cast_precision_loss)]
fn ns_per_byte(bytes: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / bytes as f64
        })
        .collect();
    median(&samples)
}

pub fn rows(m: &mut Metrics) {
    let blueprint: Vec<_> = standard_corpus(AddressWidth::W32)
        .into_iter()
        .filter(|bp| bp.name == MODULE)
        .collect();
    let bed = Testbed::cloud_with(2, AddressWidth::W32, &blueprint);
    let (a, b) = (capture(&bed, 0), capture(&bed, 1));
    let model = CostModel::default();

    let parse = ns_per_byte(a.bytes.len(), || {
        std::hint::black_box(
            ExtractedModule::new(std::hint::black_box(a.clone())).expect("parses"),
        );
    });
    let md5 = ns_per_byte(a.bytes.len(), || {
        std::hint::black_box(mc_md5::md5(std::hint::black_box(&a.bytes)));
    });
    // Algorithm 2 over the executable sections, charged by the model per
    // byte of both buffers.
    let ea = ExtractedModule::new(a.clone()).expect("parses");
    let eb = ExtractedModule::new(b).expect("parses");
    let mut diff_samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut total_ns = 0u128;
        let mut total_bytes = 0usize;
        for (sa, sb) in ea.parts.exec_sections.iter().zip(&eb.parts.exec_sections) {
            let mut x = ea.image.bytes[sa.range.clone()].to_vec();
            let mut y = eb.image.bytes[sb.range.clone()].to_vec();
            total_bytes += x.len() + y.len();
            let t = Instant::now();
            std::hint::black_box(adjust_rvas(
                &mut x,
                &mut y,
                ea.image.base,
                eb.image.base,
                ea.parts.width,
            ));
            total_ns += t.elapsed().as_nanos();
        }
        #[allow(clippy::cast_precision_loss)]
        diff_samples.push(total_ns as f64 / total_bytes.max(1) as f64);
    }
    let diff = median(&diff_samples);

    for (step, host, model_ns, what) in [
        ("parse", parse, model.parse_byte_ns, "ExtractedModule::new"),
        ("md5", md5, model.hash_byte_ns, "mc_md5::md5"),
        (
            "diff",
            diff,
            model.diff_byte_ns,
            "adjust_rvas, both buffers",
        ),
    ] {
        m.note(
            &format!("calib.{step}_host_ns_per_byte"),
            host,
            "ns/B",
            Clock::Host,
            format!("{what} on {MODULE}, median of {REPS}; CostModel {model_ns} ns/B"),
        );
        m.note(
            &format!("calib.{step}_host_to_model"),
            host / model_ns,
            "ratio",
            Clock::None,
            format!("host / CostModel {model_ns} ns/B (model unvalidated)"),
        );
    }
}
