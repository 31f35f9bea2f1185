//! `pool_scan`: the paper's one-shot check.
//!
//! Fifteen W32 guests with the standard corpus (the paper's Dom1–Dom15);
//! one seeded victim carries a seeded §V.B infection. One operation is
//! one `check_pool` of one module over all fifteen VMs with the paper's
//! pairwise Algorithm 2, cycling through the corpus. No cache, events,
//! scheduler or serving layer is involved.

use mc_attacks::Technique;
use mc_hypervisor::{AddressWidth, Hypervisor, VmId};
use mc_pe::corpus::standard_corpus;
use mc_vmi::VmiSession;
use modchecker::{
    compare_pair_with, CheckConfig, CompareStrategy, ExtractedModule, ModChecker, ModuleSearcher,
    PairScratch, PoolCheckReport, QuorumStatus, ScanMode,
};
use modchecker_repro::testbed::Testbed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{mean, ratio, Digest, HostTimes, StopRule};
use crate::stats::{self, Clock};
use crate::trace::Tracer;
use crate::{timed_setup, Outcome, Params};

const VMS: usize = 15;

pub fn run(p: Params, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x9001_5CA2);
    let technique = Technique::ALL[rng.random_range(0..Technique::ALL.len())];
    let victim = rng.random_range(0..VMS);
    let target = technique.infection().target_module().to_string();
    println!("# pool_scan: {technique} on dom{} ({target})", victim + 1);

    let bed = timed_setup(&mut out, || {
        tracer.span("hv.build", || {
            Testbed::infected_cloud(VMS, technique, &[victim])
                .expect("the paper's techniques apply to the standard corpus")
                .0
        })
    });
    let modules: Vec<String> = standard_corpus(AddressWidth::W32)
        .into_iter()
        .map(|bp| bp.name)
        .collect();
    let names: Vec<String> = bed
        .vm_ids
        .iter()
        .map(|id| bed.hv.vm(*id).expect("vm exists").name.clone())
        .collect();
    let victim_name = names[victim].clone();
    let checker = ModChecker::with_config(CheckConfig {
        mode: ScanMode::Sequential,
        compare: CompareStrategy::Pairwise,
        ..CheckConfig::default()
    });

    // The deterministic window is the first pass over the corpus; the
    // loop then repeats whole passes until the budget is spent.
    let cycle = modules.len();
    let stop = StopRule::new(p.budget(), cycle, cycle);
    let mut host = HostTimes::default();
    let mut window: Vec<PoolCheckReport> = Vec::with_capacity(cycle);
    let mut first_bytes: Vec<String> = Vec::with_capacity(cycle);
    let mut digest = Digest::default();
    let mut op = 0usize;
    while !stop.done(op) {
        let module = &modules[op % cycle];
        let expected: Vec<String> = if *module == target {
            vec![victim_name.clone()]
        } else {
            Vec::new()
        };
        tracer.set_op(op as u64);
        if tracer.enabled() {
            let root = tracer.enter("op");
            let start = std::time::Instant::now();
            let suspects = decomposed(tracer, &bed.hv, &bed.vm_ids, &names, module);
            host.op_ms.push(stats::ms(start.elapsed()));
            tracer.exit(root);
            match suspects {
                Ok(s) if s == expected => {}
                Ok(s) => out.fail(format!("{module}: suspects {s:?}, expected {expected:?}")),
                Err(e) => out.fail(format!("{module}: {e}")),
            }
        } else {
            let result = host.time(|| checker.check_pool(&bed.hv, &bed.vm_ids, module));
            match result {
                Ok(report) => {
                    let suspects: Vec<String> =
                        report.suspects().map(|v| v.vm_name.clone()).collect();
                    if suspects != expected || report.quorum != QuorumStatus::Full {
                        out.fail(format!(
                            "{module}: suspects {suspects:?} quorum {:?}, expected {expected:?}",
                            report.quorum
                        ));
                    }
                    let bytes = serde_json::to_string(&report.to_json()).expect("serializes");
                    if op < cycle {
                        digest.add(&bytes);
                        first_bytes.push(bytes);
                        window.push(report);
                    } else if bytes != first_bytes[op % cycle] {
                        out.fail(format!("{module}: report bytes changed between passes"));
                    }
                }
                Err(e) => out.fail(format!("{module}: {e}")),
            }
        }
        op += 1;
    }
    out.ops = op as u64;
    out.attempted = op as u64;
    host.record(&mut out.metrics, 1.0, "pool checks");
    if !window.is_empty() {
        let sim: Vec<f64> = window
            .iter()
            .map(|r| r.times.total().as_millis_f64())
            .collect();
        out.metrics.note(
            "sim_op_ms_p50",
            stats::median(&sim),
            "ms",
            Clock::Sim,
            format!("ComponentTimes total, n={}", sim.len()),
        );
        record_layers(&mut out, &window);
    }
    out.digest = digest.finish();
    out
}

/// Per-operation layer figures from the library's reports.
fn record_layers(out: &mut Outcome, window: &[PoolCheckReport]) {
    let l = &mut out.layers;
    l.push(
        "searcher.sim_ms",
        mean(window, |r| r.times.searcher.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    l.push(
        "parser.sim_ms",
        mean(window, |r| r.times.parser.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    l.push(
        "checker.sim_ms",
        mean(window, |r| r.times.checker.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    #[allow(clippy::cast_precision_loss)]
    {
        l.push(
            "checker.comparisons",
            mean(window, |r| r.matrix.len() as f64),
            "count",
            Clock::None,
        );
        l.push(
            "rva.residual_diffs",
            mean(window, |r| {
                r.matrix.iter().map(|o| o.residual_diffs).sum::<usize>() as f64
            }),
            "count",
            Clock::None,
        );
        l.push(
            "vmi.reads",
            mean(window, |r| r.vmi.reads as f64),
            "count",
            Clock::None,
        );
        l.push(
            "vmi.page_walks",
            mean(window, |r| r.vmi.page_walks as f64),
            "count",
            Clock::None,
        );
        l.push(
            "vmi.vectored_reads",
            mean(window, |r| r.vmi.vectored_reads as f64),
            "count",
            Clock::None,
        );
        l.push(
            "vmi.retries",
            mean(window, |r| r.vmi.retries as f64),
            "count",
            Clock::None,
        );
        l.push(
            "hv.fault_injections",
            mean(window, |r| r.fault_injections as f64),
            "count",
            Clock::None,
        );
    }
    let hits: u64 = window.iter().map(|r| r.vmi.translate_cache_hits).sum();
    let walks: u64 = window.iter().map(|r| r.vmi.page_walks).sum();
    l.push(
        "vmi.translate_hit_ratio",
        ratio(hits, hits + walks),
        "ratio",
        Clock::None,
    );
}

/// The traced operation: the same pool check driven through each layer's
/// public call — list walk (`searcher`), image copy (`vmi`), parse and
/// header hash (`parser`), Algorithm 2 over every pair (`checker`) — and
/// the majority vote tallied here. Returns the suspect VM names.
fn decomposed(
    tracer: &mut Tracer,
    hv: &Hypervisor,
    vms: &[VmId],
    names: &[String],
    module: &str,
) -> Result<Vec<String>, String> {
    let config = CheckConfig::default();
    let mut captures = Vec::with_capacity(vms.len());
    for &vm in vms {
        let mut session = VmiSession::attach(hv, vm)
            .map_err(|e| e.to_string())?
            .with_retry(config.retry)
            .with_fast_capture();
        let entry = tracer
            .span("searcher", || {
                ModuleSearcher::find_ref(&mut session, module)
            })
            .map_err(|e| e.to_string())?;
        let image = tracer
            .span("vmi", || ModuleSearcher::capture(&mut session, &entry))
            .map_err(|e| e.to_string())?;
        let extracted = tracer
            .span("parser", || ExtractedModule::new(image))
            .map_err(|e| e.to_string())?;
        captures.push(extracted);
    }
    let n = captures.len();
    let mut successes = vec![0usize; n];
    let span = tracer.enter("checker");
    let mut scratch = PairScratch::new();
    for i in 0..n {
        for j in i + 1..n {
            let outcome = compare_pair_with(&captures[i], &captures[j], None, &mut scratch)
                .map_err(|e| e.to_string())?;
            if outcome.matches() {
                successes[i] += 1;
                successes[j] += 1;
            }
        }
    }
    tracer.exit(span);
    Ok(successes
        .iter()
        .zip(names)
        .filter(|(s, _)| **s * 2 < n)
        .map(|(_, name)| name.clone())
        .collect())
}
