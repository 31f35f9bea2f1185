//! `push_monitor`: steady push monitoring with guest writes alongside.
//!
//! Twelve W32 guests with the standard corpus, four monitored modules, a
//! `ContinuousMonitor` with `MonitorConfig::default()` apart from the
//! module list, write traps armed and a clean snapshot taken. One
//! operation is one `run_round_events`. Before every round the benchmark
//! makes seeded benign writes into module `.data` pages (traps fire, the
//! verdict stays clean); every [`INFECT_EVERY`]-th round it also patches
//! `.text` on one seeded VM, which must be flagged in that round and is
//! then reverted with `ContinuousMonitor::remediate`.

use std::collections::HashMap;

use mc_hypervisor::{AddressWidth, EventCursor, Hypervisor, VmId};
use mc_pe::corpus::standard_corpus;
use mc_pe::parser::ParsedModule;
use modchecker::{
    remediate_vms, CaptureCache, CheckError, ContinuousMonitor, EventPlane, ModChecker,
    MonitorConfig, PoolCheckReport,
};
use modchecker_repro::testbed::Testbed;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::{mean, ratio, Digest, HostTimes, StopRule};
use crate::stats::{self, Clock};
use crate::trace::Tracer;
use crate::{timed_setup, Outcome, Params};

const VMS: usize = 12;
const MODULES: [&str; 4] = ["hal.dll", "ndis.sys", "fltmgr.sys", "ksecdd.sys"];
/// Every this many rounds, the last one carries an infection.
const INFECT_EVERY: usize = 4;
/// Rounds in the deterministic window (sim-clock figures, digest).
const WINDOW: usize = 16;
const SNAPSHOT: &str = "clean";

type Round = Vec<(String, Result<PoolCheckReport, CheckError>)>;

/// The monitor under test: the library's `ContinuousMonitor` (untraced
/// run) or the same round assembled from the public event-plane, cache
/// and pool calls it is made of (traced run). One lives per run, so the
/// variants' size difference does not matter.
#[allow(clippy::large_enum_variant)]
enum Monitor {
    Library(ContinuousMonitor),
    Layers {
        plane: EventPlane,
        cache: CaptureCache,
        checker: ModChecker,
    },
}

fn config() -> MonitorConfig {
    MonitorConfig {
        modules: MODULES.iter().map(|m| (*m).to_string()).collect(),
        ..MonitorConfig::default()
    }
}

impl Monitor {
    fn new(hv: &mut Hypervisor, vms: &[VmId], layered: bool) -> Self {
        let config = config();
        if layered {
            let mut plane = EventPlane::new();
            plane
                .arm_modules(hv, vms, &config.modules)
                .expect("arming a healthy cloud");
            Monitor::Layers {
                plane,
                cache: CaptureCache::new(),
                checker: ModChecker::with_config(config.check),
            }
        } else {
            let monitor = ContinuousMonitor::new(config);
            monitor.arm_events(hv, vms).expect("arming a healthy cloud");
            Monitor::Library(monitor)
        }
    }

    fn round(&mut self, tracer: &mut Tracer, hv: &Hypervisor, vms: &[VmId]) -> Round {
        match self {
            Monitor::Library(m) => m.run_round_events(hv, vms),
            Monitor::Layers {
                plane,
                cache,
                checker,
            } => {
                tracer.span("event", || plane.drain(hv));
                let mut out = Vec::with_capacity(MODULES.len());
                for m in MODULES {
                    let trusted = tracer.span("event", || plane.trusted_for(m, vms));
                    let r = tracer.span("cache", || {
                        checker.check_pool_with_cache_trusted(hv, vms, m, cache, &trusted)
                    });
                    out.push((m.to_string(), r));
                }
                tracer.span("event", || plane.clear_dirty());
                out
            }
        }
    }

    fn remediate(&mut self, tracer: &mut Tracer, hv: &mut Hypervisor, report: &PoolCheckReport) {
        tracer.span("monitor.remediate", || match self {
            Monitor::Library(m) => {
                m.remediate(hv, report, SNAPSHOT).expect("snapshot exists");
            }
            Monitor::Layers { cache, .. } => {
                for (vm, _) in remediate_vms(hv, report, SNAPSHOT).expect("snapshot exists") {
                    cache.evict_vm(vm);
                }
            }
        });
    }
}

/// Virtual address range `(rva, len)` of the first section matching
/// `pick` in each monitored module's file.
fn section_spans(
    pick: impl Fn(&mc_pe::parser::SectionView) -> bool,
) -> HashMap<String, (u64, u64)> {
    standard_corpus(AddressWidth::W32)
        .into_iter()
        .filter(|bp| MODULES.contains(&bp.name.as_str()))
        .map(|bp| {
            let file = bp.build().expect("corpus builds");
            let parsed = ParsedModule::parse_file(file.bytes()).expect("corpus parses");
            let s = parsed
                .sections
                .iter()
                .find(|s| pick(s))
                .unwrap_or_else(|| panic!("{} lacks the section", bp.name));
            (
                bp.name.clone(),
                (u64::from(s.virtual_address), u64::from(s.virtual_size)),
            )
        })
        .collect()
}

pub fn run(p: Params, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let data = section_spans(|s| s.is_writable() && !s.is_executable());
    let text = section_spans(mc_pe::parser::SectionView::is_executable);

    let layered = tracer.enabled();
    let (mut bed, mut monitor) = timed_setup(&mut out, || {
        let mut bed = tracer.span("hv.build", || Testbed::cloud(VMS));
        let ids = bed.vm_ids.clone();
        let mut monitor = Monitor::new(&mut bed.hv, &ids, layered);
        for id in &ids {
            bed.hv.vm_mut(*id).expect("vm exists").snapshot(SNAPSHOT);
        }
        let warm = monitor.round(tracer, &bed.hv, &ids);
        assert!(
            warm.iter()
                .all(|(_, r)| r.as_ref().is_ok_and(PoolCheckReport::all_clean)),
            "the warm-up round over a clean cloud must be clean"
        );
        (bed, monitor)
    });
    let ids = bed.vm_ids.clone();
    let names: Vec<String> = ids
        .iter()
        .map(|id| bed.hv.vm(*id).expect("vm exists").name.clone())
        .collect();
    // The benchmark's own trap subscriber, to time the infecting write.
    let mut cursor = EventCursor::new();
    bed.hv.drain_write_events(&mut cursor);

    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x9054_4D0E);
    let stop = StopRule::new(p.budget(), WINDOW, INFECT_EVERY);
    let mut host = HostTimes::default();
    let mut digest = Digest::default();
    let mut sim_round = Vec::new();
    let mut detect = Vec::new();
    let mut window_reports: Vec<PoolCheckReport> = Vec::new();
    let mut status: HashMap<(String, String), bool> = HashMap::new();
    let (mut changed, mut writes) = (0u64, 0u64);
    let metrics_before = match &monitor {
        Monitor::Library(m) => Some((m.metrics(), m.cache_stats(), m.event_stats())),
        Monitor::Layers { .. } => None,
    };
    let mut round = 0usize;
    while !stop.done(round) {
        // Benign guest activity: 1–3 writes into `.data` pages.
        for _ in 0..rng.random_range(1..=3usize) {
            let vm = rng.random_range(0..VMS);
            let m = MODULES[rng.random_range(0..MODULES.len())];
            let (rva, len) = data[m];
            let off = rva + rng.random_range(0..len.saturating_sub(8).max(1));
            let bytes = rng.random::<u32>().to_le_bytes();
            bed.guests[vm]
                .patch_module(&mut bed.hv, m, off, &bytes)
                .expect("data write lands in the image");
            writes += 1;
        }
        // Every INFECT_EVERY-th round: a `.text` patch on one seeded VM.
        let infection = if round % INFECT_EVERY == INFECT_EVERY - 1 {
            let vm = rng.random_range(0..VMS);
            let m = MODULES[rng.random_range(0..MODULES.len())];
            let (rva, len) = text[m];
            let off = rva + 2 * rng.random_range(0..(len - 8) / 2);
            #[allow(clippy::cast_possible_truncation)]
            let bytes = [0xCC, 0xE9, round as u8, 0x90];
            bed.hv.drain_write_events(&mut cursor);
            bed.guests[vm]
                .patch_module(&mut bed.hv, m, off, &bytes)
                .expect("text write lands in the image");
            let latency = bed
                .hv
                .drain_write_events(&mut cursor)
                .iter()
                .map(|e| e.latency.as_millis_f64())
                .fold(0.0f64, f64::max);
            Some((vm, m, latency))
        } else {
            None
        };

        tracer.set_op(round as u64);
        let root = tracer.enter("op");
        let start = std::time::Instant::now();
        let results = monitor.round(tracer, &bed.hv, &ids);
        host.op_ms.push(stats::ms(start.elapsed()));
        tracer.exit(root);

        // Score the round and find the report to remediate.
        let mut sim_total = 0.0f64;
        let mut to_remediate = None;
        for (module, result) in &results {
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("round {round} {module}: {e}"));
                    continue;
                }
            };
            let expected: Vec<String> = match infection {
                Some((vm, m, _)) if m == module => vec![names[vm].clone()],
                _ => Vec::new(),
            };
            let suspects: Vec<String> = report.suspects().map(|v| v.vm_name.clone()).collect();
            if suspects != expected {
                out.fail(format!(
                    "round {round} {module}: suspects {suspects:?}, expected {expected:?}"
                ));
            }
            for v in &report.verdicts {
                let key = (v.vm_name.clone(), module.clone());
                if status.insert(key, v.clean) == Some(!v.clean) {
                    changed += 1;
                }
            }
            // Sim time from the round's start to this module's verdict.
            sim_total += report.times.total().as_millis_f64();
            if let Some((_, m, latency)) = infection {
                if m == module {
                    if round < WINDOW {
                        detect.push(latency + sim_total);
                    }
                    if !report.all_clean() {
                        to_remediate = Some(report.clone());
                    }
                }
            }
            if round < WINDOW {
                digest.add(&serde_json::to_string(&report.to_json()).expect("serializes"));
                window_reports.push(report.clone());
            }
        }
        if round < WINDOW {
            sim_round.push(sim_total);
        }
        if let Some(report) = to_remediate {
            monitor.remediate(tracer, &mut bed.hv, &report);
        }
        round += 1;
        if round == WINDOW {
            if let (Monitor::Library(m), Some(before)) = (&monitor, &metrics_before) {
                record_window_layers(&mut out, m, before, &window_reports, changed, writes);
            }
        }
    }
    out.ops = round as u64;
    out.attempted = round as u64;
    host.record(&mut out.metrics, 1.0, "monitor rounds");
    out.metrics.note(
        "sim_op_ms_p50",
        stats::median(&sim_round),
        "ms",
        Clock::Sim,
        format!("round total, n={}", sim_round.len()),
    );
    out.metrics.note(
        "detect_sim_ms_p50",
        stats::median(&detect),
        "ms",
        Clock::Sim,
        format!(
            "trap delivery + round time to the flagging verdict, n={}",
            detect.len()
        ),
    );
    out.digest = digest.finish();
    out
}

/// Per-round layer figures over the deterministic window.
#[allow(clippy::cast_precision_loss)]
fn record_window_layers(
    out: &mut Outcome,
    m: &ContinuousMonitor,
    before: &(
        mc_obs::MetricsRegistry,
        modchecker::CacheStats,
        Option<modchecker::EventPlaneStats>,
    ),
    reports: &[PoolCheckReport],
    changed: u64,
    writes: u64,
) {
    let rounds = WINDOW as f64;
    let (reg0, cache0, ev0) = before;
    let reg = m.metrics();
    let cache = m.cache_stats();
    let ev = m.event_stats().unwrap_or_default();
    let ev0 = ev0.unwrap_or_default();
    let per_round = |x: u64| x as f64 / rounds;
    let l = &mut out.layers;
    l.push(
        "cache.hits",
        per_round(cache.hits - cache0.hits),
        "count",
        Clock::None,
    );
    l.push(
        "cache.partial_hits",
        per_round(cache.partial_hits - cache0.partial_hits),
        "count",
        Clock::None,
    );
    l.push(
        "cache.trusted_hits",
        per_round(cache.trusted_hits - cache0.trusted_hits),
        "count",
        Clock::None,
    );
    l.push(
        "cache.evictions",
        per_round(cache.evictions - cache0.evictions),
        "count",
        Clock::None,
    );
    let reused = cache.pages_reused - cache0.pages_reused;
    let refreshed = cache.pages_refreshed - cache0.pages_refreshed;
    l.push(
        "cache.page_reuse_ratio",
        ratio(reused, reused + refreshed),
        "ratio",
        Clock::None,
    );
    let gauge = |r: &mc_obs::MetricsRegistry, n: &str| r.gauge(n).unwrap_or(0.0) as u64;
    let reuses = gauge(&reg, "capture_arena_reuses") - gauge(reg0, "capture_arena_reuses");
    let allocs = gauge(&reg, "capture_arena_allocs") - gauge(reg0, "capture_arena_allocs");
    l.push(
        "arena.reuse_ratio",
        ratio(reuses, reuses + allocs),
        "ratio",
        Clock::None,
    );
    let drained = ev.events_drained - ev0.events_drained;
    l.push(
        "event.writes_drained",
        per_round(drained),
        "count",
        Clock::None,
    );
    l.push("hv.trap_events", per_round(drained), "count", Clock::None);
    l.push(
        "event.dirty_pairs",
        per_round(reg.counter("event_dirty_pairs_total") - reg0.counter("event_dirty_pairs_total")),
        "count",
        Clock::None,
    );
    let rescans = reg.counter("event_rescans_total") - reg0.counter("event_rescans_total");
    l.push("event.rescans", per_round(rescans), "count", Clock::None);
    l.note(
        "event.useful_rescan_ratio",
        ratio(changed, rescans),
        "ratio",
        Clock::None,
        format!("{changed} verdict changes / {rescans} rescans, {writes} benign writes"),
    );
    let per_op = |f: &dyn Fn(&PoolCheckReport) -> f64| mean(reports, f) * MODULES.len() as f64;
    l.push(
        "searcher.sim_ms",
        per_op(&|r| r.times.searcher.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    l.push(
        "parser.sim_ms",
        per_op(&|r| r.times.parser.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    l.push(
        "checker.sim_ms",
        per_op(&|r| r.times.checker.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    l.push(
        "checker.comparisons",
        per_op(&|r| r.matrix.len() as f64),
        "count",
        Clock::None,
    );
    l.push(
        "rva.residual_diffs",
        per_op(&|r| r.matrix.iter().map(|o| o.residual_diffs).sum::<usize>() as f64),
        "count",
        Clock::None,
    );
    l.push(
        "vmi.reads",
        per_op(&|r| r.vmi.reads as f64),
        "count",
        Clock::None,
    );
    l.push(
        "vmi.page_walks",
        per_op(&|r| r.vmi.page_walks as f64),
        "count",
        Clock::None,
    );
    l.push(
        "vmi.vectored_reads",
        per_op(&|r| r.vmi.vectored_reads as f64),
        "count",
        Clock::None,
    );
    l.push(
        "vmi.retries",
        per_op(&|r| r.vmi.retries as f64),
        "count",
        Clock::None,
    );
    let hits: u64 = reports.iter().map(|r| r.vmi.translate_cache_hits).sum();
    let walks: u64 = reports.iter().map(|r| r.vmi.page_walks).sum();
    l.push(
        "vmi.translate_hit_ratio",
        ratio(hits, hits + walks),
        "ratio",
        Clock::None,
    );
}
