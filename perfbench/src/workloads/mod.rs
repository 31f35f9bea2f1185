//! The four workloads and the per-layer metric table they share.

pub mod attest_serve;
pub mod fleet_audit;
pub mod pool_scan;
pub mod push_monitor;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::{self, Clock, Metrics};
use crate::Outcome;

/// Every per-layer metric of the traced run, with its JSON unit. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Host self time per operation, from the benchmark's spans.
    ("hv.build_host_ms", "ms"),
    ("searcher.list_host_ms", "ms"),
    ("vmi.capture_host_ms", "ms"),
    ("parser.host_ms", "ms"),
    ("checker.host_ms", "ms"),
    ("cache.scan_host_ms", "ms"),
    ("event.host_ms", "ms"),
    ("monitor.remediate_host_ms", "ms"),
    ("sched.sweep_host_ms", "ms"),
    ("listdiff.host_ms", "ms"),
    ("crossview.host_ms", "ms"),
    ("analysis.host_ms", "ms"),
    ("serve.run_host_ms", "ms"),
    ("bench.self_host_ms", "ms"),
    // Simulated time per operation, from the library's reports.
    ("searcher.sim_ms", "sim_ms"),
    ("parser.sim_ms", "sim_ms"),
    ("checker.sim_ms", "sim_ms"),
    ("sched.makespan_sim_ms", "sim_ms"),
    ("serve.refresh_busy_sim_ms", "sim_ms"),
    ("serve.service_busy_sim_ms", "sim_ms"),
    // Work counts per operation.
    ("checker.comparisons", "count"),
    ("rva.residual_diffs", "count"),
    ("vmi.reads", "count"),
    ("vmi.page_walks", "count"),
    ("vmi.translate_hit_ratio", "ratio"),
    ("vmi.vectored_reads", "count"),
    ("vmi.retries", "count"),
    ("cache.hits", "count"),
    ("cache.partial_hits", "count"),
    ("cache.trusted_hits", "count"),
    ("cache.evictions", "count"),
    ("cache.page_reuse_ratio", "ratio"),
    ("arena.reuse_ratio", "ratio"),
    ("event.writes_drained", "count"),
    ("event.dirty_pairs", "count"),
    ("event.rescans", "count"),
    ("event.useful_rescan_ratio", "ratio"),
    ("sched.units", "count"),
    ("serve.rescans", "count"),
    ("serve.rescan_failures", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.rejected_quota", "count"),
    ("serve.rejected_queue_full", "count"),
    ("serve.rejected_deadline", "count"),
    ("serve.quarantine_events", "count"),
    ("analysis.runs", "count"),
    ("analysis.hit_ratio", "ratio"),
    ("crossview.findings", "count"),
    ("hv.trap_events", "count"),
    ("hv.fault_injections", "count"),
    // Tracing cost.
    ("trace.untraced_op_ms_p50", "ms"),
    ("trace.traced_op_ms_p50", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    // CPU-side cost-model calibration (model is unvalidated).
    ("calib.parse_host_ns_per_byte", "ns/B"),
    ("calib.parse_host_to_model", "ratio"),
    ("calib.md5_host_ns_per_byte", "ns/B"),
    ("calib.md5_host_to_model", "ratio"),
    ("calib.diff_host_ns_per_byte", "ns/B"),
    ("calib.diff_host_to_model", "ratio"),
];

/// Span name → per-layer metric fed by its self time.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("searcher", "searcher.list_host_ms"),
    ("vmi", "vmi.capture_host_ms"),
    ("parser", "parser.host_ms"),
    ("checker", "checker.host_ms"),
    ("cache", "cache.scan_host_ms"),
    ("event", "event.host_ms"),
    ("monitor.remediate", "monitor.remediate_host_ms"),
    ("sched", "sched.sweep_host_ms"),
    ("listdiff", "listdiff.host_ms"),
    ("crossview", "crossview.host_ms"),
    ("analysis", "analysis.host_ms"),
    ("serve", "serve.run_host_ms"),
    ("op", "bench.self_host_ms"),
];

/// Adds host self time per operation from the spans, then fills every
/// per-layer metric the workload did not record with 0.
pub fn fill_layers(out: &mut Outcome, self_ms: &BTreeMap<&'static str, f64>) {
    #[allow(clippy::cast_precision_loss)]
    let ops = out.ops.max(1) as f64;
    for (span, metric) in SPAN_METRICS {
        let total = self_ms.get(span).copied().unwrap_or(0.0);
        out.layers.push(metric, total / ops, "ms", Clock::Host);
    }
    #[allow(clippy::cast_precision_loss)]
    let build = self_ms.get("hv.build").copied().unwrap_or(0.0) / crate::SETUP_REPS as f64;
    out.layers.note(
        "hv.build_host_ms",
        build,
        "ms",
        Clock::Host,
        "per set-up".into(),
    );
    for (name, unit) in PER_LAYER {
        if out.layers.get(name).is_none()
            && !name.starts_with("trace.")
            && !name.starts_with("calib.")
        {
            let clock = if *unit == "sim_ms" {
                Clock::Sim
            } else {
                Clock::None
            };
            out.layers.push(name, 0.0, unit, clock);
        }
    }
}

/// Host-clock timing of the measured operations.
#[derive(Debug, Default)]
pub struct HostTimes {
    /// One entry per operation, in milliseconds.
    pub op_ms: Vec<f64>,
}

impl HostTimes {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.op_ms.push(stats::ms(t.elapsed()));
        out
    }

    /// Records `host_ops_per_s` (`work_per_op` units of work per timed
    /// operation), `host_op_ms_p50` and `host_op_ms_tail`.
    pub fn record(&self, m: &mut Metrics, work_per_op: f64, work: &str) {
        let busy_s: f64 = self.op_ms.iter().sum::<f64>() / 1e3;
        #[allow(clippy::cast_precision_loss)]
        let n = self.op_ms.len() as f64;
        m.note(
            "host_ops_per_s",
            n * work_per_op / busy_s,
            "1/s",
            Clock::Host,
            format!("{work} per second of operation time"),
        );
        m.note(
            "host_op_ms_p50",
            stats::median(&self.op_ms),
            "ms",
            Clock::Host,
            format!("n={}", self.op_ms.len()),
        );
        let (tail, pct) = stats::tail(&self.op_ms);
        m.note(
            "host_op_ms_tail",
            tail,
            "ms",
            Clock::Host,
            format!("p{pct:.1}, n={}, 10 samples beyond", self.op_ms.len()),
        );
    }
}

/// The measuring loop's stop rule: stop at a cycle boundary once the
/// budget is spent and the deterministic window is complete.
#[derive(Debug)]
pub struct StopRule {
    start: Instant,
    budget: Duration,
    min_ops: usize,
    cycle: usize,
}

impl StopRule {
    pub fn new(budget: Duration, min_ops: usize, cycle: usize) -> Self {
        StopRule {
            start: Instant::now(),
            budget,
            min_ops,
            cycle: cycle.max(1),
        }
    }

    pub fn done(&self, ops: usize) -> bool {
        ops >= self.min_ops && ops.is_multiple_of(self.cycle) && self.start.elapsed() >= self.budget
    }
}

/// MD5 over the deterministic part of a run, as lowercase hex.
#[derive(Debug, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn add(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
        self.0.push(b'\n');
    }

    pub fn finish(&self) -> String {
        mc_md5::md5(&self.0).to_hex()
    }
}

/// Mean of `f` over a slice, 0 when empty.
#[allow(clippy::cast_precision_loss)]
pub fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    items.iter().map(f).sum::<f64>() / items.len() as f64
}

/// `num / den`, 0 when the base is 0.
#[allow(clippy::cast_precision_loss)]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
