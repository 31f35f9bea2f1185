//! ModChecker benchmark: four workloads driven through the public API,
//! every output scored against ground truth, metrics on two clocks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pool_scan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Standard output carries one human-readable line per metric (name,
//! value, unit, clock) and ends with one JSON object: the `end_to_end`
//! metrics of `BENCHMARK.json` with `--trace 0`, its `per_layer` metrics
//! with `--trace 1`. See `perfbench/README.md`.

mod calib;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{Clock, Metrics};
use trace::Tracer;

/// The JSON `end_to_end` set: figures every workload defines that stayed
/// within their bounds on a shared machine. Throughput, the tail and peak
/// memory are printed but not gated (see `perfbench/README.md`).
const END_TO_END: &[&str] = &["setup_s", "host_op_ms_p50", "ok_share"];

/// What one workload run hands back to the harness.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries for `attest_serve`).
    pub attempted: u64,
    /// Timed operations (per-layer figures are per operation).
    pub ops: u64,
    /// Operations whose output disagreed with ground truth.
    pub failed: u64,
    /// Service failures counted in `fail_share` that are not wrong
    /// outputs (typed rejections, unscannable answers).
    pub refused: u64,
    /// Operations with a wrong output caused by a diagnosed repository
    /// defect (see `perfbench/README.md`): counted in `fail_share`, not
    /// in `failed`.
    pub known_defects: u64,
    /// Every end-to-end figure of the workload, both clocks.
    pub metrics: Metrics,
    /// Per-layer figures: sim-clock and counts from the library's reports,
    /// host self times added by the traced run.
    pub layers: Metrics,
    /// Digest of the sim-clock figures and verdict bytes of the run's
    /// deterministic window; equal seeds must give equal digests.
    pub digest: String,
    /// First wrong verdicts, for the error report.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// Run parameters shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
}

impl Params {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Times `build` [`SETUP_REPS`] times, keeps the last product and records
/// the median as `setup_s`.
pub fn timed_setup<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut product = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous product first so peak memory stays one copy.
        drop(product.take());
        let t = Instant::now();
        product = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    out.metrics.note(
        "setup_s",
        stats::median(&times),
        "s",
        Clock::Host,
        format!("median of {SETUP_REPS} set-ups"),
    );
    product.expect("at least one set-up")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, params: Params, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "pool_scan" => Ok(workloads::pool_scan::run(params, tracer)),
        "push_monitor" => Ok(workloads::push_monitor::run(params, tracer)),
        "attest_serve" => Ok(workloads::attest_serve::run(params, tracer)),
        "fleet_audit" => Ok(workloads::fleet_audit::run(params, tracer)),
        other => Err(format!(
            "unknown workload {other:?} (pool_scan, push_monitor, attest_serve, fleet_audit)"
        )),
    }
}

fn print_metrics(section: &str, metrics: &Metrics) {
    for m in &metrics.0 {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "{section} {:<32} {:>14.6} {:<8} [{}]{note}",
            m.name,
            m.value,
            m.unit,
            m.clock.as_str()
        );
    }
}

fn json_metrics(metrics: &Metrics, names: &[&str]) -> serde_json::Value {
    let mut obj = Vec::with_capacity(names.len());
    for name in names {
        let m = metrics
            .0
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not recorded"));
        obj.push((
            (*name).to_string(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        ));
    }
    serde_json::Value::Object(obj)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );

    let result = if args.trace {
        traced(&args.workload, params)
    } else {
        let mut tracer = Tracer::new(false);
        run_workload(&args.workload, params, &mut tracer)
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    #[allow(clippy::cast_precision_loss)]
    let fail_share =
        (out.failed + out.refused + out.known_defects) as f64 / out.attempted.max(1) as f64;
    out.metrics.note(
        "fail_share",
        fail_share,
        "share",
        Clock::None,
        format!(
            "{} wrong + {} known-defect + {} refused of {} attempted",
            out.failed, out.known_defects, out.refused, out.attempted
        ),
    );
    out.metrics.note(
        "ok_share",
        1.0 - fail_share,
        "share",
        Clock::None,
        "1 - fail_share".into(),
    );
    out.metrics
        .push("peak_rss_mb", stats::peak_rss_mb(), "MiB", Clock::None);

    print_metrics("metric", &out.metrics);
    print_metrics("layer", &out.layers);
    println!("determinism digest={} seed={}", out.digest, args.seed);

    let correct = out.failed == 0;
    for e in &out.errors {
        eprintln!("wrong output (seed {}): {e}", args.seed);
    }
    let metrics = if args.trace {
        let names: Vec<&str> = workloads::PER_LAYER.iter().map(|(n, _)| *n).collect();
        json_metrics(&out.layers, &names)
    } else {
        json_metrics(&out.metrics, END_TO_END)
    };
    let line = serde_json::json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&line).expect("serializable"));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: wrong verdicts on seed {}", args.seed);
        ExitCode::from(1)
    }
}

/// The traced run: half the budget untraced (the overhead baseline), half
/// traced (the per-layer numbers), then the calibration rows.
fn traced(workload: &str, params: Params) -> Result<Outcome, String> {
    let half = Params {
        seconds: params.seconds / 2.0,
        ..params
    };
    let mut off = Tracer::new(false);
    let base = run_workload(workload, half, &mut off)?;
    let mut tracer = Tracer::new(true);
    let mut out = run_workload(workload, half, &mut tracer)?;
    out.attempted += base.attempted;
    out.failed += base.failed;
    out.refused += base.refused;
    out.known_defects += base.known_defects;
    out.errors.extend(base.errors);
    // Sim-clock and count figures come from the library's own reports in
    // the untraced half; the traced half contributes host self times.
    out.layers = base.layers;
    out.digest = base.digest;

    let untraced = base.metrics.get("host_op_ms_p50").unwrap_or(0.0);
    let traced_p50 = out.metrics.get("host_op_ms_p50").unwrap_or(0.0);
    let self_ms = tracer.self_ms();
    workloads::fill_layers(&mut out, &self_ms);
    out.layers
        .push("trace.untraced_op_ms_p50", untraced, "ms", Clock::Host);
    out.layers
        .push("trace.traced_op_ms_p50", traced_p50, "ms", Clock::Host);
    let overhead = if untraced > 0.0 {
        100.0 * (traced_p50 / untraced - 1.0)
    } else {
        0.0
    };
    out.layers
        .push("trace.overhead_pct", overhead, "%", Clock::Host);
    #[allow(clippy::cast_precision_loss)]
    out.layers
        .push("trace.spans", tracer.len() as f64, "count", Clock::None);
    calib::rows(&mut out.layers);

    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("trace-{workload}-seed{}.jsonl", params.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(out)
}
