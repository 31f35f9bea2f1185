//! `attest_serve`: the attestation daemon under open-loop load.
//!
//! `AttestServer` with `ServeConfig::default()` over
//! `uniform_fleet(4, 3, 2, seed)` with 5 % transient read faults. Queries
//! come from `mc_loadgen::generate`: bursty, three tenants, 2 % ghost
//! modules, at three fixed offered rates ([`MEAN_GAPS_US`]). The load is
//! open loop on the simulated clock: every arrival lands exactly on its
//! due time, so generator lateness is zero by construction. One operation
//! is one `AttestServer::run` over one rate's stream; runs cycle through
//! the three rates.

use mc_hypervisor::{FaultPlan, SimDuration};
use mc_loadgen::QueryProfile;
use modchecker::{
    AttestQuery, AttestServer, Confidence, Disposition, Rejected, ServeConfig, ServeReport,
    ServedQuery,
};
use modchecker_repro::fleetgen::uniform_fleet;

use super::{mean, Digest, HostTimes, StopRule};
use crate::stats::Clock;
use crate::trace::Tracer;
use crate::{timed_setup, Outcome, Params};

/// Spread-mode mean gaps of the three offered rates, lowest rate first.
const MEAN_GAPS_US: [u64; 3] = [1000, 500, 250];
const QUERIES: usize = 2000;
const FAULT_RATE: f64 = 0.05;
/// A rate is sustained when answered p99 latency and the failure share
/// both stay within these limits.
const P99_LIMIT_MS: f64 = 4.0;
const FAIL_LIMIT: f64 = 0.05;

enum Score {
    Ok,
    Refused,
    Wrong(String),
}

fn score(q: &ServedQuery) -> Score {
    let ghost = q.module.starts_with("ghost-");
    match &q.disposition {
        Disposition::Rejected(Rejected::UnknownTarget) if ghost => Score::Ok,
        Disposition::Rejected(Rejected::UnknownTarget) => {
            Score::Wrong(format!("query {}: real module {} unknown", q.seq, q.module))
        }
        Disposition::Rejected(_) => Score::Refused,
        // Before the first committed sweep the daemon has no catalog and
        // answers every module, ghosts included, as Unscannable.
        Disposition::Answered {
            confidence: Confidence::Unscannable,
            ..
        } => Score::Refused,
        Disposition::Answered { .. } if ghost => Score::Wrong(format!(
            "query {}: ghost module {} answered",
            q.seq, q.module
        )),
        Disposition::Answered {
            verdict: Some(v), ..
        } if v.clean => Score::Ok,
        Disposition::Answered { verdict, .. } => Score::Wrong(format!(
            "query {}: {}/{} on a clean fleet answered {verdict:?}",
            q.seq, q.pool, q.module
        )),
    }
}

/// One rate's deterministic figures.
struct RateRow {
    offered_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    fail_share: f64,
    fresh_share: f64,
}

#[allow(clippy::cast_precision_loss)]
fn rate_row(stream: &[AttestQuery], report: &ServeReport) -> RateRow {
    let horizon = stream.last().map_or(1.0, |q| q.at.as_secs_f64());
    let failures = report
        .queries
        .iter()
        .filter(|q| !matches!(score(q), Score::Ok))
        .count();
    let real = report
        .queries
        .iter()
        .filter(|q| !q.module.starts_with("ghost-"))
        .count();
    let ms = |d: Option<SimDuration>| d.map_or(0.0, SimDuration::as_millis_f64);
    RateRow {
        offered_qps: stream.len() as f64 / horizon,
        p50_ms: ms(report.latency_percentile(50.0)),
        p99_ms: ms(report.latency_percentile(99.0)),
        fail_share: failures as f64 / report.queries.len().max(1) as f64,
        fresh_share: report.answered_at(Confidence::Fresh) as f64 / real.max(1) as f64,
    }
}

pub fn run(p: Params, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (bed, streams) = timed_setup(&mut out, || {
        let mut bed = tracer.span("hv.build", || uniform_fleet(4, 3, 2, p.seed));
        bed.hv
            .inject_fault_plan(FaultPlan::transient(p.seed, FAULT_RATE));
        let catalog: Vec<(String, String)> = bed
            .truth
            .consensus
            .iter()
            .flat_map(|(pool, modules)| modules.iter().map(move |m| (pool.clone(), m.clone())))
            .collect();
        let streams: Vec<Vec<AttestQuery>> = MEAN_GAPS_US
            .iter()
            .map(|&gap| {
                let profile = QueryProfile {
                    seed: p.seed,
                    queries: QUERIES,
                    mean_gap: SimDuration::from_micros(gap),
                    ..QueryProfile::default()
                };
                mc_loadgen::generate(&profile, &catalog)
            })
            .collect();
        // Warm-up: one run at the lowest rate.
        tracer.span("serve", || {
            AttestServer::new(ServeConfig::default()).run(&bed.hv, &bed.fleet, &streams[0])
        });
        (bed, streams)
    });

    let cycle = MEAN_GAPS_US.len();
    let stop = StopRule::new(p.budget(), cycle, cycle);
    let mut host = HostTimes::default();
    let mut digest = Digest::default();
    let mut first: Vec<String> = Vec::with_capacity(cycle);
    let mut window: Vec<ServeReport> = Vec::with_capacity(cycle);
    let mut op = 0usize;
    while !stop.done(op) {
        let rate = op % cycle;
        let stream = &streams[rate];
        tracer.set_op(op as u64);
        let root = tracer.enter("op");
        let report = host.time(|| {
            tracer.span("serve", || {
                AttestServer::new(ServeConfig::default()).run(&bed.hv, &bed.fleet, stream)
            })
        });
        tracer.exit(root);
        for q in &report.queries {
            match score(q) {
                Score::Ok => {}
                Score::Refused => out.refused += 1,
                Score::Wrong(msg) => out.fail(msg),
            }
        }
        out.attempted += report.queries.len() as u64;
        let bytes = serde_json::to_string(&report.to_json()).expect("serializes");
        if op < cycle {
            digest.add(&bytes);
            first.push(bytes);
            window.push(report);
        } else if bytes != first[rate] {
            out.fail(format!("rate {rate}: report bytes changed between runs"));
        }
        op += 1;
    }
    out.ops = op as u64;
    #[allow(clippy::cast_precision_loss)]
    host.record(&mut out.metrics, QUERIES as f64, "queries");

    let rows: Vec<RateRow> = window
        .iter()
        .zip(&streams)
        .map(|(r, s)| rate_row(s, r))
        .collect();
    for (row, gap) in rows.iter().zip(MEAN_GAPS_US) {
        out.metrics.note(
            &format!("answer_sim_ms_p99@{gap}us"),
            row.p99_ms,
            "ms",
            Clock::Sim,
            format!(
                "offered {:.1} q/s, p50 {:.4} ms, fail_share {:.4}",
                row.offered_qps, row.p50_ms, row.fail_share
            ),
        );
    }
    let mid = &rows[1];
    out.metrics.note(
        "answer_sim_ms_p50",
        mid.p50_ms,
        "ms",
        Clock::Sim,
        format!("at {} us mean gap", MEAN_GAPS_US[1]),
    );
    out.metrics.note(
        "answer_sim_ms_p99",
        mid.p99_ms,
        "ms",
        Clock::Sim,
        format!("at {} us mean gap", MEAN_GAPS_US[1]),
    );
    let sustained = rows
        .iter()
        .filter(|r| r.p99_ms <= P99_LIMIT_MS && r.fail_share <= FAIL_LIMIT)
        .map(|r| r.offered_qps)
        .fold(0.0f64, f64::max);
    out.metrics.note(
        "sustained_qps_sim",
        sustained,
        "1/s",
        Clock::Sim,
        format!(
            "highest offered rate with p99 <= {P99_LIMIT_MS} ms and fail_share <= {FAIL_LIMIT}"
        ),
    );
    out.metrics.note(
        "fresh_share",
        mid.fresh_share,
        "share",
        Clock::None,
        format!(
            "fresh answers / real-module queries at {} us",
            MEAN_GAPS_US[1]
        ),
    );
    out.metrics.note(
        "generator_lateness_ms",
        0.0,
        "ms",
        Clock::Sim,
        "arrivals land on their due time by construction".into(),
    );
    record_layers(&mut out, &window);
    out.digest = digest.finish();
    out
}

/// Per-run serve figures, averaged over the three rates of the window.
#[allow(clippy::cast_precision_loss)]
fn record_layers(out: &mut Outcome, window: &[ServeReport]) {
    let l = &mut out.layers;
    l.push(
        "serve.refresh_busy_sim_ms",
        mean(window, |r| r.refresh_busy.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    l.push(
        "serve.service_busy_sim_ms",
        mean(window, |r| r.service_busy.as_millis_f64()),
        "sim_ms",
        Clock::Sim,
    );
    l.push(
        "serve.rescans",
        mean(window, |r| r.rescans as f64),
        "count",
        Clock::None,
    );
    l.push(
        "serve.rescan_failures",
        mean(window, |r| r.rescan_failures as f64),
        "count",
        Clock::None,
    );
    l.push(
        "serve.max_queue_depth",
        window.iter().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
        "count",
        Clock::None,
    );
    for (name, reason) in [
        ("serve.rejected_quota", Rejected::QuotaExceeded),
        ("serve.rejected_queue_full", Rejected::QueueFull),
        ("serve.rejected_deadline", Rejected::DeadlineExpired),
    ] {
        l.push(
            name,
            mean(window, |r| r.rejected_for(reason) as f64),
            "count",
            Clock::None,
        );
    }
    l.push(
        "serve.quarantine_events",
        mean(window, |r| r.quarantine_events as f64),
        "count",
        Clock::None,
    );
}
