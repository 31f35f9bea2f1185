//! Order statistics, the metric record every workload fills in, and the
//! process memory probe.

/// Which clock a value was read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of our own Rust code on this machine (`Instant`).
    Host,
    /// The `mc-hypervisor` `CostModel` clock (simulated Xen costs).
    Sim,
    /// Not a time: a count, ratio or size.
    None,
}

impl Clock {
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

/// One named figure with its unit and clock.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
    /// Free-form context printed beside the value (percentile, n, ...).
    pub note: String,
}

/// An ordered list of metrics with small helpers.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, clock: Clock) {
        self.note(name, value, unit, clock, String::new());
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, clock: Clock, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
            note,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still leaves at least ten samples above
/// it: `(value, percentile)`. With fewer than eleven samples it falls back
/// to the maximum and says so with a percentile of 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n < 11 {
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        return (max, 100.0);
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // Rank n - 10 (1-based) leaves exactly ten samples beyond it; with
    // fewer than twenty samples that would fall below the median, so the
    // rank is held at the median and the percentile printed says so.
    let rank = (n - 10).max(n.div_ceil(2));
    #[allow(clippy::cast_precision_loss)]
    let pct = 100.0 * rank as f64 / n as f64;
    (v[rank - 1], pct)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds in a `Duration`.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|x| **x > value).count(), 10);
        assert!((pct - 90.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
