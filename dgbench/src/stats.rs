//! Order statistics and the open-loop rules the benchmark reports with.

/// The percentile every workload's `tail_ms` reports. Higher ones do not
/// hold still on a shared two-core host: preemption of a few milliseconds
/// lands in the top percent of requests in some runs and not in others.
pub const TAIL_P: f64 = 90.0;

/// [`TAIL_P`], when a sample of `n` has at least ten samples beyond it.
pub fn tail_supported(n: usize) -> Option<f64> {
    tail_percentile(n).filter(|&p| p >= TAIL_P).map(|_| TAIL_P)
}

/// The smallest sample that supports [`TAIL_P`].
pub fn tail_min_samples() -> usize {
    (1..).find(|&n| tail_supported(n).is_some()).unwrap_or(usize::MAX)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten samples
/// beyond it in a sample of `n`, or `None` when even the median lacks them.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().find(|&p| {
        // Samples strictly above the nearest-rank position of `p`.
        n.saturating_sub(nearest_rank(n, p)) >= 10
    })
}

/// The 1-based nearest-rank position of percentile `p` in a sample of `n`,
/// computed in integer tenths of a percent so that ranks land exactly.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn nearest_rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `values` (sorted internally); `NaN` for
/// an empty sample. Infinite values (failed requests) sort last.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// One open-loop request as the generator saw it, in seconds from the
/// phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule said the request should be sent.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When its reply was complete (`None`: failed or refused).
    pub done: Option<f64>,
}

impl Sample {
    /// Latency timed from the due time, so a stall also charges every
    /// request queued behind it; a failed request is infinitely late.
    pub fn latency(&self) -> f64 {
        self.done.map_or(f64::INFINITY, |done| done - self.due)
    }

    /// How late the generator sent this request.
    pub fn lag(&self) -> f64 {
        self.sent - self.due
    }
}

/// Whether the generator's lag grew across a phase: the median lag of the
/// last quarter of the requests (in schedule order) exceeds that of the
/// first quarter by more than half the latency limit.
pub fn backlog_grows(samples: &[Sample], limit_s: f64) -> bool {
    let quarter = samples.len() / 4;
    if quarter == 0 {
        return false;
    }
    let lags = |s: &[Sample]| -> Vec<f64> { s.iter().map(Sample::lag).collect() };
    let first = median(&lags(&samples[..quarter]));
    let last = median(&lags(&samples[samples.len() - quarter..]));
    last - first > limit_s / 2.0
}

/// Whether a phase meets its latency limit: the tail percentile of its
/// latencies (failures counting as over the limit) is within `limit_s`
/// and its backlog does not grow.
pub fn phase_meets(samples: &[Sample], tail_p: f64, limit_s: f64) -> bool {
    let lat: Vec<f64> = samples.iter().map(Sample::latency).collect();
    !samples.is_empty() && percentile(&lat, tail_p) <= limit_s && !backlog_grows(samples, limit_s)
}

/// The index of the highest ladder rung that meets its limit, given each
/// rung's verdict in ascending rate order. Rungs above the first failure
/// do not count: a system that fails at one rate and passes at a higher
/// one is not sustaining the higher rate.
pub fn max_passing_rung(verdicts: &[bool]) -> Option<usize> {
    verdicts.iter().take_while(|&&ok| ok).count().checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_supported(100), Some(TAIL_P));
        assert_eq!(tail_supported(99), None);
        assert_eq!(tail_min_samples(), 100);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Sent 30 ms late, answered 10 ms after sending: 40 ms late.
        let s = Sample {
            due: 1.0,
            sent: 1.03,
            done: Some(1.04),
        };
        assert!((s.latency() - 0.04).abs() < 1e-12);
        assert!((s.lag() - 0.03).abs() < 1e-12);
        let failed = Sample { done: None, ..s };
        assert_eq!(failed.latency(), f64::INFINITY);
    }

    fn phase(lag_of: impl Fn(usize) -> f64, service: f64, n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let due = i as f64 * 0.01;
                let sent = due + lag_of(i);
                Sample {
                    due,
                    sent,
                    done: Some(sent + service),
                }
            })
            .collect()
    }

    #[test]
    fn backlog_rule_flags_growing_lag_only() {
        let steady = phase(|i| if i % 7 == 0 { 0.004 } else { 0.0 }, 0.002, 400);
        assert!(!backlog_grows(&steady, 0.010));
        assert!(phase_meets(&steady, 99.0, 0.010));
        // Lag climbs 0.1 ms per request: 30 ms apart between quarters.
        let growing = phase(|i| i as f64 * 1e-4, 0.002, 400);
        assert!(backlog_grows(&growing, 0.010));
        assert!(!phase_meets(&growing, 99.0, 0.010));
    }

    #[test]
    fn failures_count_over_the_limit() {
        let mut s = phase(|_| 0.0, 0.001, 100);
        assert!(phase_meets(&s, 90.0, 0.010));
        for sample in s.iter_mut().take(11) {
            sample.done = None;
        }
        assert!(!phase_meets(&s, 90.0, 0.010));
    }

    #[test]
    fn max_rung_stops_at_first_failure() {
        assert_eq!(max_passing_rung(&[true, true, false, true]), Some(1));
        assert_eq!(max_passing_rung(&[true, true, true]), Some(2));
        assert_eq!(max_passing_rung(&[false, true]), None);
        assert_eq!(max_passing_rung(&[]), None);
    }
}
