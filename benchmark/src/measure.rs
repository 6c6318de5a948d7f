//! From samples to metrics: every percentile is over all the operations that
//! completed in the measured time, and the rate is the questions answered
//! correctly over its length.

use crate::loadgen::Sample;
use crate::stats::{nearest_rank, supported};

#[derive(Clone, Debug)]
pub struct Summary {
    /// Operations that completed inside the measured time.
    pub attempted: u64,
    pub failed: u64,
    /// Correctly answered questions.
    pub questions_ok: u64,
    pub bytes_in: u64,
    /// `questions_ok` over the length of the measured time.
    pub questions_per_s: f64,
    pub latency_p50_us: f64,
    pub latency_p90_us: f64,
    pub latency_p99_us: f64,
    pub first_byte_p50_us: f64,
    /// Whether at least ten samples lie beyond the p99.
    pub p99_supported: bool,
    pub send_lag_p99_us: f64,
}

/// Summarize the samples that completed in `[from_ns, to_ns)`.
pub fn summarize(samples: &[Sample], from_ns: u64, to_ns: u64) -> Option<Summary> {
    let inside: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.done_ns >= from_ns && s.done_ns < to_ns)
        .collect();
    if inside.is_empty() {
        return None;
    }
    let sorted_us = |of: fn(&Sample) -> u64| {
        let mut v: Vec<f64> = inside.iter().map(|s| of(s) as f64 / 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let latency = sorted_us(|s| s.latency_ns);
    let first_byte = sorted_us(|s| s.first_byte_ns);
    let lag = sorted_us(|s| s.lag_ns);
    let questions_ok: u64 = inside
        .iter()
        .filter(|s| s.ok)
        .map(|s| u64::from(s.questions))
        .sum();
    Some(Summary {
        attempted: inside.len() as u64,
        failed: inside.iter().filter(|s| !s.ok).count() as u64,
        questions_ok,
        bytes_in: inside.iter().map(|s| u64::from(s.bytes_in)).sum(),
        questions_per_s: questions_ok as f64 / ((to_ns - from_ns) as f64 / 1e9),
        latency_p50_us: nearest_rank(&latency, 0.5),
        latency_p90_us: nearest_rank(&latency, 0.9),
        latency_p99_us: nearest_rank(&latency, 0.99),
        first_byte_p50_us: nearest_rank(&first_byte, 0.5),
        p99_supported: supported(inside.len(), 0.99),
        send_lag_p99_us: nearest_rank(&lag, 0.99),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(done_ms: u64, latency_us: u64, ok: bool) -> Sample {
        Sample {
            done_ns: done_ms * 1_000_000,
            latency_ns: latency_us * 1_000,
            first_byte_ns: latency_us * 500,
            lag_ns: 1_000,
            questions: 2,
            bytes_in: 100,
            ok,
        }
    }

    #[test]
    fn a_stalled_reload_shows_in_the_tail_and_a_lost_second_in_the_rate() {
        // An open loop at 2000 ops/s for 5 s, 100 µs each — but the server
        // stalls for 100 ms, 2.5 s in: the 200 operations due meanwhile wait
        // for the stall to end.
        let open_loop = |stall_ms: u64| -> Vec<Sample> {
            (0..10_000u64)
                .map(|k| {
                    let due_us = k * 500;
                    let stalled_until_us = (2_500 + stall_ms) * 1_000;
                    let wait_us = if (2_500_000..stalled_until_us).contains(&due_us) {
                        stalled_until_us - due_us
                    } else {
                        0
                    };
                    Sample {
                        done_ns: (due_us + wait_us + 100) * 1_000,
                        latency_ns: (wait_us + 100) * 1_000,
                        ..sample(0, 0, true)
                    }
                })
                .collect()
        };
        let quiet = summarize(&open_loop(0), 0, 5_000_100_000).unwrap();
        assert_eq!((quiet.latency_p50_us, quiet.latency_p99_us), (100.0, 100.0));
        let stalled = summarize(&open_loop(100), 0, 5_000_100_000).unwrap();
        assert_eq!(stalled.attempted, 10_000);
        assert!(stalled.p99_supported);
        // 2 % of the operations were queued behind the stall: the median and
        // the p90 do not see them, the p99 does — half the stall's length.
        assert_eq!(stalled.latency_p50_us, 100.0);
        assert_eq!(stalled.latency_p90_us, 100.0);
        assert_eq!(stalled.latency_p99_us, 50_100.0);
        // A closed loop that loses one second of five answers a fifth less.
        let closed: Vec<Sample> = (0..5_000u64)
            .filter(|ms| !(2_000..3_000).contains(ms))
            .map(|ms| sample(ms, 100, true))
            .collect();
        let s = summarize(&closed, 0, 5_000_000_000).unwrap();
        assert_eq!(s.questions_per_s, 4_000.0 * 2.0 / 5.0);
        assert_eq!(s.send_lag_p99_us, 1.0);
        assert_eq!(s.first_byte_p50_us, 50.0);
    }

    #[test]
    fn failures_answer_nothing_and_few_samples_carry_no_p99() {
        let samples: Vec<Sample> = (0..2500)
            .map(|i| sample(i * 4, 50 + i % 7, i % 5 != 0))
            .collect();
        let s = summarize(&samples, 0, 10_000_000_000).unwrap();
        assert!(s.p99_supported);
        assert_eq!(s.attempted, 2500);
        assert_eq!(s.failed, 500);
        assert_eq!(s.questions_ok, 4000);
        assert_eq!(s.questions_per_s, 400.0);
        assert_eq!(s.bytes_in, 250_000);
        // Samples outside the measured time are not there at all.
        assert!(summarize(&samples, 20_000_000_000, 30_000_000_000).is_none());
        let few = summarize(&samples[..100], 0, 10_000_000_000).unwrap();
        assert!(!few.p99_supported);
    }
}
