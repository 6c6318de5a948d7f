//! The per-request lap timer that lives inside the engine's scratch space.
//!
//! `StageTrace` uses a *lap* model rather than start/stop pairs: the engine
//! marks each stage **boundary**, and the time since the previous mark is
//! attributed to the stage that just ended. That halves the clock reads of
//! a start/stop design (one `Instant::now()` per boundary, ~12–18 per
//! traced request) and keeps the bookkeeping to an add into a fixed
//! `[u64; 8]` — no heap allocation, ever.
//!
//! Cost model, measured against the ~1.7 µs zero-alloc kernel:
//!
//! - **disarmed** (no sink installed, or the sampler skipped this request):
//!   every [`lap`](StageTrace::lap) is a single predicted branch — the CI
//!   perf gate and the kernel benchmarks run in this mode and are
//!   unaffected;
//! - **armed**: ~25 ns per boundary for the monotonic clock read, which is
//!   why services sample kernel-granularity tracing 1-in-N by default.

use std::time::Instant;

use crate::stage::{Stage, StageBreakdown, StageStats};

/// A wait-free, allocation-free per-request stage timer. Embed one in each
/// reusable scratch space; it is `Send` and costs 80 bytes.
#[derive(Clone, Debug)]
pub struct StageTrace {
    active: bool,
    last: Instant,
    accum_ns: [u64; Stage::COUNT],
}

impl Default for StageTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl StageTrace {
    /// A disarmed trace.
    pub fn new() -> Self {
        Self {
            active: false,
            last: Instant::now(),
            accum_ns: [0; Stage::COUNT],
        }
    }

    /// Whether laps are currently being recorded.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Arm (or disarm) the trace for one request. Arming resets the
    /// accumulators and starts the first lap.
    #[inline]
    pub fn begin(&mut self, arm: bool) {
        self.active = arm;
        if arm {
            self.accum_ns = [0; Stage::COUNT];
            self.last = Instant::now();
        }
    }

    /// Mark a stage boundary: attribute time since the previous mark to
    /// `stage`. A disarmed trace returns after one predicted branch.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        if !self.active {
            return;
        }
        let now = Instant::now();
        self.accum_ns[stage as usize] +=
            u64::try_from(now.duration_since(self.last).as_nanos()).unwrap_or(u64::MAX);
        self.last = now;
    }

    /// Reset the lap clock without attributing the elapsed interval to any
    /// stage (for skipping untimed gaps, e.g. queue wait between kernel
    /// exit and serialization).
    #[inline]
    pub fn skip(&mut self) {
        if !self.active {
            return;
        }
        self.last = Instant::now();
    }

    /// Nanoseconds accumulated per stage (indexed by `Stage as usize`) since
    /// the last arming [`begin`](StageTrace::begin). Read-only and valid
    /// armed or not: benches and tests read stage costs here at full
    /// resolution, where [`StageBreakdown`] rounds to whole microseconds.
    #[inline]
    pub fn accum_ns(&self) -> &[u64; Stage::COUNT] {
        &self.accum_ns
    }

    /// Disarm and return the accumulated breakdown without flushing it to
    /// any sink. `None` if the trace was not armed.
    #[inline]
    pub fn take(&mut self) -> Option<StageBreakdown> {
        if !self.is_active() {
            return None;
        }
        self.active = false;
        Some(StageBreakdown::from_ns(&self.accum_ns))
    }

    /// Disarm, flush one observation per stage into `stats`, and return
    /// the per-request breakdown. `None` (and no flush) if the trace was
    /// not armed. Flushing is atomics-only — no allocation.
    #[inline]
    pub fn finish(&mut self, stats: &StageStats) -> Option<StageBreakdown> {
        let breakdown = self.take()?;
        stats.record_breakdown(&breakdown);
        Some(breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_trace_records_nothing() {
        let stats = StageStats::new();
        let mut trace = StageTrace::new();
        trace.lap(Stage::Parse);
        trace.lap(Stage::ValueLookup);
        assert!(trace.finish(&stats).is_none());
        assert_eq!(stats.traced_requests(), 0);
        assert_eq!(stats.snapshot().stages[0].latency.count, 0);
    }

    #[test]
    fn armed_trace_attributes_laps_and_flushes() {
        let stats = StageStats::new();
        let mut trace = StageTrace::new();
        trace.begin(true);
        assert!(trace.is_active());
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.lap(Stage::NerGrounding);
        trace.lap(Stage::RankTopK); // ~0 elapsed since previous lap
        let ns = *trace.accum_ns();
        assert!(ns[Stage::NerGrounding as usize] >= 1_000_000);
        assert!(
            ns[Stage::RankTopK as usize] < 1_000_000,
            "nanosecond view must keep the sub-µs lap apart from the sleep: {ns:?}"
        );
        let breakdown = trace.finish(&stats).expect("armed trace yields breakdown");
        assert!(!trace.is_active());
        assert!(
            breakdown.ner_grounding_us >= 1_000,
            "2ms sleep must be attributed to the lap that ended it, got {breakdown:?}"
        );
        assert_eq!(stats.traced_requests(), 1);
        assert_eq!(stats.histogram(Stage::NerGrounding).snapshot().count, 1);
        // A finished trace is disarmed: further laps/finishes are no-ops.
        trace.lap(Stage::Parse);
        assert!(trace.finish(&stats).is_none());
        assert_eq!(stats.traced_requests(), 1);
    }

    #[test]
    fn skip_discards_the_gap() {
        let mut trace = StageTrace::new();
        trace.begin(true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        trace.skip(); // the sleep is not attributed to anything
        trace.lap(Stage::Serialize);
        let b = trace.take().unwrap();
        assert!(
            b.serialize_us < 2_000,
            "skipped gap leaked into the next lap: {b:?}"
        );
    }

    #[test]
    fn begin_rearms_cleanly_between_requests() {
        let stats = StageStats::new();
        let mut trace = StageTrace::new();
        trace.begin(true);
        std::thread::sleep(std::time::Duration::from_millis(1));
        trace.lap(Stage::Parse);
        trace.finish(&stats);
        trace.begin(true);
        trace.lap(Stage::Parse);
        let b = trace.take().unwrap();
        assert!(
            b.parse_us < 1_000,
            "re-arm must reset accumulators, got {b:?}"
        );
        // begin(false) disarms.
        trace.begin(false);
        assert!(!trace.is_active());
    }
}
