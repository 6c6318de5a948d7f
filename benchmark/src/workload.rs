//! The four workloads as pure functions: which operation connection `c`
//! sends as its `k`-th, derived from the seed alone, so the socket run, the
//! in-process replay and the tests all see the same stream.

use std::time::Duration;

use kbqa_core::service::{KbqaService, QaRequest};

use crate::fixture::Streams;

/// Questions per `POST /batch?stream=1`.
pub const BATCH_QUESTIONS: usize = 256;
/// `mixed_open` arrival rate, all connections together. The builder checks
/// it is at most half of `answer_cold`'s closed-loop rate on the build box,
/// so no backlog grows (see README).
pub const MIXED_RATE_PER_S: u64 = 2_000;
/// `mixed_open` sends `POST /admin/reload?mode=model` this often.
pub const RELOAD_EVERY: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AnswerHot,
    AnswerCold,
    BatchStream,
    MixedOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AnswerHot,
        Workload::AnswerCold,
        Workload::BatchStream,
        Workload::MixedOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AnswerHot => "answer_hot",
            Workload::AnswerCold => "answer_cold",
            Workload::BatchStream => "batch_stream",
            Workload::MixedOpen => "mixed_open",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per second over all connections for the open-loop workload;
    /// `None` for closed loops.
    pub fn open_rate(self) -> Option<u64> {
        (self == Workload::MixedOpen).then_some(MIXED_RATE_PER_S)
    }
}

/// One HTTP request the generator sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `POST /answer` with pool question `q`.
    Answer { q: usize },
    /// `POST /batch?stream=1` with batch `b` of the cold cycle.
    Batch { b: usize },
}

/// SplitMix64: a stateless hash of a counter, so any operation of any
/// connection can be drawn without replaying the ones before it.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` for `(seed, conn, k, salt)`.
fn unit(seed: u64, conn: usize, k: u64, salt: u64) -> f64 {
    let h = mix(mix(mix(seed ^ salt).wrapping_add(conn as u64)).wrapping_add(k));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The hot set's skew: Zipf(1.0).
const ZIPF_EXPONENT: f64 = 1.0;

/// Zipf([`ZIPF_EXPONENT`]) over ranks `0..n` by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-ZIPF_EXPONENT);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// The rank whose CDF interval holds `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A pool question ready to send and to check.
pub struct Prepared {
    pub text: String,
    /// `{"question":"…","request_id":` — the caller appends the id and `}`.
    pub body_prefix: Vec<u8>,
    /// The oracle's response up to and including `"model_epoch":`.
    pub expected_head: Vec<u8>,
    /// The oracle's response after the epoch digits.
    pub expected_tail: Vec<u8>,
    /// Whether the oracle's top answer is in the gold set; `None` without
    /// gold answers.
    pub gold_top1: Option<bool>,
}

/// Every question of every stream, in one index space, plus the batches.
pub struct Pool {
    pub questions: Vec<Prepared>,
    hot: std::ops::Range<usize>,
    cold: std::ops::Range<usize>,
    refused: std::ops::Range<usize>,
    complex: std::ops::Range<usize>,
    /// Per batch: the body after the first question's `request_id` digits.
    batch_rest: Vec<Vec<u8>>,
    /// Per batch: the expected de-chunked body (epoch 0).
    pub batch_expected: Vec<Vec<u8>>,
    zipf: Zipf,
    seed: u64,
    /// Connections of a closed-loop and of an open-loop workload.
    closed_conns: usize,
    open_conns: usize,
}

const EPOCH_MARKER: &[u8] = b",\"model_epoch\":";

impl Pool {
    /// Answer every stream question on the oracle and keep what the socket
    /// run needs to send it and to verify the reply byte for byte.
    pub fn prepare(
        streams: &Streams,
        oracle: &KbqaService,
        seed: u64,
        closed_conns: usize,
        open_conns: usize,
    ) -> Self {
        let mut questions = Vec::new();
        let mut range_of = |stream: &[crate::fixture::Question]| {
            let start = questions.len();
            for question in stream {
                let response = oracle.answer(&QaRequest::new(question.text.as_str()));
                let expected = serde_json::to_string(&response).expect("serialize oracle response");
                let at = expected
                    .rfind(std::str::from_utf8(EPOCH_MARKER).expect("ascii"))
                    .expect("response carries model_epoch")
                    + EPOCH_MARKER.len();
                let digits = expected[at..]
                    .bytes()
                    .take_while(u8::is_ascii_digit)
                    .count();
                let quoted = serde_json::to_string(&question.text).expect("serialize question");
                questions.push(Prepared {
                    text: question.text.clone(),
                    body_prefix: format!("{{\"question\":{quoted},\"request_id\":").into_bytes(),
                    expected_head: expected.as_bytes()[..at].to_vec(),
                    expected_tail: expected.as_bytes()[at + digits..].to_vec(),
                    gold_top1: (!question.gold.is_empty()).then(|| {
                        response
                            .top()
                            .is_some_and(|top| question.gold.iter().any(|g| g == top))
                    }),
                });
            }
            start..questions.len()
        };
        let hot = range_of(&streams.hot);
        let cold = range_of(&streams.cold);
        let refused = range_of(&streams.refused);
        let complex = range_of(&streams.complex);

        let batches = cold.len().div_ceil(BATCH_QUESTIONS);
        let mut batch_rest = Vec::with_capacity(batches);
        let mut batch_expected = Vec::with_capacity(batches);
        for b in 0..batches {
            let members = Self::batch_members_in(&cold, b);
            let mut rest = Vec::new();
            let mut expected = vec![b'['];
            for (i, q) in members.enumerate() {
                let p: &Prepared = &questions[q];
                if i > 0 {
                    // `{"question":"…"` without the request id, then `}`.
                    let bare = p.body_prefix.len() - b",\"request_id\":".len();
                    rest.push(b',');
                    rest.extend_from_slice(&p.body_prefix[..bare]);
                    expected.push(b',');
                }
                rest.push(b'}');
                expected.extend_from_slice(&p.expected_head);
                expected.push(b'0');
                expected.extend_from_slice(&p.expected_tail);
            }
            rest.push(b']');
            expected.push(b']');
            batch_rest.push(rest);
            batch_expected.push(expected);
        }
        Self {
            zipf: Zipf::new(hot.len()),
            questions,
            hot,
            cold,
            refused,
            complex,
            batch_rest,
            batch_expected,
            seed,
            closed_conns,
            open_conns,
        }
    }

    fn batch_members_in(cold: &std::ops::Range<usize>, b: usize) -> impl Iterator<Item = usize> {
        let (start, len) = (cold.start, cold.len());
        (0..BATCH_QUESTIONS.min(len)).map(move |i| start + (b * BATCH_QUESTIONS + i) % len)
    }

    /// Pool indices of the questions in batch `b`, in request order.
    pub fn batch_members(&self, b: usize) -> impl Iterator<Item = usize> {
        Self::batch_members_in(&self.cold, b)
    }

    /// Connections (and client threads) `workload` runs on.
    pub fn conns(&self, workload: Workload) -> usize {
        match workload.open_rate() {
            Some(_) => self.open_conns,
            None => self.closed_conns,
        }
    }

    /// The id of connection `conn`'s `k`-th operation — the `request_id` it
    /// sends and the id of its spans. Interleaves connections, so ids order
    /// operations the way a round-robin replay visits them.
    pub fn op_id(&self, workload: Workload, conn: usize, k: u64) -> u64 {
        k * self.conns(workload) as u64 + conn as u64
    }

    /// Connection `conn`'s `k`-th operation under `workload`.
    pub fn op_at(&self, workload: Workload, conn: usize, k: u64) -> Op {
        // Every connection walks the cold cycle at a stride of `conns`, so
        // together they visit it in order and a question recurs only after
        // the whole cycle — 8x the cache — has passed.
        let cycle_pos = self.op_id(workload, conn, k) as usize;
        let hot = || self.hot.start + self.zipf.rank(unit(self.seed, conn, k, 1));
        match workload {
            Workload::AnswerHot => Op::Answer { q: hot() },
            Workload::AnswerCold => Op::Answer {
                q: self.cold.start + cycle_pos % self.cold.len(),
            },
            Workload::BatchStream => Op::Batch {
                b: cycle_pos % self.batch_rest.len(),
            },
            Workload::MixedOpen => {
                let u = unit(self.seed, conn, k, 2);
                let q = if u < 0.60 {
                    hot()
                } else if u < 0.85 {
                    self.cold.start + cycle_pos % self.cold.len()
                } else if u < 0.95 || self.complex.is_empty() {
                    self.refused.start + cycle_pos % self.refused.len()
                } else {
                    self.complex.start + cycle_pos % self.complex.len()
                };
                Op::Answer { q }
            }
        }
    }

    /// Append the request body of `op` with id `id` to `out`.
    pub fn write_body(&self, op: Op, id: u64, out: &mut Vec<u8>) {
        use std::io::Write;
        match op {
            Op::Answer { q } => {
                out.extend_from_slice(&self.questions[q].body_prefix);
                let _ = write!(out, "{id}}}");
            }
            Op::Batch { b } => {
                let first = self.batch_members(b).next().expect("non-empty batch");
                out.push(b'[');
                out.extend_from_slice(&self.questions[first].body_prefix);
                let _ = write!(out, "{id}");
                out.extend_from_slice(&self.batch_rest[b]);
            }
        }
    }

    /// Bytes [`Pool::write_body`] will append for `op` with id `id`.
    pub fn body_len(&self, op: Op, id: u64) -> usize {
        let digits = id.checked_ilog10().unwrap_or(0) as usize + 1;
        match op {
            Op::Answer { q } => self.questions[q].body_prefix.len() + digits + 1,
            Op::Batch { b } => {
                let first = self.batch_members(b).next().expect("non-empty batch");
                1 + self.questions[first].body_prefix.len() + digits + self.batch_rest[b].len()
            }
        }
    }

    /// The request body of `op` as a string (for the in-process probes).
    pub fn body_string(&self, op: Op, id: u64) -> String {
        let mut out = Vec::new();
        self.write_body(op, id, &mut out);
        String::from_utf8(out).expect("request bodies are UTF-8")
    }

    /// Questions `op` carries.
    pub fn questions_in(&self, op: Op) -> usize {
        match op {
            Op::Answer { .. } => 1,
            Op::Batch { b } => self.batch_members(b).count(),
        }
    }

    /// Is `body` the oracle's answer to question `q`, but for the epoch?
    /// Returns the epoch it carries.
    pub fn check_answer(&self, q: usize, body: &[u8]) -> Option<u64> {
        let p = &self.questions[q];
        let middle = body
            .strip_prefix(p.expected_head.as_slice())?
            .strip_suffix(p.expected_tail.as_slice())?;
        if middle.is_empty() || !middle.iter().all(u8::is_ascii_digit) {
            return None;
        }
        std::str::from_utf8(middle).ok()?.parse().ok()
    }

    /// Of the questions `workload` draws from that have gold answers, the
    /// share whose top answer — the oracle's, which every served reply is
    /// compared with byte for byte — is in the gold set. The whole set,
    /// whatever the run got round to sending: exact per seed.
    pub fn gold_top1_share(&self, workload: Workload) -> f64 {
        let streams: &[&std::ops::Range<usize>] = match workload {
            Workload::AnswerHot => &[&self.hot],
            Workload::AnswerCold | Workload::BatchStream => &[&self.cold],
            Workload::MixedOpen => &[&self.hot, &self.cold, &self.refused, &self.complex],
        };
        let judged: Vec<bool> = streams
            .iter()
            .flat_map(|&range| &self.questions[range.clone()])
            .filter_map(|q| q.gold_top1)
            .collect();
        judged.iter().filter(|&&right| right).count() as f64 / judged.len() as f64
    }

    pub fn question_text(&self, q: usize) -> &str {
        &self.questions[q].text
    }

    /// The pool indices of the refused and complex streams (decompose probe).
    pub fn decompose_inputs(&self) -> impl Iterator<Item = usize> {
        self.refused.clone().chain(self.complex.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let zipf = Zipf::new(1024);
        let draw = |seed: u64| -> Vec<usize> {
            (0..5000).map(|k| zipf.rank(unit(seed, 1, k, 1))).collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same draws");
        assert_ne!(draw(7), draw(8), "another seed, other draws");
        let ranks = draw(7);
        assert!(ranks.iter().all(|&r| r < 1024));
        // Zipf(1.0) over 1024 ranks: rank 0 has mass 1/H(1024) ≈ 0.133, the
        // top 32 ranks together ≈ 0.54.
        let top = ranks.iter().filter(|&&r| r == 0).count() as f64 / 5000.0;
        let top32 = ranks.iter().filter(|&&r| r < 32).count() as f64 / 5000.0;
        assert!((0.10..0.17).contains(&top), "{top}");
        assert!((0.49..0.59).contains(&top32), "{top32}");
        // The CDF's ends map to the first and last rank.
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999), 1023);
        assert_eq!(Zipf::new(1).rank(0.7), 0);
    }

    #[test]
    fn unit_draws_are_uniform_and_differ_by_connection() {
        let mean = (0..10_000).map(|k| unit(3, 0, k, 2)).sum::<f64>() / 10_000.0;
        assert!((0.48..0.52).contains(&mean), "{mean}");
        assert_ne!(unit(3, 0, 5, 2), unit(3, 1, 5, 2));
        assert_ne!(unit(3, 0, 5, 1), unit(3, 0, 5, 2));
    }
}
