//! Client-side tracing: spans in a preallocated buffer, written out when the
//! run ends, and the in-process probes that time each layer's public
//! functions on the questions the socket run sent.
//!
//! Nothing here reaches inside the server: a probe re-executes a layer's
//! public function on the same input, right after the run. Spans inside the
//! server are a later change (ROADMAP item 1).

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use kbqa_core::engine::ScratchSpace;
use kbqa_core::service::{KbqaService, QaRequest, QaResponse, Refusal};
use kbqa_nlp::{tokenize_into, MentionBuffer, TokenizedText};
use kbqa_rdf::{NodeId, PredicateId};
use kbqa_server::{AnswerCache, CacheConfig};

use crate::stats::{median, percentile};
use crate::workload::{Op, Pool, Workload};

/// One timed interval. `(request_id, name)` identifies a span; `parent`
/// names the span of the same request that caused it (`""` for a root).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub request_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the interval covers: 1, or the block size for ns-scale layers
    /// that are timed 64 inputs per clock read.
    pub calls: u32,
}

impl Span {
    pub fn new(
        name: &'static str,
        parent: &'static str,
        request_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        Self {
            name,
            parent,
            request_id,
            start_ns,
            end_ns,
            calls: 1,
        }
    }
}

/// A span buffer that never grows while a run is being timed: when it is
/// full, further spans are counted and dropped.
#[derive(Debug, Default)]
pub struct SpanBuffer {
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuffer {
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Write spans as JSON lines.
pub fn write_jsonl<'a>(path: &Path, spans: impl IntoIterator<Item = &'a Span>) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"parent\":\"{}\",\"request_id\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            s.name, s.parent, s.request_id, s.start_ns, s.end_ns, s.calls
        )?;
    }
    out.flush()
}

/// Inputs per clock read for ns-scale calls: two clock reads (~50 ns) over
/// 64 calls of ≥ 40 ns each keep the clock's share under 2 %.
const BLOCK: usize = 64;
/// Questions the in-process replay covers.
pub const REPLAY_QUESTIONS: usize = 20_000;
/// Questions replayed unrecorded first, so the probe cache is in the state
/// the server's was: a whole cold cycle, or the hot set many times over.
const PREROLL_QUESTIONS: usize = 32_768;

/// What the probes measured, by per-layer metric name.
pub type LayerValues = Vec<(&'static str, f64)>;

struct Probe<'a> {
    origin: Instant,
    spans: &'a mut SpanBuffer,
}

impl Probe<'_> {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `call` over blocks of [`BLOCK`] inputs; ns per call, per block.
    fn blocks<I>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        ids: &[u64],
        inputs: &[I],
        call: impl FnMut(&I),
    ) -> Vec<f64> {
        self.timed(BLOCK, name, parent, ids, inputs, call)
    }

    /// Time each `call` on its own: for µs-scale calls, where two clock
    /// reads are noise and a median over calls means what it says.
    fn singly<I>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        ids: &[u64],
        inputs: &[I],
        call: impl FnMut(&I),
    ) -> Vec<f64> {
        self.timed(1, name, parent, ids, inputs, call)
    }

    /// One clock read per `per_read` inputs, one span per read; ns per call.
    fn timed<I>(
        &mut self,
        per_read: usize,
        name: &'static str,
        parent: &'static str,
        ids: &[u64],
        inputs: &[I],
        mut call: impl FnMut(&I),
    ) -> Vec<f64> {
        let mut per_call = Vec::with_capacity(inputs.len() / per_read + 1);
        for (b, block) in inputs.chunks(per_read).enumerate() {
            let start = self.now_ns();
            for input in block {
                call(input);
            }
            let end = self.now_ns();
            per_call.push((end - start) as f64 / block.len() as f64);
            self.spans.push(Span {
                calls: block.len() as u32,
                ..Span::new(name, parent, ids[b * per_read], start, end)
            });
        }
        per_call
    }
}

fn p50(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    percentile(&mut values, 0.5)
}

/// The replayed operations: ids `first_id..` until they carry
/// `REPLAY_QUESTIONS` questions.
fn replay_ops(pool: &Pool, workload: Workload, first_id: u64, questions: usize) -> Vec<(u64, Op)> {
    let conns = pool.conns(workload) as u64;
    let mut ops = Vec::new();
    let mut carried = 0;
    let mut id = first_id;
    while carried < questions {
        let op = pool.op_at(workload, (id % conns) as usize, id / conns);
        carried += pool.questions_in(op);
        ops.push((id, op));
        id += 1;
    }
    ops
}

/// The server's request path, in process: parse, key, cache probe, answer on
/// a miss, cache insert, serialize. `lap("")` marks the start, `lap(name)`
/// the end of stage `name`.
fn serve_in_process(
    service: &KbqaService,
    cache: &AnswerCache,
    pool: &Pool,
    id: u64,
    op: Op,
    out: &mut Vec<u8>,
    mut lap: impl FnMut(&'static str),
) {
    let snapshot = service.snapshot();
    let body = pool.body_string(op, id);
    lap("");
    out.clear();
    match op {
        Op::Answer { .. } => {
            let request: QaRequest = serde_json::from_str(&body).expect("parse own request");
            lap("serde_json.parse");
            let key = snapshot.cache_key(&request);
            let cached = cache.get(&key);
            lap("server.cache.get");
            let response = match cached {
                Some(hit) => hit,
                None => {
                    let computed = Arc::new(snapshot.answer(&request));
                    lap("core.service.answer");
                    cache.insert(key, Arc::clone(&computed));
                    lap("server.cache.insert");
                    computed
                }
            };
            response.serialize_into(out);
            lap("core.serialize");
        }
        Op::Batch { .. } => {
            let requests: Vec<QaRequest> = serde_json::from_str(&body).expect("parse own batch");
            lap("serde_json.parse");
            let keys: Vec<String> = requests.iter().map(|r| snapshot.cache_key(r)).collect();
            let mut responses = cache.get_batch(&keys);
            lap("server.cache.get");
            let missed: Vec<usize> = (0..keys.len())
                .filter(|&i| responses[i].is_none())
                .collect();
            let misses: Vec<QaRequest> = missed.iter().map(|&i| requests[i].clone()).collect();
            let computed = snapshot.answer_batch(&misses);
            lap("core.service.answer");
            let mut entries = Vec::with_capacity(missed.len());
            for (&i, response) in missed.iter().zip(computed) {
                let response = Arc::new(response);
                entries.push((keys[i].clone(), Arc::clone(&response)));
                responses[i] = Some(response);
            }
            cache.insert_batch(entries);
            lap("server.cache.insert");
            for response in responses.iter().flatten() {
                response.serialize_into(out);
            }
            lap("core.serialize");
        }
    }
}

/// Replay the operations the traced socket window sent — ids from
/// `first_id` — against `service` in process, recording probe spans, then
/// time every layer's public functions on the same questions.
///
/// Span times are offsets from `origin`, the socket run's, so both kinds of
/// span share one time line. Returns the per-layer values and, per replayed
/// operation id, the time the in-process request path took (ns).
pub fn probe_layers(
    service: &KbqaService,
    pool: &Pool,
    workload: Workload,
    first_id: u64,
    origin: Instant,
    spans: &mut SpanBuffer,
) -> (LayerValues, Vec<(u64, u64)>) {
    let mut probe = Probe { origin, spans };
    let mut values: LayerValues = Vec::new();

    // ---- Pass A: the request path, operation by operation -----------------
    let cache = AnswerCache::new(CacheConfig::default());
    let mut out = Vec::with_capacity(128 << 10);
    let preroll_from = first_id.saturating_sub(PREROLL_QUESTIONS as u64);
    let preroll = replay_ops(pool, workload, preroll_from, PREROLL_QUESTIONS);
    for &(id, op) in preroll.iter().take_while(|(id, _)| *id < first_id) {
        serve_in_process(service, &cache, pool, id, op, &mut out, |_| {});
    }
    let ops = replay_ops(pool, workload, first_id, REPLAY_QUESTIONS);
    let mut in_process_ns = Vec::with_capacity(ops.len());
    for &(id, op) in &ops {
        let mut start = 0;
        let mut last = 0;
        serve_in_process(service, &cache, pool, id, op, &mut out, |name| {
            let now = probe.now_ns();
            if name.is_empty() {
                start = now;
            } else {
                probe
                    .spans
                    .push(Span::new(name, "inprocess.request", id, last, now));
            }
            last = now;
        });
        probe
            .spans
            .push(Span::new("inprocess.request", "", id, start, last));
        in_process_ns.push((id, last - start));
    }

    // ---- Pass B: each layer's public functions on the same questions ------
    let mut ids = Vec::new();
    let mut qs = Vec::new();
    for &(id, op) in &ops {
        match op {
            Op::Answer { q } => {
                ids.push(id);
                qs.push(q);
            }
            Op::Batch { b } => {
                for q in pool.batch_members(b) {
                    ids.push(id);
                    qs.push(q);
                }
            }
        }
    }
    qs.truncate(REPLAY_QUESTIONS);
    ids.truncate(REPLAY_QUESTIONS);
    let snapshot = service.snapshot();
    let bodies: Vec<String> = qs
        .iter()
        .zip(&ids)
        .map(|(&q, &id)| pool.body_string(Op::Answer { q }, id))
        .collect();
    let requests: Vec<QaRequest> = bodies
        .iter()
        .map(|b| serde_json::from_str(b).expect("parse own request"))
        .collect();

    // serde_json: request parsing.
    let parse = probe.blocks("serde_json.parse", "probe", &ids, &bodies, |body| {
        std::hint::black_box(serde_json::from_str::<QaRequest>(body).expect("parse"));
    });
    values.push(("serde_json.request_parse_ns_p50", p50(parse)));

    // core.service: one answer at a time.
    let mut responses: Vec<Arc<QaResponse>> = Vec::with_capacity(requests.len());
    let answer_ns = probe.singly("core.service.answer", "probe", &ids, &requests, |request| {
        responses.push(Arc::new(service.answer(request)));
    });
    let single_answer_ns = p50(answer_ns);
    values.push(("core.service.answer_ns_p50", single_answer_ns));

    // core.engine: outcome counts from the same responses (exact per seed).
    let refused = |cause: Refusal| {
        responses
            .iter()
            .filter(|r| r.refusal == Some(cause))
            .count() as f64
    };
    let answered = responses.iter().filter(|r| r.answered()).count();
    values.push((
        "core.engine.answered_share",
        answered as f64 / responses.len() as f64,
    ));
    values.push((
        "core.engine.refused.no_entity",
        refused(Refusal::NoEntityGrounded),
    ));
    values.push((
        "core.engine.refused.no_template",
        refused(Refusal::NoTemplateMatched),
    ));
    values.push((
        "core.engine.refused.no_predicate",
        refused(Refusal::NoPredicateAboveTheta),
    ));
    values.push((
        "core.engine.refused.empty_values",
        refused(Refusal::EmptyValueSet),
    ));

    // core.service: batch fan-out. Cost per question beyond a single answer.
    let mut batch_ns = Vec::new();
    let mut batch_parse_ns = Vec::new();
    for (chunk, chunk_ids) in requests
        .chunks(crate::workload::BATCH_QUESTIONS)
        .zip(ids.chunks(crate::workload::BATCH_QUESTIONS))
    {
        let body = serde_json::to_string(&chunk).expect("serialize batch");
        let start = probe.now_ns();
        std::hint::black_box(serde_json::from_str::<Vec<QaRequest>>(&body).expect("parse batch"));
        let parsed = probe.now_ns();
        std::hint::black_box(snapshot.answer_batch(chunk));
        let end = probe.now_ns();
        batch_parse_ns.push((parsed - start) as f64 / chunk.len() as f64);
        batch_ns.push((end - parsed) as f64 / chunk.len() as f64);
        probe.spans.push(Span {
            calls: chunk.len() as u32,
            ..Span::new(
                "core.service.answer_batch",
                "probe",
                chunk_ids[0],
                parsed,
                end,
            )
        });
    }
    values.push((
        "core.service.answer_batch_ns_per_question",
        p50(batch_ns) - single_answer_ns,
    ));
    values.push((
        "serde_json.batch_parse_ns_per_question",
        p50(batch_parse_ns),
    ));

    // server.cache: key derivation, hit path, insert-with-eviction path.
    let key_ns = probe.blocks("server.cache.key", "probe", &ids, &requests, |request| {
        std::hint::black_box(snapshot.cache_key(request));
    });
    values.push(("server.cache.key_ns_p50", p50(key_ns)));
    let entries: Vec<(String, Arc<QaResponse>)> = requests
        .iter()
        .map(|r| snapshot.cache_key(r))
        .zip(responses.iter().cloned())
        .collect();
    let probe_cache = AnswerCache::new(CacheConfig::default());
    // Inserting 20 000 distinct keys into 4096 slots: all but the first
    // blocks evict, as `answer_cold` makes the server do.
    let mut pending = entries.clone().into_iter();
    let insert_ns = probe.blocks("server.cache.insert", "probe", &ids, &entries, |_| {
        let (key, value) = pending.next().expect("one entry per input");
        probe_cache.insert(key, value);
    });
    values.push(("server.cache.insert_ns_p50", p50(insert_ns)));
    let mut get_ns = Vec::new();
    for (block, block_ids) in entries.chunks(BLOCK).zip(ids.chunks(BLOCK)) {
        // Make the block resident, untimed, so every timed get is a hit.
        for (key, value) in block {
            probe_cache.insert(key.clone(), Arc::clone(value));
        }
        get_ns.extend(
            probe.blocks("server.cache.get", "probe", block_ids, block, |(key, _)| {
                std::hint::black_box(probe_cache.get(key));
            }),
        );
    }
    values.push(("server.cache.get_ns_p50", p50(get_ns)));

    // nlp: tokenizer and gazetteer NER.
    let texts: Vec<&str> = requests.iter().map(|r| r.question.as_str()).collect();
    let mut scratch_tokens = TokenizedText::default();
    let tokenize_ns = probe.blocks(
        "nlp.tokenize",
        "core.service.answer",
        &ids,
        &texts,
        |text| {
            tokenize_into(text, &mut scratch_tokens);
        },
    );
    values.push(("nlp.tokenize_ns_p50", p50(tokenize_ns)));
    let tokenized: Vec<TokenizedText> = texts.iter().map(|t| kbqa_nlp::tokenize(t)).collect();
    let ner = service.ner();
    let mut mentions = MentionBuffer::new();
    let mut mention_count = 0usize;
    let ner_ns = probe.blocks(
        "nlp.ner",
        "core.service.answer",
        &ids,
        &tokenized,
        |tokens| {
            ner.find_all_mentions_into(tokens, &mut mentions);
            mention_count += mentions.len();
        },
    );
    values.push(("nlp.ner_ns_p50", p50(ner_ns)));
    values.push((
        "nlp.mentions_per_question",
        mention_count as f64 / tokenized.len() as f64,
    ));

    // taxonomy and rdf: the first candidate of the first mention, in the
    // context of the rest of the question; its first outgoing predicate.
    let store = service.store();
    let mut concept_inputs: Vec<(NodeId, Vec<&str>)> = Vec::new();
    let mut lookup_inputs: Vec<(NodeId, PredicateId)> = Vec::new();
    for tokens in &tokenized {
        ner.find_all_mentions_into(tokens, &mut mentions);
        let Some(span) = mentions.spans().first() else {
            continue;
        };
        let Some(&node) = mentions.nodes(span).first() else {
            continue;
        };
        let context = tokens
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| *i < span.start || *i >= span.end)
            .map(|(_, t)| t.text.as_str())
            .collect();
        concept_inputs.push((node, context));
        if let Some(triple) = store.out_edges(node).next() {
            lookup_inputs.push((node, triple.p));
        }
    }
    let conceptualizer = service.conceptualizer();
    let mut concepts = Vec::new();
    let concept_ns = probe.blocks(
        "taxonomy.conceptualize",
        "core.service.answer",
        &ids,
        &concept_inputs,
        |(node, context)| {
            conceptualizer.conceptualize_into(*node, context.iter().copied(), &mut concepts);
        },
    );
    values.push(("taxonomy.conceptualize_ns_p50", p50(concept_ns)));
    let lookup_ns = probe.blocks(
        "rdf.objects_lookup",
        "core.service.answer",
        &ids,
        &lookup_inputs,
        |&(s, p)| {
            std::hint::black_box(store.objects_slice(s, p));
        },
    );
    values.push(("rdf.objects_lookup_ns_p50", p50(lookup_ns)));

    // core.engine: the BFQ kernel on pre-tokenized text, reused scratch.
    let engine = snapshot.engine();
    let mut scratch = ScratchSpace::new();
    let kernel_ns = probe.singly(
        "core.engine.bfq_kernel",
        "core.service.answer",
        &ids,
        &tokenized,
        |tokens| {
            std::hint::black_box(engine.answer_bfq_tokens_with(tokens, &mut scratch));
        },
    );
    values.push(("core.engine.bfq_kernel_ns_p50", p50(kernel_ns)));

    // core.serialize.
    let mut buf = Vec::with_capacity(4096);
    let mut bytes = 0usize;
    let serialize_ns = probe.blocks("core.serialize", "probe", &ids, &responses, |response| {
        buf.clear();
        response.serialize_into(&mut buf);
        bytes += buf.len();
    });
    values.push(("core.serialize.ns_p50", p50(serialize_ns)));
    values.push((
        "core.serialize.bytes_per_response",
        bytes as f64 / responses.len() as f64,
    ));

    // core.decompose: the DP and its execution, on the questions that reach
    // it — the complex suite and the refused non-BFQ kinds.
    let decompose_qs: Vec<usize> = pool.decompose_inputs().collect();
    let decompose_ids: Vec<u64> = decompose_qs.iter().map(|&q| q as u64).collect();
    let decompose_ns = probe.singly(
        "core.decompose",
        "probe",
        &decompose_ids,
        &decompose_qs,
        |&q| {
            if let Some(decomposition) = service.decompose(pool.question_text(q)) {
                std::hint::black_box(service.execute_decomposition(&decomposition));
            }
        },
    );
    values.push(("core.decompose.ns_p50", p50(decompose_ns)));

    (values, in_process_ns)
}

/// `server.http.edge_us_p50`: per operation, the socket round trip minus
/// the in-process request path for the same id; the median over the ids
/// both sides saw.
pub fn edge_us_p50(socket_spans: &[Span], in_process_ns: &[(u64, u64)]) -> f64 {
    let roundtrip: std::collections::HashMap<u64, u64> = socket_spans
        .iter()
        .filter(|s| s.name == "server.http.roundtrip")
        .map(|s| (s.request_id, s.end_ns - s.start_ns))
        .collect();
    let edges: Vec<f64> = in_process_ns
        .iter()
        .filter_map(|(id, inside)| Some((*roundtrip.get(id)? as f64 - *inside as f64) / 1e3))
        .collect();
    if edges.is_empty() {
        f64::NAN
    } else {
        median(&edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_buffer_never_grows_and_counts_what_it_drops() {
        let mut buffer = SpanBuffer::with_capacity(2);
        let capacity = buffer.spans.capacity();
        for i in 0..capacity as u64 + 3 {
            buffer.push(Span::new("request", "", i, 0, 1));
        }
        assert_eq!(buffer.spans().len(), capacity);
        assert_eq!(buffer.dropped, 3);
        assert_eq!(buffer.spans.capacity(), capacity);
    }

    #[test]
    fn edge_is_roundtrip_minus_in_process_time_per_request() {
        let spans = [
            Span::new("request", "", 1, 0, 100_000),
            Span::new("server.http.roundtrip", "request", 1, 10_000, 100_000),
            Span::new("server.http.roundtrip", "request", 2, 0, 50_000),
            Span::new("server.http.roundtrip", "request", 3, 0, 70_000),
        ];
        // id 4 was never on the socket: no edge for it.
        let inside = [(1, 10_000), (2, 20_000), (3, 10_000), (4, 1)];
        assert_eq!(edge_us_p50(&spans, &inside), 60.0);
        assert!(edge_us_p50(&spans, &[]).is_nan());
    }
}
