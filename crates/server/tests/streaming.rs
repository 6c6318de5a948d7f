//! Chunked-streaming `/batch` tests: a minimal chunked-transfer decoder on
//! the client side, the streamed-vs-buffered byte-identity suite (300+
//! questions), backpressure (a reader that stalls stalls its batch),
//! mid-stream disconnect resilience (a dropped client must not wedge a loop
//! thread), and a streamed batch crossing `/admin/reload` (one model epoch
//! per stream, never mixed).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use kbqa_core::decompose::PatternIndex;
use kbqa_core::learner::{Learner, LearnerConfig};
use kbqa_core::persist::save_model;
use kbqa_core::service::{KbqaService, QaRequest, QaResponse};
use kbqa_corpus::{CorpusConfig, QaCorpus, World, WorldConfig};
use kbqa_nlp::GazetteerNer;
use kbqa_server::{serve, MetricsSnapshot, ServerConfig, ServerHandle};

struct Fixture {
    service: KbqaService,
    questions: Vec<String>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(42));
        let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 600));
        let ner = Arc::new(GazetteerNer::from_store(&world.store));
        let learner = Learner::new(
            &world.store,
            &world.conceptualizer,
            &ner,
            &world.predicate_classes,
        );
        let pairs: Vec<(&str, &str)> = corpus
            .pairs
            .iter()
            .map(|p| (p.question.as_str(), p.answer.as_str()))
            .collect();
        let (model, _) = learner.learn(&pairs, &LearnerConfig::default());
        let index = PatternIndex::build(corpus.pairs.iter().map(|p| p.question.as_str()), &ner);
        let service = KbqaService::builder(
            Arc::clone(&world.store),
            Arc::clone(&world.conceptualizer),
            Arc::new(model),
        )
        .ner(ner)
        .pattern_index(Arc::new(index))
        .build();

        let intent = world.intent_by_name("city_population").expect("intent");
        let questions: Vec<String> = world
            .subjects_of(intent)
            .iter()
            .copied()
            .filter(|&c| {
                !world.gold_values(intent, c).is_empty()
                    && world.store.entities_named(&world.store.surface(c)).len() == 1
            })
            .take(6)
            .map(|c| format!("what is the population of {}", world.store.surface(c)))
            .collect();
        assert!(questions.len() >= 3, "need several answerable questions");
        assert!(service.answer_text(&questions[0]).answered());
        Fixture { service, questions }
    })
}

fn start_server(config: ServerConfig) -> ServerHandle {
    serve(fixture().service.clone(), "127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A 300+-question batch: answerable questions under varied overrides
/// (distinct cache keys), interleaved with distinct refusals — a realistic
/// mix of hits, misses, answers and refusals once it repeats.
fn big_batch(questions: &[String], n: usize) -> Vec<QaRequest> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                QaRequest::new(&questions[(i / 2) % questions.len()]).with_top_k(i % 4 + 1)
            } else {
                QaRequest::new(format!("why is the sky blue {i}"))
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Client: plain + chunked-decoding reads
// ---------------------------------------------------------------------------

fn send_request(stream: &mut TcpStream, method: &str, path: &str, body: &str, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: {connection}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
}

fn read_head(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            _ => panic!(
                "connection closed mid-header: {:?}",
                String::from_utf8_lossy(&raw)
            ),
        }
    }
    let head = String::from_utf8(raw).expect("utf8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, head)
}

/// Read one `Content-Length`-framed response.
fn read_buffered(stream: &mut TcpStream) -> (u16, String) {
    let (status, head) = read_head(stream);
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length header");
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// Read one chunked response: the head, then [`read_chunks`].
fn read_chunked(stream: &mut TcpStream) -> (u16, String, usize) {
    let (status, head) = read_head(stream);
    assert!(
        head.lines().any(|l| l == "Transfer-Encoding: chunked"),
        "streamed response must declare chunked transfer:\n{head}"
    );
    assert!(
        !head.contains("Content-Length:"),
        "chunked response must not carry Content-Length:\n{head}"
    );
    let (body, chunks) = read_chunks(stream);
    (status, body, chunks)
}

/// The minimal chunked-transfer decoder: hex size line, `size` bytes, CRLF,
/// until the zero-size terminator. Returns the de-chunked body and the
/// number of (non-terminator) chunks.
fn read_chunks(stream: &mut TcpStream) -> (String, usize) {
    let mut body = Vec::new();
    let mut chunks = 0usize;
    loop {
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while !line.ends_with(b"\r\n") {
            stream.read_exact(&mut byte).expect("read chunk size line");
            line.push(byte[0]);
        }
        let size_hex = std::str::from_utf8(&line[..line.len() - 2]).expect("utf8 size");
        let size = usize::from_str_radix(size_hex.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size line {size_hex:?}"));
        if size == 0 {
            let mut crlf = [0u8; 2];
            stream.read_exact(&mut crlf).expect("terminating CRLF");
            assert_eq!(&crlf, b"\r\n");
            break;
        }
        let mut chunk = vec![0u8; size];
        stream.read_exact(&mut chunk).expect("read chunk");
        body.extend_from_slice(&chunk);
        let mut crlf = [0u8; 2];
        stream.read_exact(&mut crlf).expect("chunk CRLF");
        assert_eq!(&crlf, b"\r\n");
        chunks += 1;
    }
    (String::from_utf8(body).expect("utf8 body"), chunks)
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, method, path, body, true);
    read_buffered(&mut stream)
}

fn http_chunked(addr: SocketAddr, path: &str, body: &str) -> (u16, String, usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, "POST", path, body, true);
    read_chunked(&mut stream)
}

fn metrics(addr: SocketAddr) -> MetricsSnapshot {
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    serde_json::from_str(&body).expect("metrics JSON")
}

// ---------------------------------------------------------------------------
// Byte identity: streamed == buffered, 300+ questions
// ---------------------------------------------------------------------------

#[test]
fn streamed_batch_is_byte_identical_to_buffered_over_300_questions() {
    let f = fixture();
    // A small flush threshold so the 320-question stream ships many chunks —
    // the identity must hold across chunk boundaries, not within one chunk.
    let server = start_server(ServerConfig {
        stream_flush_bytes: 512,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    let requests = big_batch(&f.questions, 320);
    let body = serde_json::to_string(&requests).unwrap();

    // Cold pass: the stream computes every miss lane by lane.
    let (status, streamed_cold, chunks_cold) = http_chunked(addr, "/batch?stream=1", &body);
    assert_eq!(status, 200);
    assert!(
        chunks_cold > 1,
        "320 questions over a 512-byte flush threshold must ship multiple chunks"
    );

    // Buffered pass over the identical batch (now warm).
    let (status, buffered) = http(addr, "POST", "/batch", &body);
    assert_eq!(status, 200);
    assert_eq!(
        streamed_cold, buffered,
        "de-chunked streaming body must be byte-identical to the buffered body"
    );

    // Warm streamed pass: still identical.
    let (status, streamed_warm, _) = http_chunked(addr, "/batch?stream=1", &body);
    assert_eq!(status, 200);
    assert_eq!(streamed_warm, buffered);

    // And the body is real: 320 well-formed responses, mixed outcomes, all
    // also identical to the in-process engine.
    let parsed: Vec<QaResponse> = serde_json::from_str(&streamed_cold).expect("valid JSON array");
    assert_eq!(parsed.len(), 320);
    assert!(parsed.iter().any(|r| r.answered()));
    assert!(parsed.iter().any(|r| !r.answered()));
    let expected = serde_json::to_string(&f.service.answer_batch(&requests)).unwrap();
    assert_eq!(streamed_cold, expected, "stream must equal in-process");

    let snap = metrics(addr);
    assert_eq!(snap.batch_requests, 3);
    assert_eq!(snap.batch_stream_requests, 2);
    assert!(snap.batch_stream_chunks as usize >= chunks_cold);
    assert_eq!(snap.batch_latency.count, 3);
    assert_eq!(snap.responses_5xx, 0);

    server.shutdown();
}

/// A cold buffered `/batch` of 320 questions misses on every question, so
/// every lane renders straight into the body; a second batch mixing cached
/// and new questions takes the hits-and-misses path. Both must equal the
/// sequential in-process rendering, byte for byte.
#[test]
fn buffered_batches_match_the_sequential_rendering_cold_and_mixed() {
    let f = fixture();
    let server = start_server(ServerConfig::default());
    let addr = server.local_addr();
    let sequential = |requests: &[QaRequest]| {
        let rendered: Vec<String> = requests
            .iter()
            .map(|r| serde_json::to_string(&f.service.answer(r)).unwrap())
            .collect();
        format!("[{}]", rendered.join(","))
    };

    let cold = big_batch(&f.questions, 320);
    let (status, body) = http(
        addr,
        "POST",
        "/batch",
        &serde_json::to_string(&cold).unwrap(),
    );
    assert_eq!(status, 200);
    assert_eq!(body, sequential(&cold));

    let mixed: Vec<QaRequest> = cold
        .iter()
        .take(160)
        .cloned()
        .chain((0..160).map(|i| QaRequest::new(format!("who founded rome {i}"))))
        .collect();
    let (status, body) = http(
        addr,
        "POST",
        "/batch",
        &serde_json::to_string(&mixed).unwrap(),
    );
    assert_eq!(status, 200);
    assert_eq!(body, sequential(&mixed));
    assert!(metrics(addr).cache.hits >= 160);

    server.shutdown();
}

#[test]
fn stream_opt_in_is_the_client_query_param() {
    let f = fixture();
    let body = serde_json::to_string(&[QaRequest::new(&f.questions[0])]).unwrap();

    // No `?stream=1`: buffered (`Content-Length`) framing.
    let server = start_server(ServerConfig::default());
    let (status, _) = http(server.local_addr(), "POST", "/batch", &body);
    assert_eq!(status, 200);
    assert_eq!(metrics(server.local_addr()).batch_stream_requests, 0);

    // Parse errors on the streaming route answer buffered (no stream head
    // goes out before success is certain).
    let (status, error_body) = http(server.local_addr(), "POST", "/batch?stream=1", "{not json");
    assert_eq!(status, 400);
    assert!(error_body.contains("error"));

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Backpressure: a reader that stalls stalls its batch
// ---------------------------------------------------------------------------

/// The largest send buffer TCP autotunes a socket to (`tcp_wmem`'s third
/// field): how many bytes the server's side of a stalled stream can hold.
fn tcp_wmem_max() -> usize {
    std::fs::read_to_string("/proc/sys/net/ipv4/tcp_wmem")
        .ok()
        .and_then(|s| s.split_whitespace().nth(2)?.parse().ok())
        .unwrap_or(4 << 20)
}

/// Pin `stream`'s receive buffer at `bytes`, which also stops it
/// autotuning; Linux reserves twice that, which this returns.
fn pin_receive_buffer(stream: &TcpStream, bytes: i32) -> usize {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_RCVBUF, &bytes, 4) };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
    2 * bytes as usize
}

#[test]
fn a_stalled_stream_reader_stalls_its_batch() {
    // The stalled reader's receive buffer is pinned small, so what loopback
    // absorbs before the server's writes block is that plus the server's
    // send buffer, at most `tcp_wmem`'s maximum (4 MiB by default). The
    // batch is sized to over 3× that at ≈150 bytes per answer, and never
    // under 100 000 questions (≈15 MB): a batch that computed on regardless
    // of its reader would finish while the reader stalls, its chunks piling
    // up in the server's memory.
    const ANSWER_BYTES: usize = 150;
    let f = fixture();
    let server = start_server(ServerConfig {
        max_body_bytes: 1 << 30,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut stalled = TcpStream::connect(addr).expect("connect");
    let absorbed = pin_receive_buffer(&stalled, 64 << 10) + tcp_wmem_max();
    let questions = (3 * absorbed / ANSWER_BYTES).max(100_000);
    let requests = big_batch(&f.questions, questions);
    let body = serde_json::to_string(&requests).unwrap();

    send_request(&mut stalled, "POST", "/batch?stream=1", &body, true);
    let (status, head) = read_head(&mut stalled);
    assert_eq!(status, 200, "{head}");

    // The reader stalls; a second connection watches the batch's questions
    // being answered until the count stops moving.
    let answered = || {
        let snap = metrics(addr);
        snap.answered + snap.refused
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut seen = answered();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = answered();
        let settled = now == seen || now >= questions as u64;
        seen = now;
        if settled {
            break;
        }
        assert!(Instant::now() < deadline, "the batch never settled: {seen}");
    }
    assert!(
        seen < questions as u64 / 2,
        "{seen} of {questions} questions answered while the reader stalled: \
         unwritten chunks must hold the batch back"
    );

    // The reader resumes: the rest of the stream arrives, byte-identical to
    // the buffered body.
    stalled
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let (streamed, _) = read_chunks(&mut stalled);
    let (status, buffered) = http(addr, "POST", "/batch", &body);
    assert_eq!(status, 200);
    assert_eq!(streamed, buffered);
    assert_eq!(metrics(addr).responses_5xx, 0);

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Mid-stream disconnect: the loop thread must survive the client
// ---------------------------------------------------------------------------

#[test]
fn mid_stream_disconnect_does_not_wedge_the_server() {
    let f = fixture();
    let server = start_server(ServerConfig {
        stream_flush_bytes: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();

    for round in 0..3 {
        // Distinct questions each round: every lane is a cache miss, so the
        // batch is still computing when the client vanishes.
        let requests: Vec<QaRequest> = (0..400)
            .map(|i| QaRequest::new(format!("why is the sky blue {round} {i}")))
            .collect();
        let body = serde_json::to_string(&requests).unwrap();
        let mut stream = TcpStream::connect(addr).expect("connect");
        send_request(&mut stream, "POST", "/batch?stream=1", &body, false);
        let (status, _) = read_head(&mut stream);
        assert_eq!(status, 200);
        // Read a few body bytes to prove the stream started, then vanish.
        let mut partial = [0u8; 64];
        stream.read_exact(&mut partial).expect("first chunk bytes");
        drop(stream);
    }

    // Every loop thread still serves: more concurrent requests than loops,
    // each with a short client-side deadline.
    std::thread::sleep(Duration::from_millis(100));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect post-disconnect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                send_request(&mut stream, "GET", "/healthz", "", true);
                let (status, _) = read_buffered(&mut stream);
                assert_eq!(status, 200, "server wedged after mid-stream disconnect");
            });
        }
    });

    // And a full stream still completes end to end.
    let body = serde_json::to_string(&big_batch(&f.questions, 40)).unwrap();
    let (status, streamed, _) = http_chunked(addr, "/batch?stream=1", &body);
    assert_eq!(status, 200);
    let parsed: Vec<QaResponse> = serde_json::from_str(&streamed).expect("valid stream");
    assert_eq!(parsed.len(), 40);

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Streams never mix model epochs across /admin/reload
// ---------------------------------------------------------------------------

#[test]
fn streamed_batch_crossing_reload_serves_one_epoch() {
    // Own service (not the shared fixture): the reload mutates the model.
    let world = World::generate(WorldConfig::tiny(43));
    let corpus = QaCorpus::generate(&world, &CorpusConfig::with_pairs(1, 400));
    let ner = Arc::new(GazetteerNer::from_store(&world.store));
    let learner = Learner::new(
        &world.store,
        &world.conceptualizer,
        &ner,
        &world.predicate_classes,
    );
    let pairs: Vec<(&str, &str)> = corpus
        .pairs
        .iter()
        .map(|p| (p.question.as_str(), p.answer.as_str()))
        .collect();
    let (model, _) = learner.learn(&pairs, &LearnerConfig::default());
    let service = KbqaService::builder(
        Arc::clone(&world.store),
        Arc::clone(&world.conceptualizer),
        Arc::new(model),
    )
    .ner(ner)
    .build();

    let dir = std::env::temp_dir().join(format!("kbqa-stream-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path = dir.join("model.json");
    save_model(&kbqa_core::learner::LearnedModel::default(), &model_path).expect("save");

    let server = serve(
        service,
        "127.0.0.1:0",
        ServerConfig {
            admin_token: Some("swordfish".into()),
            model_path: Some(model_path.clone()),
            stream_flush_bytes: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // A long all-miss stream; a reload fired mid-flight from the side.
    let requests: Vec<QaRequest> = (0..600)
        .map(|i| QaRequest::new(format!("what is question number {i}")))
        .collect();
    let body = serde_json::to_string(&requests).unwrap();
    let mut stream = TcpStream::connect(addr).expect("connect");
    send_request(&mut stream, "POST", "/batch?stream=1", &body, true);
    let (status, head) = read_head(&mut stream);
    assert_eq!(status, 200, "{head}");

    let reloader = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        let mut stream = TcpStream::connect(addr).expect("connect reload");
        write!(
            stream,
            "POST /admin/reload?mode=model HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
             X-Admin-Token: swordfish\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let (status, body) = read_buffered(&mut stream);
        assert_eq!(status, 200, "reload failed: {body}");
        assert!(body.contains("\"mode\":\"model\""), "{body}");
        assert!(body.contains("\"model_epoch\":1"), "{body}");
    });

    // Decode the rest of the stream (head already consumed).
    let mut raw = Vec::new();
    let mut chunk_body = Vec::new();
    stream.read_to_end(&mut raw).expect("read stream");
    let mut rest: &[u8] = &raw;
    loop {
        let nl = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = usize::from_str_radix(std::str::from_utf8(&rest[..nl]).unwrap().trim(), 16)
            .expect("hex size");
        rest = &rest[nl + 2..];
        if size == 0 {
            break;
        }
        chunk_body.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
    reloader.join().expect("reloader thread");

    let parsed: Vec<QaResponse> =
        serde_json::from_str(std::str::from_utf8(&chunk_body).unwrap()).expect("valid stream");
    assert_eq!(parsed.len(), 600);
    let epochs: std::collections::BTreeSet<u64> = parsed.iter().map(|r| r.model_epoch).collect();
    assert_eq!(
        epochs.len(),
        1,
        "one stream must serve exactly one model epoch, got {epochs:?}"
    );

    // Post-reload streams serve the new epoch.
    let single = serde_json::to_string(&[QaRequest::new("what is question number 0")]).unwrap();
    let (status, after, _) = http_chunked(addr, "/batch?stream=1", &single);
    assert_eq!(status, 200);
    let parsed: Vec<QaResponse> = serde_json::from_str(&after).unwrap();
    assert_eq!(parsed[0].model_epoch, 1);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
