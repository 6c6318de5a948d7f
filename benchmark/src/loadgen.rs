//! The load generator: one thread and one connection per client, closed or
//! open loop, every reply checked, every operation timed from the instant it
//! was due.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::http::{render_head, Conn, OP_TIMEOUT};
use crate::trace::{Span, SpanBuffer};

/// The admin token the benchmark's server child is started with.
pub const ADMIN_TOKEN: &str = "benchmark";

/// What a generator sends and how it judges the replies. The workloads
/// implement it over the question pool; tests implement it over canned bytes.
pub trait Traffic: Sync {
    /// Render connection `conn`'s `k`-th request (head and body) into `out`
    /// and describe it.
    fn request(&self, conn: usize, k: u64, out: &mut Vec<u8>) -> Sent;
    /// Is `body` the right reply to `sent`? `epoch` is the highest model
    /// epoch this connection has seen; a right reply never carries a lower
    /// one, and raises it.
    fn verify(&self, sent: &Sent, body: &[u8], epoch: &mut u64) -> bool;
}

/// One rendered operation.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// The operation's id: its `request_id` on the wire and in the spans.
    pub id: u64,
    /// What the operation was, in the traffic's own terms.
    pub op: crate::workload::Op,
    /// Questions it carries.
    pub questions: u32,
}

/// When operations are sent.
#[derive(Clone, Copy, Debug)]
pub struct Pacing {
    /// `None`: closed loop, the next request goes out when the previous
    /// reply is complete. `Some(i)`: open loop, request `k` of a connection
    /// is due at `origin + offset + k * i` whatever happened before.
    pub interval: Option<Duration>,
    /// Send `POST /admin/reload?mode=model` on connection 0 this often, the
    /// first half a period into the measured time.
    pub reload_every: Option<Duration>,
}

/// The time line of one run, as offsets from `origin`.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub origin: Instant,
    /// Samples that complete before this are warm-up and are dropped.
    pub measure_from: Duration,
    /// Spans are recorded for operations that complete after this.
    pub trace_from: Option<Duration>,
    /// No operation starts after this.
    pub end: Duration,
    /// Sequence number of each connection's first operation.
    pub first_k: u64,
}

/// Everything about a run but the traffic and the address.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Client threads, one connection each.
    pub conns: usize,
    /// Threads that only yield, one per CPU the generator owns (see [`run`]).
    pub keep_awake: usize,
    pub pacing: Pacing,
    pub phases: Phases,
    /// Spans each connection can record before it starts dropping them.
    pub span_capacity: usize,
}

/// One completed (or failed) operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion, ns after `origin`.
    pub done_ns: u64,
    /// Send — or due time, in an open loop — to last body byte.
    pub latency_ns: u64,
    /// Same start, to first body byte.
    pub first_byte_ns: u64,
    /// How late the generator itself was: write start minus the later of
    /// the due time and the previous reply's completion.
    pub lag_ns: u64,
    pub questions: u32,
    pub bytes_in: u32,
    pub ok: bool,
}

/// What one connection thread brings back.
pub struct ConnResult {
    pub samples: Vec<Sample>,
    pub reconnects: u64,
    /// Latency of each successful reload, ms.
    pub reload_ms: Vec<f64>,
    pub reloads_failed: u64,
    pub spans: SpanBuffer,
    /// Sequence number after the last operation sent.
    pub next_k: u64,
}

/// Sleep most of the way to `due`, then poll the clock: a sleeping thread
/// wakes up to a timer slack late. The polling thread yields each time
/// round, so a client that shares its CPU and is due now gets it.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Render `POST /admin/reload?mode=model` with the admin token into `out`.
pub fn render_reload(out: &mut Vec<u8>) {
    render_head(
        out,
        "POST /admin/reload?mode=model",
        &format!("X-Admin-Token: {ADMIN_TOKEN}\r\n"),
        0,
    );
}

/// Run connection `conn` of `plan.conns` against `addr` for the whole of
/// `plan.phases`.
pub fn drive<T: Traffic>(traffic: &T, addr: SocketAddr, conn: usize, plan: &Plan) -> ConnResult {
    let Plan {
        conns,
        pacing,
        phases,
        span_capacity,
        ..
    } = *plan;
    let origin = phases.origin;
    let end = origin + phases.end;
    let mut http = Conn::new(addr);
    let mut request = Vec::with_capacity(64 << 10);
    let mut result = ConnResult {
        // Room for 50k operations per measured second: no growth mid-run.
        samples: Vec::with_capacity(
            ((phases.end.saturating_sub(phases.measure_from)).as_secs_f64() * 50e3) as usize + 1024,
        ),
        reconnects: 0,
        reload_ms: Vec::new(),
        reloads_failed: 0,
        spans: SpanBuffer::with_capacity(span_capacity),
        next_k: phases.first_k,
    };
    // Connections share the schedule evenly, each offset by its share of the
    // interval so arrivals do not coincide.
    let offset = pacing
        .interval
        .map_or(Duration::ZERO, |i| i * conn as u32 / conns as u32);
    let mut next_reload = pacing
        .reload_every
        .filter(|_| conn == 0)
        .map(|every| phases.measure_from + every / 2);
    let mut reload_request = Vec::new();
    render_reload(&mut reload_request);
    let mut epoch = 0u64;
    let mut prev_done = origin;
    let mut k = 0u64;
    loop {
        // Rendering happens before the clock starts: in an open loop the
        // wait for the due time absorbs it, in a closed loop it is the
        // client's own think time.
        let sent = traffic.request(conn, phases.first_k + k, &mut request);
        let due = match pacing.interval {
            Some(interval) => origin + offset + interval * u32::try_from(k).unwrap_or(u32::MAX),
            None => Instant::now(),
        };
        if due >= end {
            break;
        }
        if let Some(at) = next_reload.filter(|&at| due >= origin + at) {
            wait_until(origin + at);
            match http.roundtrip(&reload_request) {
                Ok(reply)
                    if reply.status == 200
                        && crate::http::find(&http.body, b"\"reloaded\":true").is_some() =>
                {
                    result
                        .reload_ms
                        .push((reply.done - (origin + at)).as_secs_f64() * 1e3);
                }
                _ => result.reloads_failed += 1,
            }
            prev_done = Instant::now();
            next_reload = pacing.reload_every.map(|every| at + every);
        }
        wait_until(due);
        let write_at = Instant::now();
        let outcome = http.roundtrip(&request);
        let (ok, first_byte, done, bytes_in) = match outcome {
            Ok(reply) => (
                reply.status == 200
                    && reply.done - due <= OP_TIMEOUT
                    && traffic.verify(&sent, &http.body, &mut epoch),
                reply.first_byte,
                reply.done,
                reply.bytes_in,
            ),
            Err(_) => {
                let now = Instant::now();
                (false, now, now, 0)
            }
        };
        let measured = done >= origin + phases.measure_from;
        if measured {
            result.samples.push(Sample {
                done_ns: ns(done - origin),
                latency_ns: ns(done - due),
                first_byte_ns: ns(first_byte - due),
                lag_ns: ns(write_at - due.max(prev_done)),
                questions: sent.questions,
                bytes_in: u32::try_from(bytes_in).unwrap_or(u32::MAX),
                ok,
            });
        }
        if phases.trace_from.is_some_and(|from| done >= origin + from) {
            let at = |t: Instant| ns(t - origin);
            result
                .spans
                .push(Span::new("request", "", sent.id, at(due), at(done)));
            result.spans.push(Span::new(
                "loadgen.wait_send",
                "request",
                sent.id,
                at(due),
                at(write_at),
            ));
            result.spans.push(Span::new(
                "server.http.roundtrip",
                "request",
                sent.id,
                at(write_at),
                at(done),
            ));
        }
        prev_done = done;
        k += 1;
    }
    result.reconnects = http.reconnects();
    result.next_k = phases.first_k + k;
    result
}

/// Run `conns` connections in parallel; `during` runs on the calling thread
/// meanwhile (it samples the server at the phase boundaries).
///
/// `keep_awake` threads — one per CPU the generator owns — do nothing but
/// yield for as long as the connections run. A blocked client leaves its CPU
/// idle, an idle virtual CPU halts, and waking a halted one costs the
/// generator tens to hundreds of µs that would be charged to the server (and
/// that vary with the host's mood). A thread that only yields keeps the CPU
/// awake and gives it up the instant a client thread is runnable.
pub fn run<T: Traffic, R>(
    traffic: &T,
    addr: SocketAddr,
    plan: &Plan,
    during: impl FnOnce() -> R,
) -> (Vec<ConnResult>, R) {
    let running = std::sync::atomic::AtomicBool::new(true);
    std::thread::scope(|scope| {
        for _ in 0..plan.keep_awake {
            scope.spawn(|| {
                // Relaxed: the flag publishes no other data.
                while running.load(std::sync::atomic::Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            });
        }
        let threads: Vec<_> = (0..plan.conns)
            .map(|conn| scope.spawn(move || drive(traffic, addr, conn, plan)))
            .collect();
        let observed = during();
        let results = threads
            .into_iter()
            .map(|t| t.join().expect("load generator thread panicked"))
            .collect();
        running.store(false, std::sync::atomic::Ordering::Relaxed);
        (results, observed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Op;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// Sends `k` as the body and expects it echoed.
    struct Echo;

    impl Traffic for Echo {
        fn request(&self, _conn: usize, k: u64, out: &mut Vec<u8>) -> Sent {
            let body = k.to_string();
            render_head(out, "POST /echo", "", body.len());
            out.extend_from_slice(body.as_bytes());
            Sent {
                id: k,
                op: Op::Answer { q: 0 },
                questions: 1,
            }
        }
        fn verify(&self, sent: &Sent, body: &[u8], _epoch: &mut u64) -> bool {
            body == sent.id.to_string().as_bytes()
        }
    }

    /// An echo server that stalls for `stall` before answering request
    /// number `stall_at`, and closes every connection after `cap` requests
    /// the way the real server's keep-alive cap does.
    fn echo_server(stall_at: usize, stall: Duration, cap: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut served = 0usize;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                stream.set_nodelay(true).unwrap();
                let mut buf = Vec::new();
                let mut on_conn = 0usize;
                'conn: loop {
                    // One request: head, then Content-Length body bytes.
                    let (head_end, len) = loop {
                        if let Some(pos) = crate::http::find(&buf, b"\r\n\r\n") {
                            let head = String::from_utf8_lossy(&buf[..pos]).into_owned();
                            let len: usize = head
                                .lines()
                                .find_map(|l| l.strip_prefix("Content-Length: "))
                                .unwrap()
                                .parse()
                                .unwrap();
                            if buf.len() >= pos + 4 + len {
                                break (pos + 4, len);
                            }
                        }
                        let mut chunk = [0u8; 4096];
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => break 'conn,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    };
                    let body = buf[head_end..head_end + len].to_vec();
                    buf.drain(..head_end + len);
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    on_conn += 1;
                    let close = on_conn == cap;
                    let mut reply = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
                        body.len(),
                        if close { "close" } else { "keep-alive" }
                    )
                    .into_bytes();
                    reply.extend_from_slice(&body);
                    let _ = stream.write_all(&reply);
                    if close {
                        break;
                    }
                }
            }
        });
        addr
    }

    /// One connection, nothing traced, `end_ms` long.
    fn plan(interval: Option<Duration>, end_ms: u64) -> Plan {
        Plan {
            conns: 1,
            keep_awake: 0,
            pacing: Pacing {
                interval,
                reload_every: None,
            },
            phases: Phases {
                origin: Instant::now(),
                measure_from: Duration::ZERO,
                trace_from: None,
                end: Duration::from_millis(end_ms),
                first_k: 0,
            },
            span_capacity: 0,
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        // 1000 req/s for 200 ms; request 50 stalls the server for 50 ms.
        let addr = echo_server(50, Duration::from_millis(50), usize::MAX);
        let result = drive(&Echo, addr, 0, &plan(Some(Duration::from_millis(1)), 200));
        assert_eq!(result.samples.len(), 200, "every scheduled request is sent");
        assert!(result.samples.iter().all(|s| s.ok));
        let ms = |s: &Sample| s.latency_ns as f64 / 1e6;
        // The stalled request itself…
        assert!(ms(&result.samples[50]) >= 50.0);
        // …and the ones that were due while it was stuck: request 60 was due
        // 10 ms into the stall, so it waited about 40 ms before it could
        // even be written. A send-time clock would show it as fast.
        assert!(
            ms(&result.samples[60]) >= 35.0,
            "{}",
            ms(&result.samples[60])
        );
        assert!(
            ms(&result.samples[90]) >= 5.0,
            "{}",
            ms(&result.samples[90])
        );
        // Before the stall, and once the backlog is drained, latency is small.
        assert!(ms(&result.samples[10]) < 20.0);
        assert!(ms(&result.samples[199]) < 20.0);
        // That wait is the server's doing, not the generator's.
        assert!(result.samples[60].lag_ns < 5_000_000);
        let late = result
            .samples
            .iter()
            .filter(|s| s.latency_ns > 5_000_000)
            .count();
        assert!(late >= 45, "only {late} requests show the stall");
    }

    #[test]
    fn reloads_start_half_a_period_into_the_measured_time() {
        let addr = echo_server(usize::MAX, Duration::ZERO, usize::MAX);
        // 100 ms, measured from 20 ms, a reload every 40 ms: at 40 and 80 ms.
        let mut plan = plan(Some(Duration::from_millis(1)), 100);
        plan.pacing.reload_every = Some(Duration::from_millis(40));
        plan.phases.measure_from = Duration::from_millis(20);
        let result = drive(&Echo, addr, 0, &plan);
        // The echo server is no admin surface: each attempt counts as failed.
        assert_eq!((result.reloads_failed, result.reload_ms.len()), (2, 0));
        // Warm-up samples are dropped (a late reply may slip over the line).
        assert!((80..85).contains(&result.samples.len()));
        assert!(result.samples.iter().all(|s| s.ok));
    }

    #[test]
    fn closed_loop_reconnects_when_the_server_closes() {
        let addr = echo_server(usize::MAX, Duration::ZERO, 16);
        let result = drive(&Echo, addr, 0, &plan(None, 100));
        assert!(result.samples.len() > 64, "{}", result.samples.len());
        assert!(
            result.samples.iter().all(|s| s.ok),
            "no request lost to a closed socket"
        );
        assert_eq!(result.reconnects, (result.samples.len() as u64 - 1) / 16);
    }
}
