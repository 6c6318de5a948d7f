//! The router-side client for one out-of-process shard worker.
//!
//! A [`RemoteShard`] is the remote lane behind
//! [`ShardRouter`](crate::shard::ShardRouter): it speaks the
//! [`wire`](crate::wire) protocol over a unix-domain socket to the
//! `kbqa-shardd` process owning one shard, with
//!
//! * a small **connection pool** (engine threads check a stream out per
//!   lookup and return it on success; a failed stream is dropped, never
//!   reused),
//! * a **per-lookup deadline** enforced through socket read/write
//!   timeouts, so a hung worker (SIGSTOP, swap storm) costs one bounded
//!   wait — never a wedged batch, and
//! * **bounded retries** on transient transport errors (connect refused
//!   while the supervisor restarts the worker, reset mid-frame, a corrupt
//!   or truncated reply) — each retry on a fresh connection, all
//!   attempts inside the same overall deadline.
//!
//! When the budget is exhausted the error propagates as
//! [`RemoteError`]; the router converts it into the same typed
//! [`ShardPanic`](crate::shard::ShardPanic) unwind a parked lane's poison
//! flag raises, so the service-layer isolation (catch at the request
//! boundary → [`Refusal::ShardUnavailable`](crate::service::Refusal))
//! is one path for every lane failure.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kbqa_rdf::path::ExpandedPredicate;
use kbqa_rdf::NodeId;

use crate::wire::{read_frame, write_frame, ErrorCode, Frame, WireError};

/// Client tuning for one remote shard lane.
#[derive(Clone, Debug)]
pub struct RemoteOptions {
    /// Overall wall-clock budget for one lookup, covering every retry.
    pub deadline: Duration,
    /// Extra attempts after the first on transient errors (0 = no retry).
    pub retries: u32,
    /// Idle connections kept pooled per lane.
    pub max_idle: usize,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        Self {
            deadline: Duration::from_millis(500),
            retries: 1,
            max_idle: 8,
        }
    }
}

/// Why a remote call failed after exhausting its budget.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport-level failure (connect, reset, truncation, corruption)
    /// that outlived every retry.
    Unavailable(String),
    /// The worker refused the pinned epoch (staged but not committed, or a
    /// restarted worker still catching up).
    Epoch {
        /// Epoch the request pinned.
        requested: u64,
        /// Detail from the worker.
        detail: String,
    },
    /// The worker replied with a well-formed but unexpected frame — a
    /// protocol bug, not worth retrying.
    Protocol(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Unavailable(why) => write!(f, "shard worker unavailable: {why}"),
            RemoteError::Epoch { requested, detail } => {
                write!(f, "epoch {requested} unavailable at worker: {detail}")
            }
            RemoteError::Protocol(why) => write!(f, "shard worker protocol error: {why}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// One remote shard lane: the socket address of its worker plus a pool of
/// warm connections.
#[derive(Debug)]
pub struct RemoteShard {
    shard: usize,
    socket: PathBuf,
    opts: RemoteOptions,
    pool: Mutex<Vec<UnixStream>>,
}

impl RemoteShard {
    /// A lane for shard `shard` whose worker listens on `socket`.
    pub fn new(shard: usize, socket: impl Into<PathBuf>, opts: RemoteOptions) -> Self {
        Self {
            shard,
            socket: socket.into(),
            opts,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The shard this lane serves.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The worker's socket path.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Drop every pooled connection (after a worker restart the old
    /// streams point at a dead socket; proactive clearing saves one failed
    /// attempt per pooled stream).
    pub fn clear_pool(&self) {
        self.pool.lock().unwrap().clear();
    }

    fn checkout(&self, remaining: Duration, fresh: bool) -> Result<UnixStream, WireError> {
        let pooled = if fresh {
            None
        } else {
            self.pool.lock().unwrap().pop()
        };
        if let Some(stream) = pooled {
            set_timeouts(&stream, remaining)?;
            return Ok(stream);
        }
        let stream = UnixStream::connect(&self.socket)?;
        set_timeouts(&stream, remaining)?;
        Ok(stream)
    }

    fn checkin(&self, stream: UnixStream) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < self.opts.max_idle {
            pool.push(stream);
        }
    }

    /// One request/reply exchange on a pooled connection, or a `fresh`
    /// one, with the per-call deadline already running. The stream is only
    /// returned to the pool after a fully successful exchange.
    fn exchange(
        &self,
        request: &Frame,
        remaining: Duration,
        fresh: bool,
    ) -> Result<Frame, WireError> {
        let mut stream = self.checkout(remaining, fresh)?;
        write_frame(&mut stream, request)?;
        let reply = read_frame(&mut stream)?;
        self.checkin(stream);
        Ok(reply)
    }

    /// Issue `request` under this lane's deadline/retry budget, classifying
    /// failures. Transient transport errors retry on a fresh connection
    /// while the deadline allows; worker `Error` frames and unexpected
    /// frames do not retry.
    pub fn call(&self, request: &Frame) -> Result<Frame, RemoteError> {
        self.call_with(request, self.opts.deadline, self.opts.retries)
    }

    /// [`RemoteShard::call`] with an explicit budget — the supervisor uses
    /// longer budgets for stage/commit (snapshot preload is not a lookup).
    pub fn call_with(
        &self,
        request: &Frame,
        deadline: Duration,
        retries: u32,
    ) -> Result<Frame, RemoteError> {
        let started = Instant::now();
        let mut last: Option<WireError> = None;
        for attempt in 0..=retries {
            let remaining = deadline.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                break;
            }
            match self.exchange(request, remaining, attempt > 0) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_transient() => {
                    last = Some(e);
                    // A dead worker refuses instantly; without a pause the
                    // whole retry budget burns in microseconds. Tiny, capped
                    // backoff — the real restart cadence lives in the
                    // supervisor.
                    if attempt < retries {
                        let pause = Duration::from_millis(5 << attempt.min(4))
                            .min(deadline.saturating_sub(started.elapsed()));
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                    }
                }
                Err(e) => {
                    return Err(RemoteError::Protocol(e.to_string()));
                }
            }
        }
        Err(RemoteError::Unavailable(match last {
            Some(e) => format!(
                "shard {} via {}: {e} (budget {:?}, {} attempt(s))",
                self.shard,
                self.socket.display(),
                deadline,
                retries + 1,
            ),
            None => format!(
                "shard {} via {}: deadline {:?} exhausted before any attempt",
                self.shard,
                self.socket.display(),
                deadline,
            ),
        }))
    }

    /// The scatter RPC: `V(entity, path)` on the owning worker, values
    /// appended to `out` in shard-traversal order.
    pub fn lookup_into(
        &self,
        epoch: u64,
        entity: NodeId,
        path: &ExpandedPredicate,
        out: &mut Vec<NodeId>,
    ) -> Result<(), RemoteError> {
        let request = Frame::Lookup {
            epoch,
            entity,
            path: path.edges().to_vec(),
        };
        match self.call(&request)? {
            Frame::Values { values } => {
                out.extend_from_slice(&values);
                Ok(())
            }
            Frame::Error {
                code: ErrorCode::EpochUnavailable,
                message,
            } => Err(RemoteError::Epoch {
                requested: epoch,
                detail: message,
            }),
            Frame::Error { code, message } => Err(RemoteError::Protocol(format!(
                "worker error {code:?}: {message}"
            ))),
            other => Err(RemoteError::Protocol(format!(
                "expected Values, got {other:?}"
            ))),
        }
    }

    /// Heartbeat probe under `deadline`; returns the worker's
    /// `(epoch, served)` on success.
    pub fn ping(&self, nonce: u64, deadline: Duration) -> Result<(u64, u64), RemoteError> {
        match self.call_with(&Frame::Ping { nonce }, deadline, 0)? {
            Frame::Pong {
                nonce: echoed,
                shard,
                epoch,
                served,
            } => {
                if echoed != nonce {
                    return Err(RemoteError::Protocol(format!(
                        "pong nonce {echoed} != ping nonce {nonce}"
                    )));
                }
                if shard as usize != self.shard {
                    return Err(RemoteError::Protocol(format!(
                        "pong from shard {shard}, lane expects {}",
                        self.shard
                    )));
                }
                Ok((epoch, served))
            }
            other => Err(RemoteError::Protocol(format!(
                "expected Pong, got {other:?}"
            ))),
        }
    }
}

fn set_timeouts(stream: &UnixStream, budget: Duration) -> Result<(), WireError> {
    // A zero timeout means "block forever" to the socket API — clamp up so
    // an exhausted budget still fails fast instead of hanging.
    let t = budget.max(Duration::from_millis(1));
    stream.set_read_timeout(Some(t))?;
    stream.set_write_timeout(Some(t))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::{Read, Write};
    use std::os::unix::net::UnixListener;

    use crate::wire::encode_frame;

    fn sock_path(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kbqa-remote-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("w.sock")
    }

    /// A rogue worker: accepts one connection, reads one frame, replies
    /// with raw `reply` bytes (possibly corrupt or truncated), then hangs
    /// up.
    fn rogue_worker(path: &Path, reply: Vec<u8>) -> std::thread::JoinHandle<()> {
        let listener = UnixListener::bind(path).unwrap();
        std::thread::spawn(move || {
            // Serve a few connections: the client retries on fresh streams.
            for _ in 0..4 {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let _ = read_frame(&mut stream);
                let _ = stream.write_all(&reply);
                let _ = stream.flush();
            }
        })
    }

    fn fast_opts() -> RemoteOptions {
        RemoteOptions {
            deadline: Duration::from_millis(200),
            retries: 1,
            max_idle: 2,
        }
    }

    #[test]
    fn connect_refused_is_unavailable_not_a_hang() {
        let lane = RemoteShard::new(0, sock_path("refused"), fast_opts());
        let started = Instant::now();
        let err = lane
            .lookup_into(
                0,
                NodeId(1),
                &ExpandedPredicate::single(kbqa_rdf::PredicateId(0)),
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(matches!(err, RemoteError::Unavailable(_)), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "bounded by deadline, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn corrupt_reply_frame_is_detected_and_bounded() {
        let path = sock_path("corrupt");
        let mut reply = encode_frame(&Frame::Values {
            values: vec![NodeId(1), NodeId(2)],
        });
        reply[6] ^= 0xff; // flip a payload byte; checksum now fails
        let _worker = rogue_worker(&path, reply);
        let lane = RemoteShard::new(0, &path, fast_opts());
        let mut out = Vec::new();
        let err = lane
            .lookup_into(
                0,
                NodeId(1),
                &ExpandedPredicate::single(kbqa_rdf::PredicateId(0)),
                &mut out,
            )
            .unwrap_err();
        assert!(matches!(err, RemoteError::Unavailable(_)), "{err}");
        assert!(out.is_empty(), "no garbage values leak into the merge");
    }

    #[test]
    fn truncated_reply_frame_is_detected_and_bounded() {
        let path = sock_path("truncated");
        let full = encode_frame(&Frame::Values {
            values: vec![NodeId(1), NodeId(2), NodeId(3)],
        });
        let reply = full[..full.len() / 2].to_vec();
        let _worker = rogue_worker(&path, reply);
        let lane = RemoteShard::new(0, &path, fast_opts());
        let mut out = Vec::new();
        let started = Instant::now();
        let err = lane
            .lookup_into(
                0,
                NodeId(1),
                &ExpandedPredicate::single(kbqa_rdf::PredicateId(0)),
                &mut out,
            )
            .unwrap_err();
        assert!(matches!(err, RemoteError::Unavailable(_)), "{err}");
        assert!(out.is_empty());
        assert!(started.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn silent_worker_hits_read_timeout_within_deadline() {
        let path = sock_path("silent");
        let listener = UnixListener::bind(&path).unwrap();
        let _worker = std::thread::spawn(move || {
            // Accept and read, but never reply — the SIGSTOP shape.
            for _ in 0..4 {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut buf = [0u8; 256];
                let _ = stream.read(&mut buf);
                std::thread::sleep(Duration::from_secs(5));
            }
        });
        let lane = RemoteShard::new(
            0,
            &path,
            RemoteOptions {
                deadline: Duration::from_millis(150),
                retries: 1,
                max_idle: 2,
            },
        );
        let started = Instant::now();
        let err = lane.ping(7, Duration::from_millis(150)).unwrap_err();
        assert!(matches!(err, RemoteError::Unavailable(_)), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "deadline bounds the hang, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn epoch_refusal_is_typed_and_not_retried() {
        let path = sock_path("epoch");
        let reply = encode_frame(&Frame::Error {
            code: ErrorCode::EpochUnavailable,
            message: "committed=0 requested=5".into(),
        });
        let _worker = rogue_worker(&path, reply);
        let lane = RemoteShard::new(0, &path, fast_opts());
        let err = lane
            .lookup_into(
                5,
                NodeId(1),
                &ExpandedPredicate::single(kbqa_rdf::PredicateId(0)),
                &mut Vec::new(),
            )
            .unwrap_err();
        match err {
            RemoteError::Epoch { requested, .. } => assert_eq!(requested, 5),
            other => panic!("expected epoch error, got {other}"),
        }
    }
}
