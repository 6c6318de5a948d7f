//! The `kbqa-shardd` worker: one shard, one process, one socket.
//!
//! A worker owns exactly one shard of the plan. It maps the shard's
//! snapshot (`store.shard-{i}.snap`) read-only — the same zero-copy warm
//! start the global `store.snap` gets — binds a unix-domain socket, and
//! serves the [`wire`](crate::wire) protocol with a thread per connection:
//!
//! * **`Lookup`** runs `V(entity, path)` against the committed store and
//!   replies with the values in shard-traversal order. Because the worker
//!   executes the *same* `objects_via_path_into` over a cut that holds
//!   every walk of the plan's closure depth from its owned subjects, with
//!   the *same* global id space, the scatter-gather merge is byte-identical
//!   to the unsharded kernel — `tests/shard_equivalence.rs` and the chaos
//!   suite pin this.
//! * **`Ping`** answers with the committed epoch and lookups served.
//! * **`Stage`/`Commit`** implement the two-phase reload: stage preloads
//!   a snapshot for epoch N+1 without serving it; commit flips it live
//!   atomically. A `Lookup` pinned to an epoch above the committed one is
//!   refused with a typed `EpochUnavailable` error — a mixed-epoch merge
//!   is impossible by construction.
//! * **`Terminate`** acknowledges and exits 0 — the supervisor's graceful
//!   shutdown path (SIGKILL only after a deadline).
//!
//! # Chaos hooks
//!
//! Fault injection is compiled in and armed by environment variables so
//! the chaos suite drives a *real* worker process into the failure modes
//! the supervisor must contain (values are `<shard>` or `<shard>:<n>` so
//! one variable targets one worker of a fleet):
//!
//! | variable | effect |
//! |---|---|
//! | `KBQA_SHARDD_EXIT_ON_START=<shard>` | exit(3) right after binding — crash loop |
//! | `KBQA_SHARDD_CRASH_AFTER_LOOKUPS=<shard>:<n>` | abort() mid-serving after n lookups |
//! | `KBQA_SHARDD_CORRUPT_EVERY=<shard>:<n>` | flip a byte in every nth reply frame of a connection |
//! | `KBQA_SHARDD_TRUNCATE_EVERY=<shard>:<n>` | send only half of every nth reply of a connection |
//!
//! Reply faults count per connection. The client retries on a fresh
//! connection, whose first reply is never the nth for n ≥ 2, so each
//! injected fault is the transient one a single retry hides.

use std::io::Write as _;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use kbqa_common::error::{KbqaError, Result};
use kbqa_rdf::path::{objects_via_path_into, ExpandedPredicate, PathWorkspace};
use kbqa_rdf::{NodeId, TripleStore};

use crate::persist;
use crate::wire::{encode_frame, read_frame, ErrorCode, Frame, WireError};

/// Worker invocation parameters (parsed from `kbqa-shardd` flags).
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's shard id under the plan.
    pub shard: usize,
    /// Path of the shard snapshot to serve (`store.shard-{i}.snap`).
    pub snapshot: PathBuf,
    /// Unix socket path to listen on (stale files are replaced).
    pub socket: PathBuf,
    /// The model epoch the worker starts committed at.
    pub epoch: u64,
}

/// Chaos injection knobs, parsed once at start. All default off.
#[derive(Clone, Copy, Debug, Default)]
struct Chaos {
    exit_on_start: bool,
    crash_after_lookups: u64,
    corrupt_every: u64,
    truncate_every: u64,
}

impl Chaos {
    fn from_env(shard: usize) -> Self {
        Self {
            exit_on_start: targeted(shard, "KBQA_SHARDD_EXIT_ON_START").is_some(),
            crash_after_lookups: targeted(shard, "KBQA_SHARDD_CRASH_AFTER_LOOKUPS").unwrap_or(0),
            corrupt_every: targeted(shard, "KBQA_SHARDD_CORRUPT_EVERY").unwrap_or(0),
            truncate_every: targeted(shard, "KBQA_SHARDD_TRUNCATE_EVERY").unwrap_or(0),
        }
    }
}

/// Parse `<shard>` (returns 1) or `<shard>:<n>` (returns n) when the
/// variable targets this worker's shard; `None` otherwise.
fn targeted(shard: usize, var: &str) -> Option<u64> {
    let value = std::env::var(var).ok()?;
    let (target, n) = match value.split_once(':') {
        Some((t, n)) => (t, n.parse().ok()?),
        None => (value.as_str(), 1),
    };
    (target.parse::<usize>().ok()? == shard).then_some(n)
}

struct WorkerState {
    shard: usize,
    committed: AtomicU64,
    store: RwLock<Arc<TripleStore>>,
    staged: Mutex<Option<(u64, Arc<TripleStore>)>>,
    served: AtomicU64,
    chaos: Chaos,
}

fn load_shard(path: &Path) -> Result<Arc<TripleStore>> {
    Ok(Arc::new(persist::load_store(path)?))
}

/// Run the worker: map the snapshot, bind the socket, serve until
/// `Terminate` (exit 0) or a fatal listener error. Replaces a stale
/// socket file from a previous incarnation — the supervisor reuses one
/// path per shard across restarts.
pub fn run(config: WorkerConfig) -> Result<()> {
    let chaos = Chaos::from_env(config.shard);
    let store = load_shard(&config.snapshot)?;
    let state = Arc::new(WorkerState {
        shard: config.shard,
        committed: AtomicU64::new(config.epoch),
        store: RwLock::new(store),
        staged: Mutex::new(None),
        served: AtomicU64::new(0),
        chaos,
    });
    let _ = std::fs::remove_file(&config.socket);
    let listener = UnixListener::bind(&config.socket)
        .map_err(|e| KbqaError::Io(format!("bind {}: {e}", config.socket.display())))?;
    if chaos.exit_on_start {
        // Crash-loop injection: die right after becoming connectable, the
        // worst moment for the supervisor.
        std::process::exit(3);
    }
    loop {
        let (stream, _) = listener
            .accept()
            .map_err(|e| KbqaError::Io(format!("accept: {e}")))?;
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name(format!("kbqa-shardd-{}-conn", config.shard))
            .spawn(move || serve_connection(stream, &state))
            .map_err(|e| KbqaError::Io(format!("spawn conn thread: {e}")))?;
    }
}

fn serve_connection(mut stream: UnixStream, state: &WorkerState) {
    let mut ws = PathWorkspace::default();
    let mut values: Vec<NodeId> = Vec::new();
    let mut replies = 0u64;
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(WireError::Io(_)) => return, // peer hung up / reset
            Err(e) => {
                let _ = send(
                    &mut stream,
                    &Frame::Error {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    },
                    state,
                    &mut replies,
                );
                return;
            }
        };
        let reply = match frame {
            Frame::Lookup {
                epoch,
                entity,
                path,
            } => {
                let committed = state.committed.load(Ordering::Acquire);
                if epoch > committed {
                    Frame::Error {
                        code: ErrorCode::EpochUnavailable,
                        message: format!("committed={committed} requested={epoch}"),
                    }
                } else {
                    let store = Arc::clone(&state.store.read().unwrap());
                    values.clear();
                    let expanded = ExpandedPredicate::new(path);
                    objects_via_path_into(&store, entity, &expanded, &mut ws, &mut values);
                    let served = state.served.fetch_add(1, Ordering::Relaxed) + 1;
                    if state.chaos.crash_after_lookups > 0
                        && served >= state.chaos.crash_after_lookups
                    {
                        // Simulated hard crash mid-batch: no reply, no
                        // cleanup, no exit handler.
                        std::process::abort();
                    }
                    Frame::Values {
                        values: values.clone(),
                    }
                }
            }
            Frame::Ping { nonce } => Frame::Pong {
                nonce,
                shard: state.shard as u32,
                epoch: state.committed.load(Ordering::Acquire),
                served: state.served.load(Ordering::Relaxed),
            },
            Frame::Stage { epoch, snapshot } => match load_shard(Path::new(&snapshot)) {
                Ok(store) => {
                    *state.staged.lock().unwrap() = Some((epoch, store));
                    Frame::Staged { epoch }
                }
                Err(e) => Frame::Error {
                    code: ErrorCode::Internal,
                    message: format!("stage {snapshot}: {e}"),
                },
            },
            Frame::Commit { epoch } => {
                let committed = state.committed.load(Ordering::Acquire);
                let staged = {
                    let mut guard = state.staged.lock().unwrap();
                    match guard.as_ref() {
                        Some((e, _)) if *e == epoch => guard.take(),
                        _ => None,
                    }
                };
                match staged {
                    Some((_, store)) => {
                        *state.store.write().unwrap() = store;
                        state.committed.store(epoch, Ordering::Release);
                        Frame::Committed { epoch }
                    }
                    None if epoch == committed => Frame::Committed { epoch }, // idempotent
                    None => Frame::Error {
                        code: ErrorCode::Internal,
                        message: format!(
                            "commit {epoch}: nothing staged at that epoch (committed={committed})"
                        ),
                    },
                }
            }
            Frame::Terminate => {
                let _ = send(&mut stream, &Frame::Terminating, state, &mut replies);
                std::process::exit(0);
            }
            other => Frame::Error {
                code: ErrorCode::BadFrame,
                message: format!("unexpected frame {other:?}"),
            },
        };
        if send(&mut stream, &reply, state, &mut replies).is_err() {
            return;
        }
    }
}

/// Encode and write a reply, applying corruption/truncation chaos to every
/// nth frame of this connection (`replies` counts them) when armed.
fn send(
    stream: &mut UnixStream,
    frame: &Frame,
    state: &WorkerState,
    replies: &mut u64,
) -> std::io::Result<()> {
    let mut bytes = encode_frame(frame);
    *replies += 1;
    let nth = *replies;
    if state.chaos.corrupt_every > 0 && nth.is_multiple_of(state.chaos.corrupt_every) {
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // trash the checksum trailer
    }
    if state.chaos.truncate_every > 0 && nth.is_multiple_of(state.chaos.truncate_every) {
        // A truncated frame models a writer dying mid-send, so the
        // connection dies with it: leaving it open would make the client
        // wait out its whole read deadline for bytes that never come,
        // instead of seeing the EOF a real crash produces.
        bytes.truncate(bytes.len() / 2);
        stream.write_all(&bytes)?;
        stream.flush()?;
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "chaos: truncated frame, dropping connection",
        ));
    }
    stream.write_all(&bytes)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targeted_env_parses_shard_and_count() {
        // Not set at all.
        assert_eq!(targeted(0, "KBQA_SHARDD_TEST_UNSET"), None);
        std::env::set_var("KBQA_SHARDD_TEST_A", "2");
        assert_eq!(targeted(2, "KBQA_SHARDD_TEST_A"), Some(1));
        assert_eq!(targeted(1, "KBQA_SHARDD_TEST_A"), None);
        std::env::set_var("KBQA_SHARDD_TEST_B", "3:250");
        assert_eq!(targeted(3, "KBQA_SHARDD_TEST_B"), Some(250));
        assert_eq!(targeted(0, "KBQA_SHARDD_TEST_B"), None);
        std::env::set_var("KBQA_SHARDD_TEST_C", "junk");
        assert_eq!(targeted(0, "KBQA_SHARDD_TEST_C"), None);
    }
}
