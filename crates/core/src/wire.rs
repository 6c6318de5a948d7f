//! The shard worker wire protocol: length-prefixed, checksummed frames
//! over a unix-domain socket.
//!
//! One [`Frame`] per message, laid out as
//!
//! ```text
//! | len: u32 LE | payload (len bytes) | fx64(payload): u64 LE |
//! ```
//!
//! where the payload is `kind: u8` followed by the message body, all
//! integers little-endian. The trailing checksum is the PR 6
//! [`Fx64Stream`] digest of the payload bytes, so a truncated or
//! bit-flipped reply is detected at the frame boundary — the client turns
//! it into a typed [`WireError::Checksum`] / [`WireError::Io`] and retries
//! or degrades; it never parses garbage into answer values.
//!
//! The vocabulary is deliberately tiny — the scatter half of
//! scatter-gather is exactly one RPC (`Lookup` → `Values`), and everything
//! else is supervision plumbing (heartbeats, the two-phase epoch swap,
//! graceful terminate):
//!
//! | kind | frame | direction |
//! |------|-------|-----------|
//! | 0x01 | [`Frame::Lookup`]     | router → worker |
//! | 0x81 | [`Frame::Values`]     | worker → router |
//! | 0x02 | [`Frame::Ping`]       | supervisor → worker |
//! | 0x82 | [`Frame::Pong`]       | worker → supervisor |
//! | 0x03 | [`Frame::Stage`]      | supervisor → worker (reload phase 1) |
//! | 0x83 | [`Frame::Staged`]     | worker → supervisor |
//! | 0x04 | [`Frame::Commit`]     | supervisor → worker (reload phase 2) |
//! | 0x84 | [`Frame::Committed`]  | worker → supervisor |
//! | 0x05 | [`Frame::Terminate`]  | supervisor → worker (graceful stop) |
//! | 0x85 | [`Frame::Terminating`]| worker → supervisor |
//! | 0x7f | [`Frame::Error`]      | worker → anyone |

use std::io::{Read, Write};

use kbqa_rdf::snapshot::Fx64Stream;
use kbqa_rdf::{NodeId, PredicateId};

/// Hard cap on a frame's payload length. A `Values` reply carries one u32
/// per value node; 16 MiB ≈ 4M values per lookup, far beyond any real
/// `V(e, p)` result set — anything larger is a corrupt or hostile length
/// prefix and is refused before allocation.
pub const MAX_FRAME: u32 = 16 << 20;

/// Frame kind bytes (requests low, replies high-bit set).
mod kind {
    pub const LOOKUP: u8 = 0x01;
    pub const PING: u8 = 0x02;
    pub const STAGE: u8 = 0x03;
    pub const COMMIT: u8 = 0x04;
    pub const TERMINATE: u8 = 0x05;
    pub const VALUES: u8 = 0x81;
    pub const PONG: u8 = 0x82;
    pub const STAGED: u8 = 0x83;
    pub const COMMITTED: u8 = 0x84;
    pub const TERMINATING: u8 = 0x85;
    pub const ERROR: u8 = 0x7f;
}

/// Typed error codes a worker can reply with (the `Error` frame's first
/// body byte). Everything else about the failure rides in the message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The request pinned an epoch the worker has not committed yet.
    EpochUnavailable,
    /// The worker could not decode the request frame.
    BadFrame,
    /// The worker failed internally (snapshot load, I/O).
    Internal,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::EpochUnavailable => 1,
            ErrorCode::BadFrame => 2,
            ErrorCode::Internal => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => ErrorCode::EpochUnavailable,
            2 => ErrorCode::BadFrame,
            3 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// One protocol message. See the module docs for the frame layout.
#[derive(Clone, PartialEq, Debug)]
pub enum Frame {
    /// Value lookup: run `V(entity, path)` on the worker's shard at (or
    /// below) `epoch`.
    Lookup {
        /// The model epoch the requesting snapshot answers under. The
        /// worker serves when `epoch <= committed` — a request from a
        /// staged-but-uncommitted future is refused, pinning the two-phase
        /// swap invariant.
        epoch: u64,
        /// The (globally interned) subject entity.
        entity: NodeId,
        /// The expanded predicate's edge list.
        path: Vec<PredicateId>,
    },
    /// Lookup reply: the value nodes, in the exact order the shard-local
    /// traversal produced them (the merge's byte-identity depends on it).
    Values {
        /// Result node ids, globally interned.
        values: Vec<NodeId>,
    },
    /// Heartbeat probe.
    Ping {
        /// Echoed back in the pong; lets the supervisor discard stale
        /// replies after a reconnect.
        nonce: u64,
    },
    /// Heartbeat reply.
    Pong {
        /// The probe's nonce, echoed.
        nonce: u64,
        /// The worker's shard id.
        shard: u32,
        /// The worker's committed epoch.
        epoch: u64,
        /// Lookups served since start (monotonic; a reset betrays a silent
        /// restart).
        served: u64,
    },
    /// Reload phase 1: preload the snapshot at `snapshot` and hold it as
    /// epoch `epoch` without serving it.
    Stage {
        /// The epoch being staged (current + 1).
        epoch: u64,
        /// Path of the shard snapshot to preload.
        snapshot: String,
    },
    /// Phase-1 acknowledgement.
    Staged {
        /// The staged epoch.
        epoch: u64,
    },
    /// Reload phase 2: atomically flip the staged epoch live.
    Commit {
        /// The epoch to commit; must equal the staged epoch (or the
        /// already-committed one — commits are idempotent).
        epoch: u64,
    },
    /// Phase-2 acknowledgement.
    Committed {
        /// The now-committed epoch.
        epoch: u64,
    },
    /// Graceful stop: finish in-flight frames, acknowledge, exit 0.
    Terminate,
    /// Terminate acknowledgement (sent before exiting).
    Terminating,
    /// Typed failure reply.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail (bounded by [`MAX_FRAME`]).
        message: String,
    },
}

/// Decode/transport failure reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes truncation: an EOF mid-frame).
    Io(std::io::Error),
    /// The payload hashed differently than the trailing checksum — a
    /// corrupt frame.
    Checksum {
        /// Digest recorded in the frame trailer.
        expected: u64,
        /// Digest of the payload bytes actually received.
        actual: u64,
    },
    /// The payload did not parse as any known frame.
    Malformed(String),
    /// The length prefix exceeded [`MAX_FRAME`].
    TooLarge(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "frame i/o: {e}"),
            WireError::Checksum { expected, actual } => write!(
                f,
                "frame checksum mismatch: trailer says {expected:016x}, payload hashes to {actual:016x}"
            ),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
            WireError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether a retry on a fresh connection could plausibly succeed —
    /// transport-level damage (reset, truncation, bit flips), as opposed to
    /// a well-formed refusal the peer would just repeat.
    pub fn is_transient(&self) -> bool {
        matches!(self, WireError::Io(_) | WireError::Checksum { .. })
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| WireError::Malformed("body shorter than its fields claim".into()))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after body",
                self.bytes.len() - self.at
            )))
        }
    }
}

/// Encode a frame to its on-wire bytes (length prefix + payload +
/// checksum trailer).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    match frame {
        Frame::Lookup {
            epoch,
            entity,
            path,
        } => {
            payload.push(kind::LOOKUP);
            put_u64(&mut payload, *epoch);
            put_u32(&mut payload, entity.0);
            put_u32(&mut payload, path.len() as u32);
            for p in path {
                put_u32(&mut payload, p.0);
            }
        }
        Frame::Values { values } => {
            payload.push(kind::VALUES);
            put_u32(&mut payload, values.len() as u32);
            for v in values {
                put_u32(&mut payload, v.0);
            }
        }
        Frame::Ping { nonce } => {
            payload.push(kind::PING);
            put_u64(&mut payload, *nonce);
        }
        Frame::Pong {
            nonce,
            shard,
            epoch,
            served,
        } => {
            payload.push(kind::PONG);
            put_u64(&mut payload, *nonce);
            put_u32(&mut payload, *shard);
            put_u64(&mut payload, *epoch);
            put_u64(&mut payload, *served);
        }
        Frame::Stage { epoch, snapshot } => {
            payload.push(kind::STAGE);
            put_u64(&mut payload, *epoch);
            put_u32(&mut payload, snapshot.len() as u32);
            payload.extend_from_slice(snapshot.as_bytes());
        }
        Frame::Staged { epoch } => {
            payload.push(kind::STAGED);
            put_u64(&mut payload, *epoch);
        }
        Frame::Commit { epoch } => {
            payload.push(kind::COMMIT);
            put_u64(&mut payload, *epoch);
        }
        Frame::Committed { epoch } => {
            payload.push(kind::COMMITTED);
            put_u64(&mut payload, *epoch);
        }
        Frame::Terminate => payload.push(kind::TERMINATE),
        Frame::Terminating => payload.push(kind::TERMINATING),
        Frame::Error { code, message } => {
            payload.push(kind::ERROR);
            payload.push(code.to_byte());
            put_u32(&mut payload, message.len() as u32);
            payload.extend_from_slice(message.as_bytes());
        }
    }
    let mut hasher = Fx64Stream::default();
    hasher.update(&payload);
    let digest = hasher.finish();
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    put_u64(&mut out, digest);
    out
}

/// Write one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    w.flush()?;
    Ok(())
}

/// Read one frame, verifying the length cap and the checksum trailer
/// before parsing a byte of the body.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; 8];
    r.read_exact(&mut trailer)?;
    let expected = u64::from_le_bytes(trailer);
    let mut hasher = Fx64Stream::default();
    hasher.update(&payload);
    let actual = hasher.finish();
    if actual != expected {
        return Err(WireError::Checksum { expected, actual });
    }
    decode_payload(&payload)
}

fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    let frame = match c.u8()? {
        kind::LOOKUP => {
            let epoch = c.u64()?;
            let entity = NodeId(c.u32()?);
            let n = c.u32()? as usize;
            let mut path = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                path.push(PredicateId(c.u32()?));
            }
            Frame::Lookup {
                epoch,
                entity,
                path,
            }
        }
        kind::VALUES => {
            let n = c.u32()? as usize;
            let mut values = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                values.push(NodeId(c.u32()?));
            }
            Frame::Values { values }
        }
        kind::PING => Frame::Ping { nonce: c.u64()? },
        kind::PONG => Frame::Pong {
            nonce: c.u64()?,
            shard: c.u32()?,
            epoch: c.u64()?,
            served: c.u64()?,
        },
        kind::STAGE => {
            let epoch = c.u64()?;
            let n = c.u32()? as usize;
            let snapshot = String::from_utf8(c.take(n)?.to_vec())
                .map_err(|_| WireError::Malformed("stage path is not utf-8".into()))?;
            Frame::Stage { epoch, snapshot }
        }
        kind::STAGED => Frame::Staged { epoch: c.u64()? },
        kind::COMMIT => Frame::Commit { epoch: c.u64()? },
        kind::COMMITTED => Frame::Committed { epoch: c.u64()? },
        kind::TERMINATE => Frame::Terminate,
        kind::TERMINATING => Frame::Terminating,
        kind::ERROR => {
            let code = ErrorCode::from_byte(c.u8()?)
                .ok_or_else(|| WireError::Malformed("unknown error code".into()))?;
            let n = c.u32()? as usize;
            let message = String::from_utf8(c.take(n)?.to_vec())
                .map_err(|_| WireError::Malformed("error message is not utf-8".into()))?;
            Frame::Error { code, message }
        }
        other => {
            return Err(WireError::Malformed(format!(
                "unknown frame kind 0x{other:02x}"
            )))
        }
    };
    c.done()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;
    use proptest::TestRng;

    /// Any frame: every kind, arbitrary integers, and paths, value lists
    /// and strings of up to 40 elements.
    struct AnyFrame;

    impl Strategy for AnyFrame {
        type Value = Frame;
        fn sample(&self, rng: &mut TestRng) -> Frame {
            let len = |rng: &mut TestRng| (rng.next_u64() % 41) as usize;
            let text = |rng: &mut TestRng| "\\PC{0,40}".sample(rng);
            match rng.next_u64() % 12 {
                0 => Frame::Lookup {
                    epoch: rng.next_u64(),
                    entity: NodeId(rng.next_u64() as u32),
                    path: (0..len(rng))
                        .map(|_| PredicateId(rng.next_u64() as u32))
                        .collect(),
                },
                1 => Frame::Values {
                    values: (0..len(rng))
                        .map(|_| NodeId(rng.next_u64() as u32))
                        .collect(),
                },
                2 => Frame::Ping {
                    nonce: rng.next_u64(),
                },
                3 => Frame::Pong {
                    nonce: rng.next_u64(),
                    shard: rng.next_u64() as u32,
                    epoch: rng.next_u64(),
                    served: rng.next_u64(),
                },
                4 => Frame::Stage {
                    epoch: rng.next_u64(),
                    snapshot: text(rng),
                },
                5 => Frame::Staged {
                    epoch: rng.next_u64(),
                },
                6 => Frame::Commit {
                    epoch: rng.next_u64(),
                },
                7 => Frame::Committed {
                    epoch: rng.next_u64(),
                },
                8 => Frame::Terminate,
                9 => Frame::Terminating,
                _ => Frame::Error {
                    code: [
                        ErrorCode::EpochUnavailable,
                        ErrorCode::BadFrame,
                        ErrorCode::Internal,
                    ][(rng.next_u64() % 3) as usize],
                    message: text(rng),
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn all_frames_roundtrip(frame in AnyFrame) {
            let bytes = encode_frame(&frame);
            let decoded = read_frame(&mut &bytes[..]).expect("decodes");
            prop_assert_eq!(decoded, frame);
        }

        /// Every strict prefix of a frame is an EOF, never a parse.
        #[test]
        fn truncated_frame_is_an_io_error(frame in AnyFrame) {
            let bytes = encode_frame(&frame);
            for cut in 0..bytes.len() {
                match read_frame(&mut &bytes[..cut]) {
                    Err(WireError::Io(e)) => {
                        prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
                    }
                    other => panic!("cut at {cut} of {frame:?}: expected eof, got {other:?}"),
                }
            }
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// XOR any one byte of a frame with any non-zero mask: the length
        /// cap, the read or the checksum refuses it — no panic, no frame.
        #[test]
        fn any_single_byte_xor_is_an_error(frame in AnyFrame) {
            let bytes = encode_frame(&frame);
            let mut flipped = bytes.clone();
            for at in 0..bytes.len() {
                for mask in 1..=u8::MAX {
                    flipped[at] = bytes[at] ^ mask;
                    let decoded = read_frame(&mut &flipped[..]);
                    prop_assert!(
                        decoded.is_err(),
                        "byte {at} ^ {mask:#04x} of {frame:?} decoded as {decoded:?}"
                    );
                }
                flipped[at] = bytes[at];
            }
        }
    }

    #[test]
    fn corrupt_payload_byte_is_a_checksum_error() {
        let mut bytes = encode_frame(&Frame::Values {
            values: vec![NodeId(1), NodeId(2), NodeId(3)],
        });
        // Flip a bit inside the payload (past the 4-byte length prefix).
        bytes[6] ^= 0x40;
        match read_frame(&mut &bytes[..]) {
            Err(WireError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_trailer_is_a_checksum_error() {
        let mut bytes = encode_frame(&Frame::Ping { nonce: 1 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::Checksum { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation() {
        let mut bytes = encode_frame(&Frame::Ping { nonce: 1 });
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::TooLarge(_))
        ));
        // Zero-length frames are equally impossible (payload always has a
        // kind byte).
        bytes[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::TooLarge(0))
        ));
    }

    #[test]
    fn payload_shorter_than_fields_claim_is_malformed() {
        // A Values frame claiming 10 values but carrying 1: recompute a
        // valid checksum so decoding reaches the body parser.
        let mut payload = vec![0x81u8];
        payload.extend_from_slice(&10u32.to_le_bytes());
        payload.extend_from_slice(&7u32.to_le_bytes());
        let mut hasher = Fx64Stream::default();
        hasher.update(&payload);
        let digest = hasher.finish();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_kind_is_malformed() {
        let mut payload = vec![0x60u8];
        payload.extend_from_slice(&1u64.to_le_bytes());
        let mut hasher = Fx64Stream::default();
        hasher.update(&payload);
        let digest = hasher.finish();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&digest.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(WireError::Malformed(_))
        ));
    }
}
