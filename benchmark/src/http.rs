//! A minimal blocking HTTP/1.1 client: one keep-alive connection that
//! reconnects when the server announces `Connection: close` (the server's
//! 128-request keep-alive cap), decodes chunked bodies incrementally, and
//! timestamps the first and last body byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// An operation slower than this has failed, whatever it returned.
pub const OP_TIMEOUT: Duration = Duration::from_secs(1);

/// Incremental decoder of HTTP/1.1 chunked transfer coding.
#[derive(Debug, Default)]
pub struct ChunkDecoder {
    state: ChunkState,
    /// Chunk-size digits accumulated so far / payload bytes still to come.
    size: usize,
    size_digits: usize,
}

#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
enum ChunkState {
    #[default]
    Size,
    /// Inside a chunk extension or after the size digits, up to the LF.
    SizeLf,
    Data,
    DataCr,
    DataLf,
    /// After the zero-size chunk: skipping trailer lines until an empty one.
    Trailer {
        line_empty: bool,
    },
    TrailerLf {
        line_empty: bool,
    },
    Done,
}

impl ChunkDecoder {
    /// Consume `input`, appending payload bytes to `out`. Returns how many
    /// input bytes were used; fewer than `input.len()` only once
    /// [`ChunkDecoder::is_done`].
    pub fn feed(&mut self, input: &[u8], out: &mut Vec<u8>) -> io::Result<usize> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let mut i = 0;
        while i < input.len() && self.state != ChunkState::Done {
            let b = input[i];
            match self.state {
                ChunkState::Size => match b {
                    b'0'..=b'9' | b'a'..=b'f' | b'A'..=b'F' => {
                        let digit = (b as char).to_digit(16).expect("hex digit") as usize;
                        self.size = self
                            .size
                            .checked_mul(16)
                            .and_then(|s| s.checked_add(digit))
                            .ok_or_else(|| bad("chunk size overflow"))?;
                        self.size_digits += 1;
                        i += 1;
                    }
                    _ if self.size_digits == 0 => return Err(bad("chunk size line has no digits")),
                    _ => self.state = ChunkState::SizeLf,
                },
                ChunkState::SizeLf => {
                    if b == b'\n' {
                        self.size_digits = 0;
                        self.state = if self.size == 0 {
                            ChunkState::Trailer { line_empty: true }
                        } else {
                            ChunkState::Data
                        };
                    }
                    i += 1;
                }
                ChunkState::Data => {
                    let take = self.size.min(input.len() - i);
                    out.extend_from_slice(&input[i..i + take]);
                    self.size -= take;
                    i += take;
                    if self.size == 0 {
                        self.state = ChunkState::DataCr;
                    }
                }
                ChunkState::DataCr => {
                    if b != b'\r' {
                        return Err(bad("chunk payload not followed by CR"));
                    }
                    self.state = ChunkState::DataLf;
                    i += 1;
                }
                ChunkState::DataLf => {
                    if b != b'\n' {
                        return Err(bad("chunk payload not followed by CRLF"));
                    }
                    self.state = ChunkState::Size;
                    i += 1;
                }
                ChunkState::Trailer { line_empty } => {
                    self.state = match b {
                        b'\r' => ChunkState::TrailerLf { line_empty },
                        _ => ChunkState::Trailer { line_empty: false },
                    };
                    i += 1;
                }
                ChunkState::TrailerLf { line_empty } => {
                    if b != b'\n' {
                        return Err(bad("trailer line not ended by CRLF"));
                    }
                    self.state = if line_empty {
                        ChunkState::Done
                    } else {
                        ChunkState::Trailer { line_empty: true }
                    };
                    i += 1;
                }
                ChunkState::Done => unreachable!("loop guard"),
            }
        }
        Ok(i)
    }

    /// Has the terminal chunk (and its trailer) been consumed?
    pub fn is_done(&self) -> bool {
        self.state == ChunkState::Done
    }
}

/// What one round trip produced. The body is in [`Conn::body`].
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// When the first body byte had arrived.
    pub first_byte: Instant,
    /// When the last body byte had arrived.
    pub done: Instant,
    /// Response bytes read off the socket, head included.
    pub bytes_in: usize,
}

/// One client connection to the server under test.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// The (de-chunked) body of the last reply.
    pub body: Vec<u8>,
    /// Connections opened so far.
    connects: u64,
}

enum Framing {
    Length(usize),
    Chunked(ChunkDecoder),
}

impl Conn {
    /// A connection that dials lazily, on the first request.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: vec![0; 64 << 10],
            body: Vec::with_capacity(128 << 10),
            connects: 0,
        }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Send `request` (a complete head + body) and read the whole reply.
    /// Any I/O error drops the socket, so the next call reconnects.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Reply> {
        let result = self.roundtrip_inner(request);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn roundtrip_inner(&mut self, request: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(OP_TIMEOUT))?;
            stream.set_write_timeout(Some(OP_TIMEOUT))?;
            self.stream = Some(stream);
            self.connects += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request)?;

        // Head: read until the blank line.
        let mut filled = 0;
        let head_end = loop {
            if let Some(pos) = find(&self.buf[..filled], b"\r\n\r\n") {
                break pos + 4;
            }
            if filled == self.buf.len() {
                return Err(invalid("response head larger than the read buffer"));
            }
            let n = stream.read(&mut self.buf[filled..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            filled += n;
        };
        let mut at = Instant::now();
        let head = Head::parse(&self.buf[..head_end])?;
        let mut framing = match (head.chunked, head.content_length) {
            (true, _) => Framing::Chunked(ChunkDecoder::default()),
            (false, Some(n)) => Framing::Length(n),
            (false, None) => return Err(invalid("reply has neither length nor chunking")),
        };

        self.body.clear();
        let mut bytes_in = filled;
        let mut pending = head_end..filled;
        let mut first_byte = None;
        loop {
            let input = &self.buf[pending.clone()];
            let complete = match &mut framing {
                Framing::Length(n) => {
                    self.body.extend_from_slice(input);
                    self.body.len() >= *n
                }
                Framing::Chunked(decoder) => {
                    decoder.feed(input, &mut self.body)?;
                    decoder.is_done()
                }
            };
            if first_byte.is_none() && !self.body.is_empty() {
                first_byte = Some(at);
            }
            if complete {
                break;
            }
            let n = stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            at = Instant::now();
            bytes_in += n;
            pending = 0..n;
        }
        if let Framing::Length(n) = framing {
            if self.body.len() != n {
                return Err(invalid("more body bytes than Content-Length"));
            }
        }
        if head.close {
            self.stream = None;
        }
        Ok(Reply {
            status: head.status,
            first_byte: first_byte.unwrap_or(at),
            done: at,
            bytes_in,
        })
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// Offset of the first `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

struct Head {
    status: u16,
    content_length: Option<usize>,
    chunked: bool,
    close: bool,
}

impl Head {
    fn parse(head: &[u8]) -> io::Result<Self> {
        let text = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
        let mut lines = text.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid("malformed status line"))?;
        let mut parsed = Head {
            status,
            content_length: None,
            chunked: false,
            close: false,
        };
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                parsed.content_length =
                    Some(value.parse().map_err(|_| invalid("bad Content-Length"))?);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                parsed.chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                parsed.close = value.eq_ignore_ascii_case("close");
            }
        }
        Ok(parsed)
    }
}

/// Render a request head into `out` (cleared first) for a body of
/// `body_len` bytes, which the caller appends. `request_line` is e.g.
/// `POST /answer`; `extra_header` is empty or one complete `Name: value\r\n`.
pub fn render_head(out: &mut Vec<u8>, request_line: &str, extra_header: &str, body_len: usize) {
    out.clear();
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "{request_line} HTTP/1.1\r\nHost: benchmark\r\n{extra_header}Content-Length: {body_len}\r\n\r\n"
    );
}

/// One-shot `GET` on a fresh connection: status and body.
pub fn get(addr: SocketAddr, target: &str) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::new(addr);
    let mut request = Vec::new();
    render_head(&mut request, &format!("GET {target}"), "", 0);
    let reply = conn.roundtrip(&request)?;
    Ok((reply.status, std::mem::take(&mut conn.body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIRE: &[u8] =
        b"4\r\nWiki\r\n6;ext=1\r\npedia \r\nE\r\nin \r\n\r\nchunks.\r\n0\r\nTrailer: x\r\n\r\n";
    const PLAIN: &[u8] = b"Wikipedia in \r\n\r\nchunks.";

    #[test]
    fn chunked_decoder_handles_every_split_point() {
        // Whole input at once.
        let mut out = Vec::new();
        let mut d = ChunkDecoder::default();
        assert_eq!(d.feed(WIRE, &mut out).unwrap(), WIRE.len());
        assert!(d.is_done());
        assert_eq!(out, PLAIN);
        // Byte by byte, and split in two at every boundary — including inside
        // a size line, inside a payload, and between CR and LF.
        for split in 0..=WIRE.len() {
            let mut out = Vec::new();
            let mut d = ChunkDecoder::default();
            let (a, b) = WIRE.split_at(split);
            assert_eq!(d.feed(a, &mut out).unwrap(), a.len());
            assert_eq!(d.is_done(), split == WIRE.len());
            assert_eq!(d.feed(b, &mut out).unwrap(), b.len());
            assert!(d.is_done(), "split at {split}");
            assert_eq!(out, PLAIN, "split at {split}");
        }
        let mut out = Vec::new();
        let mut d = ChunkDecoder::default();
        for byte in WIRE {
            d.feed(std::slice::from_ref(byte), &mut out).unwrap();
        }
        assert!(d.is_done());
        assert_eq!(out, PLAIN);
    }

    #[test]
    fn chunked_decoder_stops_at_the_terminator_and_rejects_bad_framing() {
        let mut out = Vec::new();
        let mut d = ChunkDecoder::default();
        let wire = b"1\r\na\r\n0\r\n\r\nHTTP/1.1 200 OK";
        assert_eq!(d.feed(wire, &mut out).unwrap(), 11);
        assert!(d.is_done());
        assert_eq!(out, b"a");

        let mut d = ChunkDecoder::default();
        assert!(d.feed(b"1\r\nabc", &mut Vec::new()).is_err());
        let mut d = ChunkDecoder::default();
        assert!(d
            .feed(b"ffffffffffffffffffff\r\n", &mut Vec::new())
            .is_err());
        let mut d = ChunkDecoder::default();
        assert!(d.feed(b"\r\n", &mut Vec::new()).is_err());
    }

    #[test]
    fn head_parse_is_case_insensitive() {
        let head = Head::parse(
            b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 12\r\nCONNECTION: Close\r\n\r\n",
        )
        .unwrap();
        assert_eq!(head.status, 429);
        assert_eq!(head.content_length, Some(12));
        assert!(head.close && !head.chunked);
    }
}
