//! The `pimserve` wire protocol: length-prefixed frames with typed
//! request/response payloads (DESIGN.md §13.1).
//!
//! The vendor tree is offline — no HTTP stack — so the daemon speaks a
//! hand-rolled binary protocol over plain TCP. Every message is one
//! *frame*: a big-endian `u32` payload length followed by that many
//! payload bytes, capped at [`MAX_FRAME_BYTES`] so a corrupt or hostile
//! length prefix cannot make the server allocate unbounded memory.
//!
//! Request payloads start with a one-byte opcode (`Align`/`Drain`/
//! `Stats`/`Prom`); response payloads start with the echoed `req_id` followed
//! by a one-byte status. Responses may arrive out of order relative to
//! pipelined requests — the `req_id` is the correlation key — which is
//! what lets the batcher answer whole coalesced batches without
//! per-connection ordering barriers.
//!
//! Both sides of the conversation (server, `pimbench`, tests) share the
//! encoders/decoders here, so a framing change cannot silently desync
//! them.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Hard cap on one frame's payload size. Large enough for any plausible
/// read (reference chunks never travel over this protocol), small enough
/// that a garbage length prefix fails fast instead of OOMing the server.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Opcode bytes (first payload byte of every request).
const OP_ALIGN: u8 = 1;
const OP_DRAIN: u8 = 2;
const OP_STATS: u8 = 3;
const OP_PROM: u8 = 4;

/// Status bytes (ninth payload byte of every response, after `req_id`).
const ST_ALIGNED: u8 = 0;
const ST_OVERLOADED: u8 = 1;
const ST_DEADLINE: u8 = 2;
const ST_INVALID: u8 = 3;
const ST_PANIC: u8 = 4;
const ST_DRAINING: u8 = 5;
const ST_DRAIN_STARTED: u8 = 6;
const ST_STATS: u8 = 7;
const ST_PROM: u8 = 8;

/// A malformed frame payload (unknown opcode/status, truncated fields,
/// bad UTF-8). The connection that produced it is answered with a typed
/// `Invalid` response or closed; the server never panics on wire input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    message: String,
}

impl ProtocolError {
    fn new(message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl Error for ProtocolError {}

/// One alignment request: the client-chosen correlation id, a relative
/// deadline (0 = none; the server may impose its own default), the read
/// id (diagnostics and test-fault hooks) and the read sequence as text
/// (the server parses and rejects invalid bases with a typed response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub req_id: u64,
    /// Relative deadline in milliseconds from admission; 0 = none.
    pub deadline_ms: u32,
    /// Read identifier (shown in diagnostics; not interpreted, except by
    /// the opt-in test-fault hooks).
    pub id: String,
    /// The read sequence, A/C/G/T text.
    pub seq: String,
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Align one read.
    Align(AlignRequest),
    /// Begin graceful drain: stop admissions, flush in-flight requests,
    /// then shut the server down.
    Drain {
        /// Correlation id for the `DrainStarted` acknowledgement.
        req_id: u64,
    },
    /// Snapshot the live observability plane as JSON (lifetime service
    /// counters, windowed views, watchdog, slow log). Answered inline
    /// by connection readers — never queued, never shed.
    Stats {
        /// Correlation id for the `Stats` response.
        req_id: u64,
    },
    /// The same live snapshot as a Prometheus text-format exposition.
    /// Answered inline like `Stats`.
    Prom {
        /// Correlation id for the `Prom` response.
        req_id: u64,
    },
}

/// Why admission turned a request away. The first two shed it under
/// load, and an `Overloaded` response names them on the wire as bytes 0
/// and 1; the other two reject it, each with a response of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was at its depth limit.
    QueueDepth,
    /// In-flight payload bytes were at their limit.
    InflightBytes,
    /// The server was draining.
    Draining,
    /// The request was malformed.
    Invalid,
}

impl ShedReason {
    /// Every reason, in the order of its wire byte.
    const ALL: [ShedReason; 4] = [
        ShedReason::QueueDepth,
        ShedReason::InflightBytes,
        ShedReason::Draining,
        ShedReason::Invalid,
    ];
}

/// The alignment outcome carried by an `Aligned` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignStatus {
    /// The read mapped at the given 0-based reference positions.
    Mapped {
        /// `true` when the reverse complement mapped.
        reverse: bool,
        /// Differences tolerated by the stage that found it (0 = exact).
        diffs: u8,
        /// Matching 0-based reference positions.
        positions: Vec<u64>,
    },
    /// No placement within the configured difference budget.
    Unmapped,
}

/// A server response, correlated to its request by `req_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The read was aligned (possibly to "unmapped" — that is still a
    /// successful service outcome).
    Aligned {
        /// Echoed correlation id.
        req_id: u64,
        /// The alignment outcome.
        status: AlignStatus,
    },
    /// Load-shed at admission; retry after the hinted backoff.
    Overloaded {
        /// Echoed correlation id.
        req_id: u64,
        /// Suggested client backoff before retrying.
        retry_after_ms: u32,
        /// Which limit shed the request.
        reason: ShedReason,
    },
    /// The deadline expired while the request waited in the queue.
    DeadlineExceeded {
        /// Echoed correlation id.
        req_id: u64,
    },
    /// The request was malformed (bad sequence, bad frame).
    Invalid {
        /// Echoed correlation id (0 when the frame was too corrupt to
        /// carry one).
        req_id: u64,
        /// Human-readable diagnostic.
        message: String,
    },
    /// The read's alignment panicked; the read is quarantined and the
    /// worker pool is still alive.
    WorkerPanic {
        /// Echoed correlation id.
        req_id: u64,
        /// Human-readable diagnostic.
        message: String,
    },
    /// Rejected because the server is draining.
    Draining {
        /// Echoed correlation id.
        req_id: u64,
    },
    /// Acknowledges a `Drain` request: admissions are stopped.
    DrainStarted {
        /// Echoed correlation id.
        req_id: u64,
    },
    /// Live observability snapshot.
    Stats {
        /// Echoed correlation id.
        req_id: u64,
        /// The live obs snapshot as JSON (`service`, `cumulative`,
        /// `windows`, `gauges`, `watchdog`, `slow` sections).
        json: String,
    },
    /// Live observability snapshot, Prometheus text format.
    Prom {
        /// Echoed correlation id.
        req_id: u64,
        /// Prometheus text-format exposition (version 0.0.4).
        text: String,
    },
}

impl Response {
    /// The correlation id this response answers.
    pub fn req_id(&self) -> u64 {
        match *self {
            Response::Aligned { req_id, .. }
            | Response::Overloaded { req_id, .. }
            | Response::DeadlineExceeded { req_id }
            | Response::Invalid { req_id, .. }
            | Response::WorkerPanic { req_id, .. }
            | Response::Draining { req_id }
            | Response::DrainStarted { req_id }
            | Response::Stats { req_id, .. }
            | Response::Prom { req_id, .. } => req_id,
        }
    }
}

/// Writes one frame (length prefix + payload).
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_BYTES`] as
/// [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload {} exceeds cap {MAX_FRAME_BYTES}",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload; `Ok(None)` on clean EOF at a frame boundary.
/// A read that is [`io::ErrorKind::Interrupted`] is retried, as
/// [`Read::read_exact`] retries it.
///
/// # Errors
///
/// Propagates I/O errors; an EOF mid-frame is
/// [`io::ErrorKind::UnexpectedEof`]; a length prefix over
/// [`MAX_FRAME_BYTES`] is [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let first = loop {
        match r.read(&mut len_buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            read => break read?,
        }
    };
    match first {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..])?,
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Little cursor over a payload slice for the decoders.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ProtocolError::new("truncated payload"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let bytes = self.take(N)?;
        Ok(bytes
            .try_into()
            .expect("take(N) returns N bytes or an error"))
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(u8::from_be_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    fn string(&mut self, len: usize) -> Result<String, ProtocolError> {
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| ProtocolError::new("non-UTF-8 string field"))
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::new("trailing bytes after payload"))
        }
    }
}

/// Encodes a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Align(a) => {
            out.push(OP_ALIGN);
            out.extend_from_slice(&a.req_id.to_be_bytes());
            out.extend_from_slice(&a.deadline_ms.to_be_bytes());
            out.extend_from_slice(&(a.id.len() as u16).to_be_bytes());
            out.extend_from_slice(a.id.as_bytes());
            out.extend_from_slice(&(a.seq.len() as u32).to_be_bytes());
            out.extend_from_slice(a.seq.as_bytes());
        }
        Request::Drain { req_id } => {
            out.push(OP_DRAIN);
            out.extend_from_slice(&req_id.to_be_bytes());
        }
        Request::Stats { req_id } => {
            out.push(OP_STATS);
            out.extend_from_slice(&req_id.to_be_bytes());
        }
        Request::Prom { req_id } => {
            out.push(OP_PROM);
            out.extend_from_slice(&req_id.to_be_bytes());
        }
    }
    out
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`ProtocolError`] on unknown opcodes, truncated fields, oversized
/// declared lengths, bad UTF-8 or trailing garbage.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        OP_ALIGN => {
            let req_id = c.u64()?;
            let deadline_ms = c.u32()?;
            let id_len = c.u16()? as usize;
            let id = c.string(id_len)?;
            let seq_len = c.u32()? as usize;
            let seq = c.string(seq_len)?;
            Request::Align(AlignRequest {
                req_id,
                deadline_ms,
                id,
                seq,
            })
        }
        OP_DRAIN => Request::Drain { req_id: c.u64()? },
        OP_STATS => Request::Stats { req_id: c.u64()? },
        OP_PROM => Request::Prom { req_id: c.u64()? },
        op => return Err(ProtocolError::new(format!("unknown opcode {op}"))),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a response payload (frame it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&resp.req_id().to_be_bytes());
    match resp {
        Response::Aligned { status, .. } => {
            out.push(ST_ALIGNED);
            match status {
                AlignStatus::Mapped {
                    reverse,
                    diffs,
                    positions,
                } => {
                    out.push(1);
                    out.push(u8::from(*reverse));
                    out.push(*diffs);
                    out.extend_from_slice(&(positions.len() as u32).to_be_bytes());
                    for p in positions {
                        out.extend_from_slice(&p.to_be_bytes());
                    }
                }
                AlignStatus::Unmapped => out.push(0),
            }
        }
        Response::Overloaded {
            retry_after_ms,
            reason,
            ..
        } => {
            out.push(ST_OVERLOADED);
            out.extend_from_slice(&retry_after_ms.to_be_bytes());
            out.push(*reason as u8);
        }
        Response::DeadlineExceeded { .. } => out.push(ST_DEADLINE),
        Response::Invalid { message, .. } => {
            out.push(ST_INVALID);
            out.extend_from_slice(&(message.len() as u16).to_be_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Response::WorkerPanic { message, .. } => {
            out.push(ST_PANIC);
            out.extend_from_slice(&(message.len() as u16).to_be_bytes());
            out.extend_from_slice(message.as_bytes());
        }
        Response::Draining { .. } => out.push(ST_DRAINING),
        Response::DrainStarted { .. } => out.push(ST_DRAIN_STARTED),
        Response::Stats { json, .. } => {
            out.push(ST_STATS);
            out.extend_from_slice(&(json.len() as u32).to_be_bytes());
            out.extend_from_slice(json.as_bytes());
        }
        Response::Prom { text, .. } => {
            out.push(ST_PROM);
            out.extend_from_slice(&(text.len() as u32).to_be_bytes());
            out.extend_from_slice(text.as_bytes());
        }
    }
    out
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`ProtocolError`] on unknown status bytes, truncated fields, bad
/// UTF-8 or trailing garbage.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let req_id = c.u64()?;
    let resp = match c.u8()? {
        ST_ALIGNED => {
            let status = match c.u8()? {
                0 => AlignStatus::Unmapped,
                1 => {
                    let reverse = c.u8()? != 0;
                    let diffs = c.u8()?;
                    let n = c.u32()? as usize;
                    let mut positions = Vec::with_capacity(n.min(4_096));
                    for _ in 0..n {
                        positions.push(c.u64()?);
                    }
                    AlignStatus::Mapped {
                        reverse,
                        diffs,
                        positions,
                    }
                }
                k => return Err(ProtocolError::new(format!("unknown mapped flag {k}"))),
            };
            Response::Aligned { req_id, status }
        }
        ST_OVERLOADED => {
            let retry_after_ms = c.u32()?;
            let r = c.u8()?;
            let reason = *ShedReason::ALL
                .get(usize::from(r))
                .ok_or_else(|| ProtocolError::new(format!("unknown shed reason {r}")))?;
            Response::Overloaded {
                req_id,
                retry_after_ms,
                reason,
            }
        }
        ST_DEADLINE => Response::DeadlineExceeded { req_id },
        ST_INVALID => {
            let len = c.u16()? as usize;
            Response::Invalid {
                req_id,
                message: c.string(len)?,
            }
        }
        ST_PANIC => {
            let len = c.u16()? as usize;
            Response::WorkerPanic {
                req_id,
                message: c.string(len)?,
            }
        }
        ST_DRAINING => Response::Draining { req_id },
        ST_DRAIN_STARTED => Response::DrainStarted { req_id },
        ST_STATS => {
            let len = c.u32()? as usize;
            Response::Stats {
                req_id,
                json: c.string(len)?,
            }
        }
        ST_PROM => {
            let len = c.u32()? as usize;
            Response::Prom {
                req_id,
                text: c.string(len)?,
            }
        }
        st => return Err(ProtocolError::new(format!("unknown status {st}"))),
    };
    c.finish()?;
    Ok(resp)
}

/// A blocking client for the `pimserve` protocol, shared by `pimbench`
/// and the integration tests. One client owns one TCP
/// connection; requests may be pipelined (send several, then receive)
/// and responses are correlated by `req_id`.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    /// Sends one request (non-blocking on the response).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &encode_request(req))
    }

    /// Receives one response; `Ok(None)` when the server closed the
    /// connection.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a malformed response payload surfaces as
    /// [`io::ErrorKind::InvalidData`].
    pub fn recv(&mut self) -> io::Result<Option<Response>> {
        match read_frame(&mut self.stream)? {
            None => Ok(None),
            Some(payload) => decode_response(&payload)
                .map(Some)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// Sends `req` and receives one reply; a server close before it is
    /// [`io::ErrorKind::UnexpectedEof`].
    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        self.send(req)?;
        self.recv()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request")
        })
    }

    /// One blocking align round trip. Assumes no other request is in
    /// flight on this connection.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an unexpected server close is
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn align(
        &mut self,
        req_id: u64,
        id: &str,
        seq: &str,
        deadline_ms: u32,
    ) -> io::Result<Response> {
        self.round_trip(&Request::Align(AlignRequest {
            req_id,
            deadline_ms,
            id: id.to_owned(),
            seq: seq.to_owned(),
        }))
    }

    /// Requests a graceful drain and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn drain(&mut self, req_id: u64) -> io::Result<Option<Response>> {
        self.send(&Request::Drain { req_id })?;
        self.recv()
    }

    /// Fetches a live `Stats` snapshot and returns its JSON document.
    ///
    /// Answered inline by the server's connection reader — never queued
    /// — so this works mid-overload and mid-drain. Use a dedicated
    /// connection when another thread is receiving on this one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an unexpected server close or a non-Stats
    /// reply is [`io::ErrorKind::InvalidData`] / `UnexpectedEof`.
    pub fn stats(&mut self, req_id: u64) -> io::Result<String> {
        match self.round_trip(&Request::Stats { req_id })? {
            Response::Stats { json, .. } => Ok(json),
            other => Err(unexpected_reply("Stats", &other)),
        }
    }

    /// Fetches the Prometheus text exposition (the `Prom` verb).
    ///
    /// Like [`Client::stats`], answered inline and never shed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an unexpected server close or a non-Prom
    /// reply is [`io::ErrorKind::InvalidData`] / `UnexpectedEof`.
    pub fn prom(&mut self, req_id: u64) -> io::Result<String> {
        match self.round_trip(&Request::Prom { req_id })? {
            Response::Prom { text, .. } => Ok(text),
            other => Err(unexpected_reply("Prom", &other)),
        }
    }
}

/// A reply of the wrong kind, as [`io::ErrorKind::InvalidData`].
fn unexpected_reply(want: &str, got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("expected {want} reply, got {got:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::Mutation;
    use proptest::prelude::*;

    fn requests() -> Vec<Request> {
        let align = |req_id, deadline_ms, id: &str, seq: &str| {
            let (id, seq) = (id.to_owned(), seq.to_owned());
            Request::Align(AlignRequest {
                req_id,
                deadline_ms,
                id,
                seq,
            })
        };
        vec![
            align(42, 250, "read-1", &"ACGTACGT".repeat(12)),
            align(u64::MAX, 0, "", "A"),
            Request::Drain { req_id: 7 },
            Request::Stats { req_id: 8 },
            Request::Prom { req_id: 9 },
        ]
    }

    fn responses() -> Vec<Response> {
        let mapped = |req_id, positions| {
            let (reverse, diffs) = (true, 2);
            let status = AlignStatus::Mapped {
                reverse,
                diffs,
                positions,
            };
            Response::Aligned { req_id, status }
        };
        let (message, json) = ("bad base 'N'".to_owned(), "{\"received\": 3}".to_owned());
        let text = "# TYPE pimserve_queue_depth gauge\npimserve_queue_depth 0\n".to_owned();
        let (status, retry_after_ms) = (AlignStatus::Unmapped, 40);
        vec![
            mapped(1, vec![0, 17, u64::MAX]),
            // More positions than a decoder pre-sizes for.
            mapped(12, (0..5_000).collect()),
            Response::Aligned { req_id: 2, status },
            Response::Overloaded {
                req_id: 3,
                retry_after_ms,
                reason: ShedReason::QueueDepth,
            },
            Response::Overloaded {
                req_id: 4,
                retry_after_ms,
                reason: ShedReason::InflightBytes,
            },
            Response::DeadlineExceeded { req_id: 5 },
            Response::Invalid { req_id: 6, message },
            Response::WorkerPanic {
                req_id: 7,
                message: "poisoned read".to_owned(),
            },
            Response::Draining { req_id: 8 },
            Response::DrainStarted { req_id: 9 },
            Response::Stats { req_id: 10, json },
            Response::Prom { req_id: 11, text },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for request in requests() {
            let decoded = decode_request(&encode_request(&request)).expect("decodes");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in responses() {
            let decoded = decode_response(&encode_response(&response)).expect("decodes");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn shed_reasons_keep_their_wire_bytes() {
        let overloaded = |reason| Response::Overloaded {
            req_id: 5,
            retry_after_ms: 9,
            reason,
        };
        for (byte, reason) in ShedReason::ALL.into_iter().enumerate() {
            let bytes = encode_response(&overloaded(reason));
            assert_eq!(bytes.last(), Some(&(byte as u8)), "{reason:?}");
        }
        assert_eq!(
            ShedReason::ALL[..2],
            [ShedReason::QueueDepth, ShedReason::InflightBytes]
        );
        let mut bytes = encode_response(&overloaded(ShedReason::QueueDepth));
        *bytes.last_mut().unwrap() = 4;
        let e = decode_response(&bytes).expect_err("no fifth reason");
        assert!(e.to_string().contains("unknown shed reason 4"), "{e}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_request(&[]).is_err(), "empty payload");
        assert!(decode_request(&[99]).is_err(), "unknown opcode");
        assert!(decode_response(&[0; 8]).is_err(), "missing status byte");
        assert!(
            decode_response(&[0, 0, 0, 0, 0, 0, 0, 0, 200]).is_err(),
            "unknown status"
        );
        // Truncated declared length.
        let mut p = encode_request(&Request::Align(AlignRequest {
            req_id: 1,
            deadline_ms: 0,
            id: "r".to_owned(),
            seq: "ACGT".to_owned(),
        }));
        p.truncate(p.len() - 2);
        assert!(decode_request(&p).is_err(), "truncated sequence");
        // Trailing garbage.
        let mut p = encode_request(&Request::Drain { req_id: 1 });
        p.push(0);
        assert!(decode_request(&p).is_err(), "trailing byte");
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundary() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        // EOF mid-frame is an error, not a silent truncation.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"abcdef").unwrap();
        torn.truncate(torn.len() - 3);
        let mut r = torn.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        // So is a torn length prefix; an empty stream ends cleanly.
        let mut r = &torn[..2];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(read_frame(&mut &[][..]).unwrap(), None, "empty stream");

        // A read interrupted by a signal is retried, not fatal.
        for stream in [&wire[..], &torn, &torn[..2], &[], &u32::MAX.to_be_bytes()] {
            interrupted_reads_what_bytes_read(stream).unwrap();
        }
    }

    #[test]
    fn oversized_frames_are_rejected_both_ways() {
        let big = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut sink = Vec::new();
        assert_eq!(
            write_frame(&mut sink, &big).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        // A hostile length prefix is rejected before any allocation.
        let wire = u32::MAX.to_be_bytes();
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// An encoded message and the `(offset, width)` of its length fields.
    type Sample = (Vec<u8>, Vec<(usize, usize)>);

    /// Every request and response shape — the mutator's corpus.
    fn corpus() -> Vec<Sample> {
        let requests = requests().into_iter().map(|request| {
            let fields = match &request {
                // Opcode, `req_id`, `deadline_ms`, then the id's length.
                Request::Align(a) => vec![(13, 2), (15 + a.id.len(), 4)],
                _ => vec![],
            };
            (encode_request(&request), fields)
        });
        let responses = responses().into_iter().map(|response| {
            // `req_id` and the status byte come first; a mapped answer's
            // count follows its three flag bytes.
            let fields = match &response {
                Response::Aligned { status, .. } if *status != AlignStatus::Unmapped => {
                    vec![(12, 4)]
                }
                Response::Invalid { .. } | Response::WorkerPanic { .. } => vec![(9, 2)],
                Response::Stats { .. } | Response::Prom { .. } => vec![(9, 4)],
                _ => vec![],
            };
            (encode_response(&response), fields)
        });
        requests.chain(responses).collect()
    }

    /// Whatever the bytes, both decoders answer with a message or a typed
    /// error, and a message accounts for every byte it was decoded from —
    /// so nothing it holds outgrows the payload.
    fn decodes_or_fails_typed(bytes: &[u8]) -> Result<(), TestCaseError> {
        match decode_request(bytes) {
            Ok(request) => prop_assert_eq!(encode_request(&request), bytes),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        match decode_response(bytes) {
            Ok(response) => prop_assert_eq!(encode_response(&response).len(), bytes.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        Ok(())
    }

    /// A socket whose every read is interrupted by a signal once before
    /// it hands over one byte: `(bytes left, just interrupted)`.
    struct Interrupting<'a>(&'a [u8], bool);

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let one = buf.len().min(1);
            self.0.read(&mut buf[..one])
        }
    }

    /// What a frame reader makes of a stream, call after call: every
    /// frame, then the end — `Ok(None)` or the error's kind.
    type Verdicts = Vec<Result<Option<Vec<u8>>, io::ErrorKind>>;

    fn verdicts(mut next: impl FnMut() -> io::Result<Option<Vec<u8>>>) -> Verdicts {
        let mut seen = Vec::new();
        loop {
            let verdict = next().map_err(|e| e.kind());
            let end = !matches!(verdict, Ok(Some(_)));
            seen.push(verdict);
            if end {
                return seen;
            }
        }
    }

    /// `read_frame` over an [`Interrupting`] socket gives, call for
    /// call, the verdicts it gives over the plain bytes of `wire`.
    fn interrupted_reads_what_bytes_read(wire: &[u8]) -> Result<(), TestCaseError> {
        let (mut bytes, mut interrupting) = (wire, Interrupting(wire, false));
        prop_assert_eq!(
            verdicts(|| read_frame(&mut interrupting)),
            verdicts(|| read_frame(&mut bytes))
        );
        Ok(())
    }

    #[test]
    fn the_corpus_decodes_and_its_fields_are_the_lengths() {
        for (payload, fields) in corpus() {
            assert!(decode_request(&payload).is_ok() || decode_response(&payload).is_ok());
            // A length field one too large runs the payload out.
            for &(at, width) in &fields {
                let mut longer = payload.clone();
                longer[at + width - 1] = longer[at + width - 1].wrapping_add(1);
                assert!(decode_request(&longer).is_err() && decode_response(&longer).is_err());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hostile payloads through `decode_request` and
        /// `decode_response`: a typed error or a message, never a panic,
        /// and never an allocation a field asks for and the bytes do not
        /// back — a count of 2³¹ positions pre-sizes 4 096 and then runs
        /// out of payload.
        #[test]
        fn mutated_payloads_decode_or_fail_typed(
            pick in any::<usize>(),
            kind in 0u8..4,
            a in any::<usize>(),
            b in any::<usize>(),
            c in any::<u64>(),
        ) {
            let corpus = corpus();
            let (payload, fields) = &corpus[pick % corpus.len()];
            let mut bytes = payload.clone();
            Mutation::from_draws(kind, a, b, c).apply(&mut bytes, fields, true);
            decodes_or_fails_typed(&bytes)?;
        }

        /// Hostile framed streams through `read_frame`: frames no longer
        /// than the stream that carried them, then a clean end where the
        /// last frame ends, a torn frame or a length over the cap — and
        /// each frame through the decoders as above. A socket interrupted
        /// before every byte gives the same verdicts.
        #[test]
        fn mutated_streams_read_frames_or_fail_typed(
            picks in proptest::collection::vec(any::<usize>(), 1..5),
            kind in 0u8..4,
            a in any::<usize>(),
            b in any::<usize>(),
            c in any::<u64>(),
        ) {
            let corpus = corpus();
            let mut wire = Vec::new();
            let mut fields = Vec::new();
            for pick in picks {
                let (payload, inner) = &corpus[pick % corpus.len()];
                let at = wire.len();
                fields.push((at, 4));
                fields.extend(inner.iter().map(|&(offset, width)| (at + 4 + offset, width)));
                write_frame(&mut wire, payload).expect("a Vec takes it");
            }
            Mutation::from_draws(kind, a, b, c).apply(&mut wire, &fields, true);
            let mut rest = wire.as_slice();
            let want = verdicts(|| read_frame(&mut rest));
            let mut framed = 0;
            for verdict in &want {
                match verdict {
                    Ok(Some(payload)) => {
                        framed += 4 + payload.len();
                        decodes_or_fails_typed(payload)?;
                    }
                    Ok(None) => prop_assert_eq!(framed, wire.len()),
                    Err(kind) => prop_assert!(
                        matches!(kind, io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData),
                        "{:?}",
                        kind
                    ),
                }
            }
            prop_assert!(framed <= wire.len());
            interrupted_reads_what_bytes_read(&wire)?;
        }
    }
}
