//! The framed wire protocol.
//!
//! Every message travels in one *frame*:
//!
//! ```text
//! offset  size  field
//!      0     2  magic  b"RQ"
//!      2     2  protocol version (little endian, currently 1)
//!      4     4  payload length N (little endian, <= MAX_PAYLOAD)
//!      8     4  CRC32 of the payload (same polynomial as the WAL)
//!     12     N  payload
//! ```
//!
//! The payload is a tag byte followed by little-endian fields; see
//! [`Request`] and [`Response`]. Decoding is total: any byte sequence
//! yields `Ok` or a typed [`FrameError`], never a panic — the seeded fuzz
//! suite in `tests/fuzz_frames.rs` holds the codec to that.

use rtree_geom::Rect;
use rtree_wal::crc32;
use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"RQ";
/// Protocol version carried in (and required of) every frame header.
pub const VERSION: u16 = 1;
/// Bytes of header before the payload.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a frame payload. Bounds every allocation the decoder
/// makes, so a hostile length field can never balloon memory.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Why a frame or payload failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the announced header or payload does.
    Truncated,
    /// The first two bytes are not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The header announces a version this build does not speak.
    BadVersion(u16),
    /// The header announces a payload larger than [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload does not match the header's checksum.
    BadCrc {
        /// Checksum the header announced.
        expect: u32,
        /// Checksum of the bytes actually received.
        got: u32,
    },
    /// The payload's leading tag byte is not a known message.
    UnknownTag(u8),
    /// The payload body is malformed for its tag.
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            FrameError::BadCrc { expect, got } => {
                write!(f, "payload crc {got:08x} != header crc {expect:08x}")
            }
            FrameError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            FrameError::BadPayload(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Parses and validates a frame header, returning the payload length and
/// its announced CRC.
pub fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(usize, u32), FrameError> {
    if h[0..2] != MAGIC {
        return Err(FrameError::BadMagic([h[0], h[1]]));
    }
    let version = u16::from_le_bytes([h[2], h[3]]);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
    if len as usize > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let crc = u32::from_le_bytes([h[8], h[9], h[10], h[11]]);
    Ok((len as usize, crc))
}

/// Wraps `payload` in a frame.
///
/// # Panics
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — messages this library
/// builds are bounded well below it.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD, "payload exceeds frame cap");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32::checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes one frame from the front of `buf`. Returns the payload and the
/// bytes consumed, `Ok(None)` when `buf` is a valid but incomplete prefix
/// (read more and retry), or the header/CRC error.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, FrameError> {
    if buf.len() < HEADER_LEN {
        // An incomplete header is only "wait for more" while what we have
        // could still grow into a valid one.
        if buf.len() >= 2 && buf[0..2] != MAGIC {
            return Err(FrameError::BadMagic([buf[0], buf[1]]));
        }
        if !buf.is_empty() && buf[0] != MAGIC[0] {
            return Err(FrameError::BadMagic([buf[0], 0]));
        }
        return Ok(None);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&buf[..HEADER_LEN]);
    let (len, crc) = parse_header(&header)?;
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let got = crc32::checksum(payload);
    if got != crc {
        return Err(FrameError::BadCrc { expect: crc, got });
    }
    Ok(Some((payload.to_vec(), HEADER_LEN + len)))
}

/// Writes one frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Reads one frame, blocking. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; a connection dropped mid-frame surfaces as
/// [`io::ErrorKind::UnexpectedEof`], and a malformed frame as
/// [`io::ErrorKind::InvalidData`] carrying the [`FrameError`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => filled += n,
        }
    }
    let (len, crc) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let got = crc32::checksum(&payload);
    if got != crc {
        return Err(FrameError::BadCrc { expect: crc, got }.into());
    }
    Ok(Some(payload))
}

// ---- payload codecs -----------------------------------------------------

/// A query or control message from client to server.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Region query: ids of items intersecting the rectangle.
    Query(Rect),
    /// Point query: ids of items containing the point (a degenerate
    /// rectangle on the wire and in the engine).
    Point(f64, f64),
    /// Count-only region query: the match count, no id list.
    Count(Rect),
    /// Server counters snapshot.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight batches, exit.
    Shutdown,
    /// Insert an item (rectangle plus id). Requires a write-capable
    /// engine; read-only servers answer with [`Response::Error`].
    Insert(Rect, u64),
    /// Delete an item previously inserted with exactly this rectangle and
    /// id. The reply says whether the entry existed.
    Delete(Rect, u64),
}

const TAG_QUERY: u8 = 1;
const TAG_POINT: u8 = 2;
const TAG_COUNT: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_SHUTDOWN: u8 = 5;
const TAG_INSERT: u8 = 6;
const TAG_DELETE: u8 = 7;

const TAG_MATCHES: u8 = 1;
const TAG_COUNT_REPLY: u8 = 2;
const TAG_STATS_REPLY: u8 = 3;
const TAG_OVERLOADED: u8 = 4;
const TAG_ERROR: u8 = 5;
const TAG_SHUTTING_DOWN: u8 = 6;
const TAG_WRITTEN: u8 = 7;

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian f64 at `offset`; the caller has checked the length.
fn get_f64(b: &[u8], offset: usize) -> f64 {
    f64::from_le_bytes(b[offset..offset + 8].try_into().expect("checked length"))
}

fn get_u64(b: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(b[offset..offset + 8].try_into().expect("checked length"))
}

fn put_rect(out: &mut Vec<u8>, r: &Rect) {
    put_f64(out, r.lo.x);
    put_f64(out, r.lo.y);
    put_f64(out, r.hi.x);
    put_f64(out, r.hi.y);
}

/// Validated rectangle decode: hostile bytes must never reach
/// `Rect::new`'s debug assertions.
fn get_rect(b: &[u8], offset: usize) -> Result<Rect, FrameError> {
    if b.len() < offset + 32 {
        return Err(FrameError::BadPayload("rectangle needs 32 bytes"));
    }
    let (a, bb, c, d) = (
        get_f64(b, offset),
        get_f64(b, offset + 8),
        get_f64(b, offset + 16),
        get_f64(b, offset + 24),
    );
    if !(a.is_finite() && bb.is_finite() && c.is_finite() && d.is_finite()) {
        return Err(FrameError::BadPayload("non-finite rectangle coordinate"));
    }
    if a > c || bb > d {
        return Err(FrameError::BadPayload("inverted rectangle corners"));
    }
    Ok(Rect::new(a, bb, c, d))
}

fn expect_len(b: &[u8], want: usize, what: &'static str) -> Result<(), FrameError> {
    if b.len() != want {
        return Err(FrameError::BadPayload(what));
    }
    Ok(())
}

impl Request {
    /// Encodes the request payload (frame it with [`encode_frame`] /
    /// [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33);
        match self {
            Request::Query(r) => {
                out.push(TAG_QUERY);
                put_rect(&mut out, r);
            }
            Request::Point(x, y) => {
                out.push(TAG_POINT);
                put_f64(&mut out, *x);
                put_f64(&mut out, *y);
            }
            Request::Count(r) => {
                out.push(TAG_COUNT);
                put_rect(&mut out, r);
            }
            Request::Stats => out.push(TAG_STATS),
            Request::Shutdown => out.push(TAG_SHUTDOWN),
            Request::Insert(r, item) => {
                out.push(TAG_INSERT);
                put_rect(&mut out, r);
                put_u64(&mut out, *item);
            }
            Request::Delete(r, item) => {
                out.push(TAG_DELETE);
                put_rect(&mut out, r);
                put_u64(&mut out, *item);
            }
        }
        out
    }

    /// Decodes a request payload.
    pub fn decode(b: &[u8]) -> Result<Self, FrameError> {
        let tag = *b.first().ok_or(FrameError::BadPayload("empty payload"))?;
        match tag {
            TAG_QUERY => {
                expect_len(b, 33, "region query is tag + rectangle")?;
                Ok(Request::Query(get_rect(b, 1)?))
            }
            TAG_POINT => {
                expect_len(b, 17, "point query is tag + two f64")?;
                let (x, y) = (get_f64(b, 1), get_f64(b, 9));
                if !(x.is_finite() && y.is_finite()) {
                    return Err(FrameError::BadPayload("non-finite point coordinate"));
                }
                Ok(Request::Point(x, y))
            }
            TAG_COUNT => {
                expect_len(b, 33, "count query is tag + rectangle")?;
                Ok(Request::Count(get_rect(b, 1)?))
            }
            TAG_STATS => {
                expect_len(b, 1, "stats takes no body")?;
                Ok(Request::Stats)
            }
            TAG_SHUTDOWN => {
                expect_len(b, 1, "shutdown takes no body")?;
                Ok(Request::Shutdown)
            }
            TAG_INSERT => {
                expect_len(b, 41, "insert is tag + rectangle + id")?;
                Ok(Request::Insert(get_rect(b, 1)?, get_u64(b, 33)))
            }
            TAG_DELETE => {
                expect_len(b, 41, "delete is tag + rectangle + id")?;
                Ok(Request::Delete(get_rect(b, 1)?, get_u64(b, 33)))
            }
            t => Err(FrameError::UnknownTag(t)),
        }
    }
}

/// Server-side counters reported by [`Request::Stats`]. All counters are
/// cumulative since the server started.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Queries executed to completion (each produced exactly one response).
    pub queries: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Largest batch executed so far.
    pub max_batch: u64,
    /// Submissions rejected with `Overloaded` (bounded queue was full).
    pub rejected: u64,
    /// Physical page reads.
    pub physical_reads: u64,
    /// Write operations applied (inserts plus deletes that found their
    /// entry). Zero on a read-only engine.
    pub writes: u64,
    /// WAL fsyncs issued by group commit. The ratio `writes / wal_fsyncs`
    /// is the durability amortization the server achieves.
    pub wal_fsyncs: u64,
    /// Commit batches flushed (each covers one or more logged operations).
    pub commit_batches: u64,
}

/// A reply from server to client.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Matching item ids of a [`Request::Query`] / [`Request::Point`].
    Matches(Vec<u64>),
    /// Match count of a [`Request::Count`].
    Count(u64),
    /// Counters snapshot for [`Request::Stats`].
    Stats(StatsReply),
    /// The scheduler queue was full; the query was *not* executed.
    Overloaded,
    /// The request failed (decode error on a recoverable boundary, or an
    /// engine I/O error).
    Error(String),
    /// Acknowledges [`Request::Shutdown`]; also answers queries submitted
    /// after draining began.
    ShuttingDown,
    /// Acknowledges a durably committed [`Request::Insert`] /
    /// [`Request::Delete`]; `false` means a delete found no such entry.
    Written(bool),
}

/// Ids a `Matches` payload can carry without busting [`MAX_PAYLOAD`].
pub const MAX_IDS: usize = (MAX_PAYLOAD - 5) / 8;

impl Response {
    /// Encodes the response payload.
    ///
    /// # Panics
    /// Panics if a `Matches` id list exceeds [`MAX_IDS`] (about 131k ids —
    /// far beyond any page-bounded result set this engine produces).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9);
        match self {
            Response::Matches(ids) => {
                assert!(ids.len() <= MAX_IDS, "result set exceeds frame cap");
                out.push(TAG_MATCHES);
                out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    put_u64(&mut out, *id);
                }
            }
            Response::Count(n) => {
                out.push(TAG_COUNT_REPLY);
                put_u64(&mut out, *n);
            }
            Response::Stats(s) => {
                out.push(TAG_STATS_REPLY);
                for v in [
                    s.queries,
                    s.batches,
                    s.max_batch,
                    s.rejected,
                    s.physical_reads,
                    s.writes,
                    s.wal_fsyncs,
                    s.commit_batches,
                ] {
                    put_u64(&mut out, v);
                }
            }
            Response::Overloaded => out.push(TAG_OVERLOADED),
            Response::Error(msg) => {
                out.push(TAG_ERROR);
                // At most 1 024 bytes, cut on a char boundary so the
                // message still decodes as UTF-8.
                let n = (0..=msg.len().min(1024))
                    .rev()
                    .find(|&n| msg.is_char_boundary(n))
                    .unwrap_or(0);
                out.extend_from_slice(&(n as u32).to_le_bytes());
                out.extend_from_slice(&msg.as_bytes()[..n]);
            }
            Response::ShuttingDown => out.push(TAG_SHUTTING_DOWN),
            Response::Written(found) => {
                out.push(TAG_WRITTEN);
                out.push(u8::from(*found));
            }
        }
        out
    }

    /// Decodes a response payload.
    pub fn decode(b: &[u8]) -> Result<Self, FrameError> {
        let tag = *b.first().ok_or(FrameError::BadPayload("empty payload"))?;
        match tag {
            TAG_MATCHES => {
                if b.len() < 5 {
                    return Err(FrameError::BadPayload("matches needs a count"));
                }
                let n = u32::from_le_bytes(b[1..5].try_into().expect("checked length")) as usize;
                if n > MAX_IDS {
                    return Err(FrameError::BadPayload("id count exceeds frame cap"));
                }
                expect_len(b, 5 + 8 * n, "matches length != announced count")?;
                Ok(Response::Matches(
                    (0..n).map(|i| get_u64(b, 5 + 8 * i)).collect(),
                ))
            }
            TAG_COUNT_REPLY => {
                expect_len(b, 9, "count reply is tag + u64")?;
                Ok(Response::Count(get_u64(b, 1)))
            }
            TAG_STATS_REPLY => {
                expect_len(b, 65, "stats reply is tag + eight u64")?;
                Ok(Response::Stats(StatsReply {
                    queries: get_u64(b, 1),
                    batches: get_u64(b, 9),
                    max_batch: get_u64(b, 17),
                    rejected: get_u64(b, 25),
                    physical_reads: get_u64(b, 33),
                    writes: get_u64(b, 41),
                    wal_fsyncs: get_u64(b, 49),
                    commit_batches: get_u64(b, 57),
                }))
            }
            TAG_OVERLOADED => {
                expect_len(b, 1, "overloaded takes no body")?;
                Ok(Response::Overloaded)
            }
            TAG_ERROR => {
                if b.len() < 5 {
                    return Err(FrameError::BadPayload("error needs a length"));
                }
                let n = u32::from_le_bytes(b[1..5].try_into().expect("checked length")) as usize;
                expect_len(b, 5 + n, "error length != announced")?;
                match std::str::from_utf8(&b[5..5 + n]) {
                    Ok(s) => Ok(Response::Error(s.to_string())),
                    Err(_) => Err(FrameError::BadPayload("error message is not utf-8")),
                }
            }
            TAG_SHUTTING_DOWN => {
                expect_len(b, 1, "shutting-down takes no body")?;
                Ok(Response::ShuttingDown)
            }
            TAG_WRITTEN => {
                expect_len(b, 2, "written is tag + bool")?;
                match b[1] {
                    0 => Ok(Response::Written(false)),
                    1 => Ok(Response::Written(true)),
                    _ => Err(FrameError::BadPayload("written flag is not 0/1")),
                }
            }
            t => Err(FrameError::UnknownTag(t)),
        }
    }
}

/// Sends a request as one frame.
pub fn send_request<W: Write>(w: &mut W, req: &Request) -> io::Result<()> {
    write_frame(w, &req.encode())
}

/// Sends a response as one frame.
pub fn send_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    write_frame(w, &resp.encode())
}

/// Receives and decodes one response frame (blocking). `Ok(None)` on clean
/// EOF.
pub fn recv_response<R: Read>(r: &mut R) -> io::Result<Option<Response>> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(Response::decode(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect() -> Rect {
        Rect::new(0.125, 0.25, 0.5, 0.75)
    }

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Query(rect()),
            Request::Point(0.25, 0.75),
            Request::Count(rect()),
            Request::Stats,
            Request::Shutdown,
            Request::Insert(rect(), 7),
            Request::Delete(rect(), u64::MAX),
        ] {
            let frame = encode_frame(&req.encode());
            let (payload, used) = decode_frame(&frame).unwrap().unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(Request::decode(&payload).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::Matches(vec![]),
            Response::Matches(vec![7, 0, u64::MAX]),
            Response::Count(42),
            Response::Stats(StatsReply {
                queries: 1,
                batches: 2,
                max_batch: 3,
                rejected: 4,
                physical_reads: 11,
                writes: 12,
                wal_fsyncs: 3,
                commit_batches: 3,
            }),
            Response::Overloaded,
            Response::Error("nope".into()),
            Response::ShuttingDown,
            Response::Written(true),
            Response::Written(false),
        ] {
            let payload = resp.encode();
            assert_eq!(Response::decode(&payload).unwrap(), resp);
        }
    }

    /// The 1 024-byte cut lands inside `é`: it must back off to the char
    /// boundary, not emit half a character the decoder then rejects.
    #[test]
    fn long_error_message_truncates_on_a_char_boundary() {
        let msg = "x".repeat(1023) + "é tail";
        match Response::decode(&Response::Error(msg.clone()).encode()).unwrap() {
            Response::Error(got) => {
                assert_eq!(got.len(), 1023, "the longest prefix within 1 024 bytes");
                assert!(msg.starts_with(&got));
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn stream_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        send_request(&mut buf, &Request::Query(rect())).unwrap();
        send_request(&mut buf, &Request::Stats).unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Query(rect())
        );
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Stats
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn header_rejections_are_typed() {
        let good = encode_frame(&Request::Stats.encode());

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadMagic(_))));

        let mut bad = good.clone();
        bad[2] = 9;
        assert_eq!(decode_frame(&bad), Err(FrameError::BadVersion(9)));

        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(decode_frame(&bad), Err(FrameError::Oversized(_))));

        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadCrc { .. })));

        // Incomplete frames ask for more bytes instead of erroring.
        assert_eq!(decode_frame(&good[..5]), Ok(None));
        assert_eq!(decode_frame(&good[..good.len() - 1]), Ok(None));
        assert_eq!(decode_frame(&[]), Ok(None));
    }

    #[test]
    fn hostile_rectangles_are_rejected_not_asserted() {
        // Inverted corners.
        let mut p = vec![1u8];
        for v in [0.9f64, 0.9, 0.1, 0.1] {
            p.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(
            Request::decode(&p),
            Err(FrameError::BadPayload(_))
        ));
        // NaN coordinate.
        let mut p = vec![1u8];
        for v in [f64::NAN, 0.0, 1.0, 1.0] {
            p.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(
            Request::decode(&p),
            Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn hostile_write_payloads_are_rejected() {
        // Inverted corners in an insert.
        let mut p = vec![6u8];
        for v in [0.9f64, 0.9, 0.1, 0.1] {
            p.extend_from_slice(&v.to_le_bytes());
        }
        p.extend_from_slice(&5u64.to_le_bytes());
        assert!(matches!(
            Request::decode(&p),
            Err(FrameError::BadPayload(_))
        ));
        // Truncated delete (missing the id).
        let short = &Request::Delete(rect(), 1).encode()[..33];
        assert!(matches!(
            Request::decode(short),
            Err(FrameError::BadPayload(_))
        ));
        // A written flag outside 0/1 is not silently truthy.
        assert!(matches!(
            Response::decode(&[7u8, 2]),
            Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn unknown_tags_are_typed() {
        assert_eq!(Request::decode(&[99]), Err(FrameError::UnknownTag(99)));
        assert_eq!(Response::decode(&[99]), Err(FrameError::UnknownTag(99)));
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn mid_frame_eof_is_distinguished_from_clean_close() {
        let frame = encode_frame(&Request::Stats.encode());
        let mut r = io::Cursor::new(frame[..frame.len() - 1].to_vec());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
