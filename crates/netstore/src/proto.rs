//! Wire protocol for the artifact distribution service.
//!
//! Every frame is length-prefixed and checksummed:
//!
//! ```text
//! "MNET" | payload len: u32 LE | payload | Fingerprint::of(payload): u128 LE
//! ```
//!
//! The checksum is verified before any payload parsing, so a frame that was
//! corrupted or truncated in flight is rejected as [`NetError::BadFrame`]
//! without ever reaching message decoding — the same defence the blob store
//! applies to on-disk payloads, extended to the wire.
//!
//! The payload is a tag byte plus a message body. Conversations open with a
//! `Hello`/`HelloAck` version handshake; after that the client issues
//! `HaveManifest`/`GetManifest` for level manifests (keyed by the level's
//! *input fingerprint*, so a hit is exactly a build-cache hit) and batched
//! `GetBlobs` for the payloads its local pool is missing.
//!
//! Tags 0–9 are assigned. Tags 10–12 carried the retired remote-execution
//! frames; like any unassigned tag they now decode as
//! `unknown message tag N`, so an old client gets a structured error.

use std::fmt;
use std::io::{Read, Write};

use marshal_depgraph::Fingerprint;
use marshal_trace::bytes::{DecodeError, Reader, Writer};

/// Protocol version spoken by this build; the handshake rejects mismatches.
pub const NET_VERSION: u32 = 1;

/// Frame magic bytes.
pub const FRAME_MAGIC: &[u8; 4] = b"MNET";

/// Upper bound on a frame payload — a defence against a lying peer
/// declaring a multi-gigabyte length and wedging the reader.
pub const MAX_FRAME: usize = 64 << 20;

/// Upper bound on fingerprints per `GetBlobs` request; clients chunk larger
/// fetch sets into multiple requests.
pub const MAX_BLOB_BATCH: usize = 256;

/// Errors from the distribution layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Socket or connection failure (reconnect may help).
    Io(String),
    /// A per-request deadline expired.
    Timeout(String),
    /// A frame failed its magic, length, or checksum validation.
    BadFrame(String),
    /// The peer spoke well-formed frames but violated the protocol
    /// (unexpected message, version mismatch, malformed manifest).
    Protocol(String),
    /// The remote reported an error or served bad data it refused to fix.
    Remote(String),
    /// The circuit breaker is open: the remote has failed enough
    /// consecutive times that this build has degraded to local-only.
    CircuitOpen,
}

impl NetError {
    /// Whether retrying the request (possibly on a fresh connection) could
    /// plausibly succeed. Transport-level failures are retryable; protocol
    /// violations and an open breaker are not.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            NetError::Io(_) | NetError::Timeout(_) | NetError::BadFrame(_)
        )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(m) => write!(f, "network I/O error: {m}"),
            NetError::Timeout(m) => write!(f, "request timed out: {m}"),
            NetError::BadFrame(m) => write!(f, "bad frame: {m}"),
            NetError::Protocol(m) => write!(f, "protocol error: {m}"),
            NetError::Remote(m) => write!(f, "remote error: {m}"),
            NetError::CircuitOpen => write!(f, "circuit breaker open (degraded to local-only)"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<DecodeError> for NetError {
    fn from(e: DecodeError) -> NetError {
        NetError::BadFrame(e.to_string())
    }
}

/// A protocol message. See the module docs for the conversation shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client greeting with its protocol version.
    Hello {
        /// The client's [`NET_VERSION`].
        version: u32,
    },
    /// Server acknowledgement of a compatible [`Message::Hello`].
    HelloAck {
        /// The server's [`NET_VERSION`].
        version: u32,
    },
    /// Does the server have a manifest for this level-input fingerprint?
    HaveManifest {
        /// The level's input fingerprint (its build-cache key).
        input: Fingerprint,
    },
    /// Answer to [`Message::HaveManifest`].
    Have {
        /// Whether the manifest is present.
        present: bool,
    },
    /// Fetch the manifest for this level-input fingerprint.
    GetManifest {
        /// The level's input fingerprint.
        input: Fingerprint,
    },
    /// Manifest payload for a [`Message::GetManifest`] hit.
    ManifestData {
        /// Raw `MMAN` manifest bytes.
        bytes: Vec<u8>,
    },
    /// The requested manifest is not on this server.
    NotFound,
    /// Batched blob fetch (at most [`MAX_BLOB_BATCH`] fingerprints).
    GetBlobs {
        /// Content fingerprints of the wanted blobs.
        fps: Vec<Fingerprint>,
    },
    /// Answer to [`Message::GetBlobs`], one entry per requested
    /// fingerprint in order; `None` payloads are absent (or failed server
    /// side verification and were withheld).
    Blobs {
        /// `(fingerprint, payload-if-present)` pairs.
        entries: Vec<(Fingerprint, Option<Vec<u8>>)>,
    },
    /// Server-reported error; the connection closes after sending this.
    ErrorMsg {
        /// Human-readable reason.
        message: String,
    },
}

fn encode_payload(msg: &Message) -> Vec<u8> {
    let mut w = Writer::default();
    match msg {
        Message::Hello { version } => w.u8(0).u32(*version),
        Message::HelloAck { version } => w.u8(1).u32(*version),
        Message::HaveManifest { input } => w.u8(2).u128(input.0),
        Message::Have { present } => w.u8(3).u8(u8::from(*present)),
        Message::GetManifest { input } => w.u8(4).u128(input.0),
        Message::ManifestData { bytes } => w.u8(5).field32(bytes),
        Message::NotFound => w.u8(6),
        Message::GetBlobs { fps } => {
            w.u8(7).u32(fps.len() as u32);
            for fp in fps {
                w.u128(fp.0);
            }
            &mut w
        }
        Message::Blobs { entries } => {
            w.u8(8).u32(entries.len() as u32);
            for (fp, payload) in entries {
                w.u128(fp.0);
                match payload {
                    Some(bytes) => w.u8(1).field64(bytes),
                    None => w.u8(0),
                };
            }
            &mut w
        }
        Message::ErrorMsg { message } => w.u8(9).field32(message.as_bytes()),
    };
    w.into_bytes()
}

/// Encodes a message into a complete wire frame (magic, length, payload,
/// checksum).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let payload = encode_payload(msg);
    let mut w = Writer::with_capacity(8 + payload.len() + 16);
    w.bytes(FRAME_MAGIC)
        .field32(&payload)
        .u128(Fingerprint::of(&payload).0);
    w.into_bytes()
}

fn parse_payload(payload: &[u8]) -> Result<Message, NetError> {
    let mut r = Reader::new(payload);
    let msg = match r.u8()? {
        0 => Message::Hello { version: r.u32()? },
        1 => Message::HelloAck { version: r.u32()? },
        2 => Message::HaveManifest {
            input: Fingerprint(r.u128()?),
        },
        3 => Message::Have {
            present: r.u8()? != 0,
        },
        4 => Message::GetManifest {
            input: Fingerprint(r.u128()?),
        },
        5 => Message::ManifestData {
            bytes: r.field32()?.to_vec(),
        },
        6 => Message::NotFound,
        7 => {
            let count = batch_len(&mut r, "GetBlobs")?;
            let mut fps = Vec::with_capacity(count);
            for _ in 0..count {
                fps.push(Fingerprint(r.u128()?));
            }
            Message::GetBlobs { fps }
        }
        8 => {
            let count = batch_len(&mut r, "Blobs")?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let fp = Fingerprint(r.u128()?);
                let payload = match r.u8()? {
                    0 => None,
                    _ => Some(r.field64()?.to_vec()),
                };
                entries.push((fp, payload));
            }
            Message::Blobs { entries }
        }
        9 => Message::ErrorMsg {
            message: r.str32()?.to_owned(),
        },
        t => return Err(NetError::BadFrame(format!("unknown message tag {t}"))),
    };
    r.finish()?;
    Ok(msg)
}

/// A batch's entry count, checked against [`MAX_BLOB_BATCH`].
fn batch_len(r: &mut Reader, what: &str) -> Result<usize, NetError> {
    let count = r.u32()? as usize;
    if count > MAX_BLOB_BATCH {
        return Err(NetError::Protocol(format!(
            "{what} batch of {count} exceeds cap {MAX_BLOB_BATCH}"
        )));
    }
    Ok(count)
}

/// Reads a frame header (magic and declared payload length), checking the
/// length against [`MAX_FRAME`].
fn frame_len(r: &mut Reader) -> Result<usize, NetError> {
    r.magic(FRAME_MAGIC)?;
    let len = r.u32()? as usize;
    if len > MAX_FRAME {
        return Err(NetError::BadFrame(format!(
            "declared payload of {len} bytes exceeds cap"
        )));
    }
    Ok(len)
}

/// Validates and decodes a complete wire frame into a message.
///
/// # Errors
///
/// [`NetError::BadFrame`] when the magic, length, or checksum does not
/// validate (the payload is never parsed in that case), or when the payload
/// itself is malformed; [`NetError::Protocol`] when a batch exceeds its cap.
pub fn decode_frame(frame: &[u8]) -> Result<Message, NetError> {
    let mut r = Reader::new(frame);
    let len = frame_len(&mut r)?;
    let payload = r.take(len as u64)?;
    let sum = r.u128()?;
    r.finish()?;
    if sum != Fingerprint::of(payload).0 {
        return Err(NetError::BadFrame(
            "payload checksum mismatch (corrupted in flight)".to_owned(),
        ));
    }
    parse_payload(payload)
}

fn io_err(context: &str, e: &std::io::Error) -> NetError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout(format!("{context}: {e}")),
        _ => NetError::Io(format!("{context}: {e}")),
    }
}

/// Reads one complete raw frame (header, payload, and checksum) from a
/// stream. Returns the raw bytes so transports can hand them to
/// [`decode_frame`] — or corrupt them first, in fault-injection shims.
///
/// # Errors
///
/// [`NetError::Timeout`] when a read deadline expires, [`NetError::Io`] on
/// other socket failures (including EOF mid-frame), [`NetError::BadFrame`]
/// when the header's magic or declared length is invalid.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, NetError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)
        .map_err(|e| io_err("reading frame header", &e))?;
    let len = frame_len(&mut Reader::new(&header))?;
    let mut frame = Vec::with_capacity(8 + len + 16);
    frame.extend_from_slice(&header);
    frame.resize(8 + len + 16, 0);
    r.read_exact(&mut frame[8..])
        .map_err(|e| io_err("reading frame body", &e))?;
    Ok(frame)
}

/// Writes a raw frame to a stream.
///
/// # Errors
///
/// [`NetError::Timeout`] when a write deadline expires, [`NetError::Io`] on
/// other socket failures.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), NetError> {
    w.write_all(frame)
        .map_err(|e| io_err("writing frame", &e))?;
    w.flush().map_err(|e| io_err("flushing frame", &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                version: NET_VERSION,
            },
            Message::HelloAck {
                version: NET_VERSION,
            },
            Message::HaveManifest {
                input: Fingerprint(42),
            },
            Message::Have { present: true },
            Message::GetManifest {
                input: Fingerprint(u128::MAX),
            },
            Message::ManifestData {
                bytes: b"MMAN....".to_vec(),
            },
            Message::NotFound,
            Message::GetBlobs {
                fps: vec![Fingerprint(1), Fingerprint(2), Fingerprint(3)],
            },
            Message::Blobs {
                entries: vec![
                    (Fingerprint(1), Some(b"payload".to_vec())),
                    (Fingerprint(2), None),
                ],
            },
            Message::ErrorMsg {
                message: "no thanks".to_owned(),
            },
        ]
    }

    #[test]
    fn roundtrip_every_message() {
        for msg in sample_messages() {
            let frame = encode_frame(&msg);
            assert_eq!(decode_frame(&frame).unwrap(), msg, "roundtrip of {msg:?}");
        }
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        for msg in sample_messages() {
            write_frame(&mut buf, &encode_frame(&msg)).unwrap();
        }
        let mut r = &buf[..];
        for msg in sample_messages() {
            let frame = read_frame(&mut r).unwrap();
            assert_eq!(decode_frame(&frame).unwrap(), msg);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let msg = Message::Blobs {
            entries: vec![(Fingerprint(7), Some(b"some payload bytes".to_vec()))],
        };
        let frame = encode_frame(&msg);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let frame = encode_frame(&Message::ManifestData {
            bytes: vec![0xAB; 100],
        });
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        let mut rng = marshal_qcheck::Rng::new(0x9e37);
        for _ in 0..500 {
            let garbage = rng.bytes_in(0, 200);
            let _ = decode_frame(&garbage);
        }
        // Garbage wearing a valid header must still fail the checksum.
        let mut framed = Writer::default();
        framed.bytes(FRAME_MAGIC).u32(8).bytes(&[0xEE; 8 + 16]);
        let framed = framed.into_bytes();
        assert!(matches!(decode_frame(&framed), Err(NetError::BadFrame(_))));
    }

    #[test]
    fn oversized_declared_length_is_capped() {
        let mut frame = Writer::default();
        frame.bytes(FRAME_MAGIC).u32(u32::MAX);
        let err = read_frame(&mut &frame.into_bytes()[..]).unwrap_err();
        assert!(matches!(err, NetError::BadFrame(_)), "{err}");
    }

    #[test]
    fn oversized_blob_batch_is_a_protocol_error() {
        let fps: Vec<Fingerprint> = (0..MAX_BLOB_BATCH as u128 + 1).map(Fingerprint).collect();
        let frame = encode_frame(&Message::GetBlobs { fps });
        assert!(matches!(decode_frame(&frame), Err(NetError::Protocol(_))));
    }

    #[test]
    fn retryable_classification() {
        assert!(NetError::Io("x".into()).retryable());
        assert!(NetError::Timeout("x".into()).retryable());
        assert!(NetError::BadFrame("x".into()).retryable());
        assert!(!NetError::Protocol("x".into()).retryable());
        assert!(!NetError::Remote("x".into()).retryable());
        assert!(!NetError::CircuitOpen.retryable());
    }

    #[test]
    fn eof_mid_frame_is_io_not_panic() {
        let frame = encode_frame(&Message::NotFound);
        let cut = &frame[..frame.len() - 3];
        assert!(matches!(read_frame(&mut &cut[..]), Err(NetError::Io(_))));
    }
}
