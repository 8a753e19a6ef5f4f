//! The length-prefixed framed codec: how protocol messages, end
//! markers, and service messages travel over a real byte stream.
//!
//! # Connection preamble
//!
//! Each direction starts with an 8-byte preamble — magic `b"MPST"`, then
//! a codec version range `[min, max]` as two big-endian `u16`s at bytes
//! 4..6 and 6..8 — exchanged symmetrically by [`FramedConn::establish`].
//! This build speaks exactly [`VERSION`] and writes it in both slots. A
//! peer whose advertised range does not contain [`VERSION`] (including
//! an inverted range, or the legacy `max = 0` form) fails the handshake
//! with a typed [`CommError::Frame`] naming both ranges.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       1     kind        (1 = protocol message, 2 = end marker, 3 = service message,
//!                            4 = output exchange)
//! 1       1     label_len   (≤ 255)
//! 2       2     round       (big-endian u16; sender's round annotation)
//! 4       8     bits        (big-endian u64; exact logical payload bits)
//! 12      4     payload_len (big-endian u32; ≤ MAX_PAYLOAD_BYTES)
//! 16      l     label       (UTF-8)
//! 16+l    p     payload     (bit-packed, produced by mpest-comm's BitWriter)
//! ```
//!
//! Payloads are the *same bytes* the in-process executors move between
//! queues — encoded by [`mpest_comm::BitWriter`], decoded by
//! [`mpest_comm::BitReader`] — so logical bit accounting is identical to
//! a local run. The 16-byte header plus label are physical overhead,
//! billed only to the connection's byte counters.
//!
//! # Failure discipline
//!
//! A truncated, oversized, or malformed frame always surfaces as a typed
//! [`CommError::Frame`] naming the offending label (or the phase, when
//! the stream died before the label arrived): never a panic, never a
//! hang, never a partial read silently treated as data. A clean EOF
//! *between* frames is [`CommError::ChannelClosed`] — the remote
//! equivalent of the peer dropping its channel sender.

use mpest_comm::remote::{FrameIo, RemoteEvent, RemoteFrame};
use mpest_comm::{intern_label, CommError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Connection magic: the first four bytes of every direction.
pub const MAGIC: [u8; 4] = *b"MPST";
/// The one codec version this build speaks; a peer must offer it. Bump
/// on any layout change.
pub const VERSION: u16 = 6;
/// Hard cap on one frame's payload (64 MiB): a corrupt or hostile length
/// prefix fails typed instead of allocating unboundedly.
pub const MAX_PAYLOAD_BYTES: u32 = 64 << 20;
/// Byte length of the fixed frame header.
pub const HEADER_LEN: usize = 16;

/// Frame kind: a protocol message between parties.
pub const KIND_PROTO: u8 = 1;
/// Frame kind: end-of-protocol marker carrying the sender's status.
pub const KIND_END: u8 = 2;
/// Frame kind: a service-layer message (queries, reports, control).
pub const KIND_SERVICE: u8 = 3;
/// Frame kind: a party's encoded output (the post-protocol output
/// exchange; physical bytes only, never in the logical transcript).
pub const KIND_OUTPUT: u8 = 4;
/// Frame kind: a live-update service message (pushes an
/// [`UpdateMsg`](crate::msg::UpdateMsg) batch at a cached session).
pub const KIND_UPDATE: u8 = 5;

/// A framed, byte-counting connection over any `Read + Write` stream —
/// [`TcpStream`] in deployments, in-memory pipes in tests.
#[derive(Debug)]
pub struct FramedConn<S> {
    stream: S,
    bytes_out: u64,
    bytes_in: u64,
}

/// One decoded frame, header fields included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// [`KIND_PROTO`], [`KIND_END`], [`KIND_SERVICE`], or
    /// [`KIND_OUTPUT`].
    pub kind: u8,
    /// Sender's round annotation (0 for non-protocol frames).
    pub round: u16,
    /// Frame label (protocol message label or service message name).
    pub label: String,
    /// Exact logical payload bits (what the transcript bills).
    pub bits: u64,
    /// The packed payload.
    pub payload: Vec<u8>,
}

impl<S: Read + Write> FramedConn<S> {
    /// Wraps a raw stream *without* exchanging the preamble (tests that
    /// feed hand-built bytes use this; real connections use
    /// [`FramedConn::establish`]).
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            bytes_out: 0,
            bytes_in: 0,
        }
    }

    /// Wraps a stream and performs the handshake: writes this side's
    /// preamble, reads the peer's, and checks that the peer offers
    /// [`VERSION`].
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Frame`] with label `"handshake"` on a
    /// truncated preamble, wrong magic, or a peer range without
    /// [`VERSION`] (the error names both ranges).
    pub fn establish(stream: S) -> Result<Self, CommError> {
        let mut conn = Self::new(stream);
        let preamble = local_preamble();
        conn.write_all("handshake", &preamble)?;
        conn.flush("handshake")?;
        let mut peer = [0u8; 8];
        conn.read_exact_ctx("handshake", &mut peer)?;
        check_version(&peer)?;
        Ok(conn)
    }

    /// Total bytes written to the stream so far (headers + payloads +
    /// preamble) — the *real* cost of the conversation.
    #[must_use]
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Total bytes read from the stream so far.
    #[must_use]
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// The underlying stream (e.g. to clone a [`TcpStream`] handle).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// Decomposes the connection into `(stream, bytes_out, bytes_in)` —
    /// how an established blocking connection hands its socket and byte
    /// counters over to the duplex layer without losing accounting.
    pub(crate) fn into_parts(self) -> (S, u64, u64) {
        (self.stream, self.bytes_out, self.bytes_in)
    }

    fn write_all(&mut self, label: &str, bytes: &[u8]) -> Result<(), CommError> {
        self.stream
            .write_all(bytes)
            .map_err(|e| io_to_comm(label, "write failed", &e))?;
        self.bytes_out += bytes.len() as u64;
        Ok(())
    }

    fn flush(&mut self, label: &str) -> Result<(), CommError> {
        self.stream
            .flush()
            .map_err(|e| io_to_comm(label, "flush failed", &e))
    }

    fn read_exact_ctx(&mut self, label: &str, buf: &mut [u8]) -> Result<(), CommError> {
        self.stream.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CommError::frame(
                    label,
                    format!("stream truncated while reading {} byte(s)", buf.len()),
                )
            } else {
                io_to_comm(label, "read failed", &e)
            }
        })?;
        self.bytes_in += buf.len() as u64;
        Ok(())
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Frame`] if the label or payload exceeds the
    /// codec caps, or on any stream failure.
    pub fn send_raw(
        &mut self,
        kind: u8,
        round: u16,
        label: &str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError> {
        let header = build_header(kind, round, label, bits, payload.len())?;
        self.write_all(label, &header)?;
        self.write_all(label, label.as_bytes())?;
        self.write_all(label, payload)?;
        self.flush(label)
    }

    /// Receives one frame; `Ok(None)` is a clean EOF *before* any header
    /// byte (the peer closed between frames).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Frame`] on truncation at any boundary
    /// (mid-header, mid-label, mid-payload), an unknown kind, an
    /// oversized payload, or a non-UTF-8 label — always naming the
    /// offending label or the best-known phase.
    pub fn recv_raw(&mut self) -> Result<Option<RawFrame>, CommError> {
        let mut header = [0u8; HEADER_LEN];
        // A clean close before any header byte is a normal end of
        // conversation; truncation *inside* the header is not.
        match self.stream.read(&mut header) {
            Ok(0) => Ok(None),
            Ok(n) => {
                self.bytes_in += n as u64;
                self.finish_frame(header, n).map(Some)
            }
            Err(e) => Err(io_to_comm("frame-header", "read failed", &e)),
        }
    }

    /// Reads the rest of a frame whose header's first `got` bytes are
    /// already in `header` (the shared tail of [`FramedConn::recv_raw`]
    /// and the two-phase-deadline variant).
    fn finish_frame(
        &mut self,
        mut header: [u8; HEADER_LEN],
        got: usize,
    ) -> Result<RawFrame, CommError> {
        if got < HEADER_LEN {
            self.read_exact_ctx("frame-header", &mut header[got..])?;
        }
        let fields = check_header(&header)?;
        let mut label_bytes = vec![0u8; fields.label_len];
        self.read_exact_ctx("frame-label", &mut label_bytes)?;
        let label = check_label(label_bytes)?;
        check_bits(&label, fields.bits, fields.payload_len)?;
        let mut payload = vec![0u8; fields.payload_len];
        self.read_exact_ctx(&label, &mut payload)?;
        Ok(RawFrame {
            kind: fields.kind,
            round: fields.round,
            label,
            bits: fields.bits,
            payload,
        })
    }

    /// Like [`FramedConn::recv_raw`], but treats a clean EOF as
    /// [`CommError::ChannelClosed`] (for callers that still expect data).
    ///
    /// # Errors
    ///
    /// Same as [`FramedConn::recv_raw`], plus `ChannelClosed` on EOF.
    pub fn recv_required(&mut self) -> Result<RawFrame, CommError> {
        self.recv_raw()?.ok_or(CommError::ChannelClosed)
    }
}

impl FramedConn<TcpStream> {
    /// Connects to `addr`, disables Nagle (frames are latency-bound),
    /// applies `io_timeout` to both directions *before* the handshake —
    /// a peer that accepts but never writes its preamble (wrong service,
    /// wedged host) surfaces as a typed error, not a hang — and performs
    /// the version handshake.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Frame`] on connection or handshake failure.
    pub fn connect(addr: &str, io_timeout: Option<Duration>) -> Result<Self, CommError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| io_to_comm("connect", &format!("cannot connect to {addr}"), &e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| io_to_comm("connect", "set_nodelay failed", &e))?;
        stream
            .set_read_timeout(io_timeout)
            .and_then(|()| stream.set_write_timeout(io_timeout))
            .map_err(|e| io_to_comm("connect", "socket options failed", &e))?;
        Self::establish(stream)
    }

    /// Accept-side handshake over an already-accepted stream.
    ///
    /// # Errors
    ///
    /// Same as [`FramedConn::establish`].
    pub fn accept(stream: TcpStream) -> Result<Self, CommError> {
        stream
            .set_nodelay(true)
            .map_err(|e| io_to_comm("accept", "set_nodelay failed", &e))?;
        Self::establish(stream)
    }

    /// Bounds every blocking read so a dead peer surfaces as a typed
    /// error instead of a hang.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Frame`] if the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CommError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| io_to_comm("socket", "set_read_timeout failed", &e))
    }

    /// Receives one frame like [`FramedConn::recv_raw`], but with a
    /// two-phase read deadline: while *waiting* for the frame's first
    /// bytes the socket uses `idle` (`None` = block indefinitely — a
    /// client parked between queries, or a server still computing a
    /// reply, is not an error), and once the first header bytes arrive
    /// the rest of the frame is bounded by `frame_timeout` (a peer that
    /// starts a frame must keep the bytes coming).
    ///
    /// The socket's read timeout is left at `frame_timeout` on return;
    /// each call re-applies its own `idle` deadline first.
    ///
    /// # Errors
    ///
    /// Same as [`FramedConn::recv_raw`], plus socket-option failures.
    /// An elapsed `idle` window with *no* frame started surfaces as
    /// [`CommError::WouldBlock`] — a retryable "nothing arrived yet"
    /// signal, so serve loops can poll a stop flag between slices —
    /// while a timeout *mid-frame* stays a typed [`CommError::Frame`].
    pub fn recv_raw_patient(
        &mut self,
        idle: Option<Duration>,
        frame_timeout: Option<Duration>,
    ) -> Result<Option<RawFrame>, CommError> {
        self.set_read_timeout(idle)?;
        let mut header = [0u8; HEADER_LEN];
        match self.stream.read(&mut header) {
            Ok(0) => Ok(None),
            Ok(n) => {
                self.bytes_in += n as u64;
                self.set_read_timeout(frame_timeout)?;
                self.finish_frame(header, n).map(Some)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Err(CommError::WouldBlock)
            }
            Err(e) => Err(io_to_comm("frame-header", "read failed", &e)),
        }
    }
}

/// The validated fields of a 16-byte frame header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeaderFields {
    pub(crate) kind: u8,
    pub(crate) label_len: usize,
    pub(crate) round: u16,
    pub(crate) bits: u64,
    pub(crate) payload_len: usize,
}

/// Builds and validates a frame header — the single encoder both the
/// blocking [`FramedConn::send_raw`] path and the duplex spool share, so
/// the wire layout cannot drift between them.
pub(crate) fn build_header(
    kind: u8,
    round: u16,
    label: &str,
    bits: u64,
    payload_len: usize,
) -> Result<[u8; HEADER_LEN], CommError> {
    let label_len = u8::try_from(label.len())
        .map_err(|_| CommError::frame(label, format!("label of {} bytes", label.len())))?;
    let payload_len = u32::try_from(payload_len)
        .ok()
        .filter(|&len| len <= MAX_PAYLOAD_BYTES)
        .ok_or_else(|| CommError::frame(label, format!("payload of {payload_len} bytes")))?;
    let mut header = [0u8; HEADER_LEN];
    header[0] = kind;
    header[1] = label_len;
    header[2..4].copy_from_slice(&round.to_be_bytes());
    header[4..12].copy_from_slice(&bits.to_be_bytes());
    header[12..16].copy_from_slice(&payload_len.to_be_bytes());
    Ok(header)
}

/// Validates a complete frame header (known kind, payload under the
/// cap) — shared by the blocking reader and the incremental duplex
/// parser so hostile input fails identically on both paths.
pub(crate) fn check_header(header: &[u8; HEADER_LEN]) -> Result<HeaderFields, CommError> {
    let kind = header[0];
    if !matches!(
        kind,
        KIND_PROTO | KIND_END | KIND_SERVICE | KIND_OUTPUT | KIND_UPDATE
    ) {
        return Err(CommError::frame(
            "frame-header",
            format!("unknown frame kind {kind}"),
        ));
    }
    let payload_len = u32::from_be_bytes(header[12..16].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(CommError::frame(
            "frame-header",
            format!("payload length {payload_len} exceeds the {MAX_PAYLOAD_BYTES}-byte cap"),
        ));
    }
    Ok(HeaderFields {
        kind,
        label_len: usize::from(header[1]),
        round: u16::from_be_bytes([header[2], header[3]]),
        bits: u64::from_be_bytes(header[4..12].try_into().expect("8 bytes")),
        payload_len: payload_len as usize,
    })
}

/// Validates a frame's label bytes as UTF-8.
pub(crate) fn check_label(label_bytes: Vec<u8>) -> Result<String, CommError> {
    String::from_utf8(label_bytes)
        .map_err(|_| CommError::frame("frame-label", "label is not UTF-8"))
}

/// The logical bit count must fit in the payload that carries it;
/// a mismatch means the stream is corrupt or lying.
pub(crate) fn check_bits(label: &str, bits: u64, payload_len: usize) -> Result<(), CommError> {
    if bits.div_ceil(8) != payload_len as u64 {
        return Err(CommError::frame(
            label,
            format!("{bits} logical bits do not pack into {payload_len} payload byte(s)"),
        ));
    }
    Ok(())
}

/// Maps one received frame onto the [`FrameIo`] event vocabulary — the
/// shared tail of the blocking and duplex `recv_event` implementations.
pub(crate) fn frame_to_event(frame: RawFrame) -> Result<RemoteEvent, CommError> {
    match frame.kind {
        KIND_PROTO => Ok(RemoteEvent::Frame(RemoteFrame {
            round: frame.round,
            label: frame.label,
            bits: frame.bits,
            payload: frame.payload,
        })),
        KIND_END => Ok(RemoteEvent::End(decode_status(&frame.payload)?)),
        KIND_OUTPUT => Ok(RemoteEvent::Output(frame.payload)),
        _ => {
            // A peer that failed *before* its executor started (e.g.
            // input validation) never sends an end marker — it ships
            // its error as a run-result service message instead.
            // Surface that real failure rather than a generic
            // mid-protocol frame error.
            if frame.label == "run-result" {
                let mut r = mpest_comm::BitReader::new(&frame.payload);
                if let Ok(crate::msg::ServiceMsg::RunResult(res)) =
                    crate::msg::ServiceMsg::decode_body(&frame.label, &mut r)
                {
                    return Err(match res.error {
                        Some(err) => CommError::protocol(format!(
                            "remote party failed before the protocol started: {err}"
                        )),
                        None => CommError::frame("run-result", "peer ended the run mid-protocol"),
                    });
                }
            }
            Err(CommError::frame(
                &frame.label,
                "service frame arrived mid-protocol",
            ))
        }
    }
}

/// The 8-byte preamble this build writes: magic, then [`VERSION`] as
/// both ends of the offered range (see the module docs).
pub(crate) fn local_preamble() -> [u8; 8] {
    let mut preamble = [0u8; 8];
    preamble[..4].copy_from_slice(&MAGIC);
    preamble[4..6].copy_from_slice(&VERSION.to_be_bytes());
    preamble[6..8].copy_from_slice(&VERSION.to_be_bytes());
    preamble
}

/// Validates a peer's 8-byte preamble: the right magic and a version
/// range containing [`VERSION`] — the shared check of
/// [`FramedConn::establish`] and the reactor's nonblocking handshake.
pub(crate) fn check_version(peer: &[u8; 8]) -> Result<(), CommError> {
    if peer[..4] != MAGIC {
        return Err(CommError::frame(
            "handshake",
            format!("bad magic {:?} (expected {MAGIC:?})", &peer[..4]),
        ));
    }
    let peer_min = u16::from_be_bytes([peer[4], peer[5]]);
    let peer_max = u16::from_be_bytes([peer[6], peer[7]]);
    if !(peer_min..=peer_max).contains(&VERSION) {
        return Err(CommError::frame(
            "handshake",
            format!(
                "no common codec version: this build speaks v{VERSION}..=v{VERSION}, \
                 peer offers v{peer_min}..=v{peer_max}"
            ),
        ));
    }
    Ok(())
}

pub(crate) fn io_to_comm(label: &str, what: &str, e: &std::io::Error) -> CommError {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        CommError::frame(label, format!("{what}: timed out waiting for the peer"))
    } else {
        CommError::frame(label, format!("{what}: {e}"))
    }
}

// --- end-marker status encoding --------------------------------------------

/// Encodes an end-of-protocol status (`Ok` or a party's [`CommError`])
/// into an end frame's payload.
#[must_use]
pub fn encode_status(status: Result<(), &CommError>) -> Vec<u8> {
    fn push_str(out: &mut Vec<u8>, s: &str) {
        // Truncate on a char boundary: a raw byte slice could split a
        // multi-byte character and make the receiver reject the whole
        // status as non-UTF-8, replacing the real error with a frame one.
        let mut end = s.len().min(u16::MAX as usize);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let bytes = &s.as_bytes()[..end];
        out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
        out.extend_from_slice(bytes);
    }
    let mut out = Vec::new();
    match status {
        Ok(()) => out.push(0),
        Err(CommError::Decode(m)) => {
            out.push(1);
            push_str(&mut out, m);
        }
        Err(CommError::LabelMismatch { expected, got }) => {
            out.push(2);
            push_str(&mut out, expected);
            push_str(&mut out, got);
        }
        Err(CommError::ChannelClosed) => out.push(3),
        Err(CommError::Protocol(m)) => {
            out.push(4);
            push_str(&mut out, m);
        }
        Err(CommError::Frame { label, reason }) => {
            out.push(5);
            push_str(&mut out, label);
            push_str(&mut out, reason);
        }
        // The internal fused-executor signal never crosses a process
        // boundary; encode it as a generic protocol error if it somehow
        // reaches here.
        Err(CommError::WouldBlock) => {
            out.push(4);
            push_str(&mut out, "internal WouldBlock signal escaped");
        }
    }
    out
}

/// Decodes an end frame's payload back into a status.
///
/// # Errors
///
/// Returns [`CommError::Frame`] on a malformed status payload.
pub fn decode_status(payload: &[u8]) -> Result<Result<(), CommError>, CommError> {
    fn take_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, CommError> {
        if buf.len() < 2 {
            return Err(CommError::frame("end", "truncated status string length"));
        }
        let len = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
        if buf.len() < 2 + len {
            return Err(CommError::frame("end", "truncated status string"));
        }
        let s = std::str::from_utf8(&buf[2..2 + len])
            .map_err(|_| CommError::frame("end", "status string is not UTF-8"))?;
        *buf = &buf[2 + len..];
        Ok(s)
    }
    let Some((&tag, mut rest)) = payload.split_first() else {
        return Err(CommError::frame("end", "empty status payload"));
    };
    Ok(match tag {
        0 => Ok(()),
        1 => Err(CommError::decode(take_str(&mut rest)?.to_owned())),
        2 => {
            let expected = intern_label(take_str(&mut rest)?)?;
            let got = intern_label(take_str(&mut rest)?)?;
            Err(CommError::LabelMismatch { expected, got })
        }
        3 => Err(CommError::ChannelClosed),
        4 => Err(CommError::protocol(take_str(&mut rest)?.to_owned())),
        5 => {
            let label = take_str(&mut rest)?.to_owned();
            let reason = take_str(&mut rest)?.to_owned();
            Err(CommError::Frame { label, reason })
        }
        other => {
            return Err(CommError::frame(
                "end",
                format!("unknown status tag {other}"),
            ))
        }
    })
}

impl<S: Read + Write> FrameIo for FramedConn<S> {
    fn send_frame(
        &mut self,
        round: u16,
        label: &str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError> {
        debug_assert_eq!(
            bits.div_ceil(8),
            payload.len() as u64,
            "logical bits must pack exactly into the payload"
        );
        self.send_raw(KIND_PROTO, round, label, bits, payload)
    }

    fn send_end(&mut self, status: Result<(), &CommError>) -> Result<(), CommError> {
        let payload = encode_status(status);
        self.send_raw(KIND_END, 0, "end", (payload.len() as u64) * 8, &payload)
    }

    fn send_output(&mut self, payload: &[u8]) -> Result<(), CommError> {
        self.send_raw(
            KIND_OUTPUT,
            0,
            "output",
            (payload.len() as u64) * 8,
            payload,
        )
    }

    fn recv_event(&mut self) -> Result<RemoteEvent, CommError> {
        frame_to_event(self.recv_required()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A loopback stream: writes append to an owned buffer, reads
    /// consume a separate pre-seeded buffer.
    #[derive(Debug)]
    struct Loopback {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Loopback {
        fn reading(bytes: Vec<u8>) -> Self {
            Self {
                input: Cursor::new(bytes),
                output: Vec::new(),
            }
        }
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Encodes one protocol frame to raw bytes.
    fn frame_bytes(round: u16, label: &str, bits: u64, payload: &[u8]) -> Vec<u8> {
        let mut conn = FramedConn::new(Loopback::reading(Vec::new()));
        conn.send_raw(KIND_PROTO, round, label, bits, payload)
            .unwrap();
        conn.stream.output.clone()
    }

    #[test]
    fn frame_roundtrip_counts_bytes() {
        let bytes = frame_bytes(3, "sketch", 12, &[0xAB, 0xC0]);
        assert_eq!(bytes.len(), HEADER_LEN + "sketch".len() + 2);
        let mut conn = FramedConn::new(Loopback::reading(bytes.clone()));
        let frame = conn.recv_raw().unwrap().unwrap();
        assert_eq!(frame.kind, KIND_PROTO);
        assert_eq!(frame.round, 3);
        assert_eq!(frame.label, "sketch");
        assert_eq!(frame.bits, 12);
        assert_eq!(frame.payload, vec![0xAB, 0xC0]);
        assert_eq!(conn.bytes_in(), bytes.len() as u64);
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let mut conn = FramedConn::new(Loopback::reading(Vec::new()));
        assert!(conn.recv_raw().unwrap().is_none());
    }

    /// The satellite contract: truncation at *every* byte boundary of a
    /// frame surfaces a typed `CommError::Frame` with the best-known
    /// label — never a panic, never an `Ok`.
    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let full = frame_bytes(1, "col-sums", 20, &[1, 2, 3]);
        for cut in 1..full.len() {
            let mut conn = FramedConn::new(Loopback::reading(full[..cut].to_vec()));
            let err = conn.recv_raw().expect_err(&format!("cut at {cut}"));
            let CommError::Frame { label, reason } = &err else {
                panic!("cut at {cut}: expected Frame error, got {err:?}");
            };
            assert!(
                reason.contains("truncated"),
                "cut at {cut}: reason {reason:?}"
            );
            // Once the label bytes are in, the error names the label; any
            // earlier it names the phase that died.
            if cut >= HEADER_LEN + "col-sums".len() {
                assert_eq!(label, "col-sums", "cut at {cut}");
            } else {
                assert!(
                    label == "frame-header" || label == "frame-label",
                    "cut at {cut}: label {label:?}"
                );
            }
        }
    }

    #[test]
    fn oversized_payload_is_rejected_without_allocating() {
        let mut bytes = frame_bytes(0, "big", 8, &[0xFF]);
        // Corrupt the payload length to 1 GiB.
        bytes[12..16].copy_from_slice(&(1u32 << 30).to_be_bytes());
        let mut conn = FramedConn::new(Loopback::reading(bytes));
        let err = conn.recv_raw().unwrap_err();
        assert!(
            matches!(&err, CommError::Frame { label, reason }
                if label == "frame-header" && reason.contains("exceeds")),
            "got {err:?}"
        );
    }

    #[test]
    fn bits_payload_mismatch_is_rejected() {
        // 9 logical bits cannot pack into 1 byte.
        let mut bytes = frame_bytes(0, "lie", 8, &[0xFF]);
        bytes[4..12].copy_from_slice(&9u64.to_be_bytes());
        let mut conn = FramedConn::new(Loopback::reading(bytes));
        let err = conn.recv_raw().unwrap_err();
        assert!(
            matches!(&err, CommError::Frame { label, .. } if label == "lie"),
            "got {err:?}"
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut bytes = frame_bytes(0, "x", 8, &[1]);
        bytes[0] = 99;
        let mut conn = FramedConn::new(Loopback::reading(bytes));
        assert!(matches!(
            conn.recv_raw().unwrap_err(),
            CommError::Frame { .. }
        ));
    }

    #[test]
    fn handshake_rejects_bad_magic_and_truncation() {
        // Peer preamble with wrong magic.
        let mut peer = Vec::new();
        peer.extend_from_slice(b"NOPE");
        peer.extend_from_slice(&VERSION.to_be_bytes());
        peer.extend_from_slice(&VERSION.to_be_bytes());
        let err = FramedConn::establish(Loopback::reading(peer)).unwrap_err();
        assert!(
            matches!(&err, CommError::Frame { label, reason }
                if label == "handshake" && reason.contains("magic")),
            "got {err:?}"
        );

        // Truncated preamble.
        let err = FramedConn::establish(Loopback::reading(MAGIC.to_vec())).unwrap_err();
        assert!(
            matches!(&err, CommError::Frame { label, .. } if label == "handshake"),
            "got {err:?}"
        );
    }

    /// The single-version check: a peer is accepted exactly when its
    /// advertised range contains [`VERSION`]. `2..=6` is what a build
    /// that still negotiated v2–v5 offers, so such peers keep working.
    #[test]
    fn handshake_accepts_only_ranges_containing_this_version() {
        // (peer min, peer max on the wire, accepted).
        let table: [(u16, u16, bool); 6] = [
            (6, 6, true),  // this build
            (2, 6, true),  // a build that still negotiated v2..=v6
            (2, 0, false), // legacy exact-v2 form: zeros in the max slot
            (2, 5, false), // a v5 build
            (7, 8, false), // a future build that dropped v6
            (5, 4, false), // inverted range
        ];
        for (min, max, accepted) in table {
            let mut peer = MAGIC.to_vec();
            peer.extend_from_slice(&min.to_be_bytes());
            peer.extend_from_slice(&max.to_be_bytes());
            let result = FramedConn::establish(Loopback::reading(peer));
            if accepted {
                let conn = result.unwrap_or_else(|e| panic!("peer v{min}..=v{max}: {e}"));
                // This side's own preamble went out, offering v6..=v6.
                assert_eq!(conn.stream.output, local_preamble());
                continue;
            }
            let err = result.expect_err(&format!("peer v{min}..=v{max} accepted"));
            let CommError::Frame { label, reason } = &err else {
                panic!("peer v{min}..=v{max}: expected a Frame error, got {err:?}");
            };
            assert_eq!(label, "handshake");
            assert!(
                reason.contains(&format!("v{VERSION}..=v{VERSION}"))
                    && reason.contains(&format!("v{min}..=v{max}")),
                "peer v{min}..=v{max}: both ranges must be named in {reason:?}"
            );
        }
    }

    #[test]
    fn status_roundtrips() {
        let statuses: Vec<Result<(), CommError>> = vec![
            Ok(()),
            Err(CommError::decode("bad varint")),
            Err(CommError::LabelMismatch {
                expected: "a",
                got: "b",
            }),
            Err(CommError::ChannelClosed),
            Err(CommError::protocol("dims")),
            Err(CommError::frame("lbl", "truncated")),
        ];
        for status in &statuses {
            let bytes = encode_status(status.as_ref().copied());
            assert_eq!(&decode_status(&bytes).unwrap(), status);
        }
        assert!(decode_status(&[]).is_err());
        assert!(decode_status(&[9]).is_err());
        assert!(decode_status(&[1, 0]).is_err(), "truncated string length");
    }

    #[test]
    fn oversized_status_truncates_on_a_char_boundary() {
        // A status string beyond the u16 length cap whose cut point
        // lands mid-character: the encoded form must still decode as
        // valid UTF-8 (a shortened real message, not a frame error).
        let long = "é".repeat(40_000); // 2 bytes each; 80_000 > u16::MAX (odd cut)
        let status: Result<(), CommError> = Err(CommError::protocol(long.clone()));
        let bytes = encode_status(status.as_ref().copied());
        let decoded = decode_status(&bytes).unwrap().unwrap_err();
        let msg = decoded.to_string();
        assert!(msg.contains('é'), "truncated message kept its content");
        assert!(msg.len() < long.len(), "message was truncated");
    }
}
