//! Readiness-driven duplex framing: the fix for the full-duplex write
//! stall.
//!
//! Protocol execution over a *blocking* socket writes before it reads,
//! so a simultaneous round where both parties ship payloads larger than
//! the kernel socket buffers deadlocks — both sides stuck in `write`,
//! each waiting for the other to read. [`DuplexConn`] dissolves the
//! stall structurally: sends *spool* into a per-direction frame queue
//! instead of blocking, and every wait makes progress in **both**
//! directions whenever the kernel reports readiness, so arbitrarily
//! large simultaneous payloads drain incrementally.
//!
//! The layering keeps the state machine testable without sockets:
//!
//! - `FrameSpool` (private): the outgoing queue — encoded frames plus a
//!   write offset into the front frame. Partial-write aware; counts only
//!   the bytes the kernel actually accepted, never queued bytes, so wire
//!   accounting stays honest on every exit path.
//! - `FrameParser` (private): the incremental inbound parser. Reuses the
//!   exact header/label/bits validation of the blocking codec (shared
//!   helpers in [`crate::codec`]), so hostile input fails identically
//!   on both paths, byte for byte.
//! - `DuplexCore` (private): spool + parser over any `Read + Write` —
//!   the unit the proptests drive with mock streams that accept `k`
//!   bytes per call to simulate arbitrary partial-readiness
//!   interleavings.
//! - [`DuplexConn`]: `DuplexCore` bound to a nonblocking [`TcpStream`]
//!   with `poll(2)`-based waits (the private `reactor` module). Implements
//!   [`FrameIo`], with the frame layout and the two-phase idle/in-flight
//!   deadline semantics of the blocking codec — deadlines are poll
//!   timeouts, not stop-flag slices.
//!
//! The blocking [`FramedConn`] performs the handshake and remains the
//! client codec; every frame this module sends is byte-identical to
//! what it sends (both share one header encoder).

use crate::codec::{
    build_header, check_bits, check_header, check_label, frame_to_event, io_to_comm, FramedConn,
    HeaderFields, RawFrame, HEADER_LEN, KIND_END, KIND_OUTPUT, KIND_PROTO,
};
use crate::msg::ServiceMsg;
use crate::reactor::{poll_fds, PollFd, POLLIN, POLLOUT};
use mpest_comm::remote::{FrameIo, RemoteEvent};
use mpest_comm::CommError;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

// --- outgoing spool ---------------------------------------------------------

/// The per-direction outgoing queue: whole encoded frames, plus the
/// write offset into the front frame. FIFO — frames are never
/// reordered within a direction.
#[derive(Debug, Default)]
pub(crate) struct FrameSpool {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already accepted by the kernel.
    front_written: usize,
    /// Total unwritten bytes across the queue.
    queued: usize,
}

impl FrameSpool {
    /// Encodes and enqueues one frame (same layout as
    /// [`FramedConn::send_raw`], via the shared header encoder).
    pub(crate) fn push_frame(
        &mut self,
        kind: u8,
        round: u16,
        label: &str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError> {
        let header = build_header(kind, round, label, bits, payload.len())?;
        let mut frame = Vec::with_capacity(HEADER_LEN + label.len() + payload.len());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(label.as_bytes());
        frame.extend_from_slice(payload);
        self.queued += frame.len();
        self.frames.push_back(frame);
        Ok(())
    }

    /// Unwritten bytes still queued (the backpressure signal).
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Whether anything is still waiting to go out.
    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Writes as much as the sink will take right now. Returns the
    /// number of bytes the sink accepted (0 is a valid outcome: not
    /// ready). `WouldBlock` is progress-ending, not an error; every
    /// other I/O error propagates.
    pub(crate) fn write_step<W: Write>(&mut self, w: &mut W) -> std::io::Result<usize> {
        let mut wrote = 0;
        while let Some(front) = self.frames.front() {
            let rest = &front[self.front_written..];
            match w.write(rest) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "stream accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    wrote += n;
                    self.queued -= n;
                    self.front_written += n;
                    if self.front_written == front.len() {
                        self.frames.pop_front();
                        self.front_written = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(wrote)
    }
}

// --- incremental inbound parser ---------------------------------------------

/// Incremental frame parser: accepts bytes in arbitrary fragments and
/// emits complete [`RawFrame`]s, applying the exact validation sequence
/// of the blocking reader at the same boundaries.
#[derive(Debug)]
pub(crate) struct FrameParser {
    state: ParseState,
}

#[derive(Debug)]
enum ParseState {
    Header {
        buf: [u8; HEADER_LEN],
        got: usize,
    },
    Label {
        fields: HeaderFields,
        buf: Vec<u8>,
        got: usize,
    },
    Payload {
        fields: HeaderFields,
        label: String,
        buf: Vec<u8>,
        got: usize,
    },
}

impl Default for FrameParser {
    fn default() -> Self {
        Self {
            state: ParseState::Header {
                buf: [0; HEADER_LEN],
                got: 0,
            },
        }
    }
}

impl FrameParser {
    /// Consumes all of `bytes`, appending every completed frame to
    /// `out`.
    ///
    /// # Errors
    ///
    /// The same typed errors as the blocking reader: unknown kind,
    /// oversized payload, non-UTF-8 label, bits/payload mismatch.
    pub(crate) fn feed(
        &mut self,
        mut bytes: &[u8],
        out: &mut VecDeque<RawFrame>,
    ) -> Result<(), CommError> {
        while !bytes.is_empty() {
            match &mut self.state {
                ParseState::Header { buf, got } => {
                    let take = bytes.len().min(HEADER_LEN - *got);
                    buf[*got..*got + take].copy_from_slice(&bytes[..take]);
                    *got += take;
                    bytes = &bytes[take..];
                    if *got == HEADER_LEN {
                        let fields = check_header(buf)?;
                        self.state = ParseState::Label {
                            fields,
                            buf: vec![0; fields.label_len],
                            got: 0,
                        };
                        self.try_skip_empty(out)?;
                    }
                }
                ParseState::Label { fields, buf, got } => {
                    let take = bytes.len().min(buf.len() - *got);
                    buf[*got..*got + take].copy_from_slice(&bytes[..take]);
                    *got += take;
                    bytes = &bytes[take..];
                    if *got == buf.len() {
                        let fields = *fields;
                        let label = check_label(std::mem::take(buf))?;
                        check_bits(&label, fields.bits, fields.payload_len)?;
                        self.state = ParseState::Payload {
                            fields,
                            label,
                            buf: vec![0; fields.payload_len],
                            got: 0,
                        };
                        self.try_skip_empty(out)?;
                    }
                }
                ParseState::Payload { buf, got, .. } => {
                    let take = bytes.len().min(buf.len() - *got);
                    buf[*got..*got + take].copy_from_slice(&bytes[..take]);
                    *got += take;
                    bytes = &bytes[take..];
                    if *got == buf.len() {
                        self.emit(out);
                    }
                }
            }
        }
        Ok(())
    }

    /// Zero-length label/payload fields complete without any input
    /// byte; advance through them so an empty-payload frame is emitted
    /// as soon as its last real byte arrives.
    fn try_skip_empty(&mut self, out: &mut VecDeque<RawFrame>) -> Result<(), CommError> {
        loop {
            match &mut self.state {
                ParseState::Label { fields, buf, .. } if buf.is_empty() => {
                    let fields = *fields;
                    let label = check_label(Vec::new())?;
                    check_bits(&label, fields.bits, fields.payload_len)?;
                    self.state = ParseState::Payload {
                        fields,
                        label,
                        buf: vec![0; fields.payload_len],
                        got: 0,
                    };
                }
                ParseState::Payload { buf, .. } if buf.is_empty() => self.emit(out),
                _ => return Ok(()),
            }
        }
    }

    fn emit(&mut self, out: &mut VecDeque<RawFrame>) {
        let state = std::mem::take(self);
        let ParseState::Payload {
            fields, label, buf, ..
        } = state.state
        else {
            unreachable!("emit called outside the payload state");
        };
        out.push_back(RawFrame {
            kind: fields.kind,
            round: fields.round,
            label,
            bits: fields.bits,
            payload: buf,
        });
    }

    /// Whether a frame has started but not finished (EOF here is
    /// truncation, not a clean close).
    pub(crate) fn mid_frame(&self) -> bool {
        !matches!(self.state, ParseState::Header { got: 0, .. })
    }

    /// The typed truncation error for an EOF in the current state,
    /// labeled like the blocking reader's (`frame-header`,
    /// `frame-label`, or the frame's own label).
    pub(crate) fn truncation_error(&self) -> CommError {
        let (label, missing) = match &self.state {
            ParseState::Header { got, .. } => ("frame-header".to_string(), HEADER_LEN - got),
            ParseState::Label { buf, got, .. } => ("frame-label".to_string(), buf.len() - got),
            ParseState::Payload {
                label, buf, got, ..
            } => (label.clone(), buf.len() - got),
        };
        CommError::frame(
            &label,
            format!("stream truncated while reading {missing} byte(s)"),
        )
    }
}

// --- the duplex state machine -----------------------------------------------

/// Outcome of one inbound pump pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadStep {
    /// The source has no more bytes right now.
    WouldBlock,
    /// The peer closed cleanly (between frames).
    Eof,
}

/// Spool + parser + byte counters over any `Read + Write` pair: the
/// whole duplex state machine, socket-free and proptest-able.
#[derive(Debug, Default)]
pub(crate) struct DuplexCore {
    out: FrameSpool,
    parser: FrameParser,
    ready: VecDeque<RawFrame>,
    /// Bytes the kernel (or sink) actually accepted — never queued
    /// bytes.
    pub(crate) bytes_out: u64,
    /// Bytes actually read off the stream, including partial frames.
    pub(crate) bytes_in: u64,
    /// Spool depth gauge (value + high-water) — no-op unless the serve
    /// reactor wires it via [`DuplexCore::set_obs`]. Recording changes
    /// neither the spool nor the bytes it writes.
    spool_depth: mpest_obs::Gauge,
    /// Spooled bytes the kernel actually accepted.
    spool_drained: mpest_obs::Counter,
}

impl DuplexCore {
    /// Seeds the counters (continuing accounting from a handshake done
    /// elsewhere).
    pub(crate) fn with_counters(bytes_out: u64, bytes_in: u64) -> Self {
        Self {
            bytes_out,
            bytes_in,
            ..Self::default()
        }
    }

    /// Points the spool metrics at real registry handles (the serve
    /// reactor shares one gauge/counter pair across connections, so the
    /// gauge reads as daemon-wide spool depth).
    pub(crate) fn set_obs(&mut self, depth: mpest_obs::Gauge, drained: mpest_obs::Counter) {
        self.spool_depth = depth;
        self.spool_drained = drained;
    }

    /// Encodes and spools one frame (does not write).
    pub(crate) fn queue_frame(
        &mut self,
        kind: u8,
        round: u16,
        label: &str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError> {
        self.out.push_frame(kind, round, label, bits, payload)?;
        self.spool_depth.record(self.out.queued_bytes() as u64);
        Ok(())
    }

    /// The next fully parsed inbound frame, if any.
    pub(crate) fn take_frame(&mut self) -> Option<RawFrame> {
        self.ready.pop_front()
    }

    /// Whether a fully parsed inbound frame is already waiting.
    pub(crate) fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Whether outbound bytes are still queued.
    pub(crate) fn has_out(&self) -> bool {
        !self.out.is_empty()
    }

    /// Unwritten outbound bytes (the backpressure signal).
    pub(crate) fn queued_out_bytes(&self) -> usize {
        self.out.queued_bytes()
    }

    /// Whether an inbound frame is mid-parse.
    pub(crate) fn mid_frame(&self) -> bool {
        self.parser.mid_frame()
    }

    /// One outbound pump pass: writes what the sink will take, counts
    /// only accepted bytes. Returns bytes accepted.
    pub(crate) fn write_step<W: Write>(&mut self, w: &mut W) -> std::io::Result<usize> {
        let n = self.out.write_step(w)?;
        self.bytes_out += n as u64;
        if n > 0 {
            self.spool_drained.add(n as u64);
            self.spool_depth.record(self.out.queued_bytes() as u64);
        }
        Ok(n)
    }

    /// One inbound pump pass: reads until the source would block (or
    /// EOF), feeding the parser.
    ///
    /// # Errors
    ///
    /// Typed [`CommError`] on malformed input, EOF mid-frame, or a real
    /// I/O error.
    pub(crate) fn read_step<R: Read>(&mut self, r: &mut R) -> Result<ReadStep, CommError> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match r.read(&mut buf) {
                Ok(0) => {
                    if self.parser.mid_frame() {
                        return Err(self.parser.truncation_error());
                    }
                    return Ok(ReadStep::Eof);
                }
                Ok(n) => {
                    self.bytes_in += n as u64;
                    self.parser.feed(&buf[..n], &mut self.ready)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(ReadStep::WouldBlock)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_to_comm("frame-header", "read failed", &e)),
            }
        }
    }
}

// --- the socket-bound connection --------------------------------------------

/// A readiness-driven duplex connection over a nonblocking
/// [`TcpStream`]: [`FramedConn`]'s drop-in successor for protocol runs
/// and service conversations. Byte-identical frames, the same typed
/// failure discipline, and the same two-phase idle/in-flight deadline
/// semantics — but sends spool instead of blocking, and every wait
/// progresses both directions on kernel readiness, so simultaneous
/// rounds of any size complete.
#[derive(Debug)]
pub struct DuplexConn {
    stream: TcpStream,
    core: DuplexCore,
    /// In-flight deadline: once work is pending in either direction,
    /// this bounds the wait for the next byte of progress.
    io_timeout: Option<Duration>,
    eof: bool,
}

impl DuplexConn {
    /// Converts an established blocking connection (handshake done,
    /// counters running) into a duplex one. The socket switches to
    /// nonblocking mode; byte counters carry over, and `io_timeout`
    /// becomes the in-flight deadline.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::Frame`] if the socket rejects the mode
    /// switch.
    pub fn from_framed(
        conn: FramedConn<TcpStream>,
        io_timeout: Option<Duration>,
    ) -> Result<Self, CommError> {
        let (stream, bytes_out, bytes_in) = conn.into_parts();
        stream
            .set_nonblocking(true)
            .map_err(|e| io_to_comm("socket", "set_nonblocking failed", &e))?;
        Ok(Self {
            stream,
            core: DuplexCore::with_counters(bytes_out, bytes_in),
            io_timeout,
            eof: false,
        })
    }

    /// Bytes the kernel accepted so far (headers + payloads +
    /// preamble). Spooled-but-unwritten frames are *not* counted.
    #[must_use]
    pub fn bytes_out(&self) -> u64 {
        self.core.bytes_out
    }

    /// Bytes read off the socket so far.
    #[must_use]
    pub fn bytes_in(&self) -> u64 {
        self.core.bytes_in
    }

    /// Replaces the in-flight deadline (used to widen deadlines for a
    /// run).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) {
        self.io_timeout = timeout;
    }

    /// The raw descriptor (for registering in an external poll set).
    #[must_use]
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// One nonblocking pump pass in both directions. Returns bytes of
    /// progress (in + out).
    fn pump(&mut self) -> Result<u64, CommError> {
        let mut progress = 0u64;
        progress += self
            .core
            .write_step(&mut (&self.stream))
            .map_err(|e| io_to_comm("frame-spool", "write failed", &e))? as u64;
        if !self.eof {
            let before = self.core.bytes_in;
            if self.core.read_step(&mut (&self.stream))? == ReadStep::Eof {
                self.eof = true;
            }
            progress += self.core.bytes_in - before;
        }
        Ok(progress)
    }

    /// Receives one frame under the two-phase deadline discipline:
    /// while *nothing* is in flight in either direction the wait is
    /// bounded by `idle` (elapse surfaces as [`CommError::WouldBlock`],
    /// retryable); once work is pending, every further byte of progress
    /// must arrive within the connection's in-flight deadline. Both
    /// directions are pumped on every wakeup — this is where a
    /// simultaneous round drains.
    ///
    /// # Errors
    ///
    /// The blocking reader's typed errors, plus `WouldBlock` on an
    /// elapsed idle window and a typed timeout on a stalled transfer.
    pub fn recv_frame_patient(
        &mut self,
        idle: Option<Duration>,
    ) -> Result<Option<RawFrame>, CommError> {
        if let Some(frame) = self.core.take_frame() {
            return Ok(Some(frame));
        }
        let idle_deadline = idle.map(|t| Instant::now() + t);
        let mut flight_deadline: Option<Instant> = None;
        loop {
            let progress = self.pump()?;
            if let Some(frame) = self.core.take_frame() {
                return Ok(Some(frame));
            }
            if self.eof && !self.core.has_out() {
                // A clean close *between* frames; mid-frame EOF already
                // surfaced as a typed truncation error in the pump.
                return Ok(None);
            }
            let now = Instant::now();
            let in_flight = self.core.mid_frame() || self.core.has_out();
            if progress > 0 {
                // Progress resets the in-flight clock — the blocking
                // path's per-read timeout semantics.
                flight_deadline = None;
            }
            let deadline = if in_flight {
                if flight_deadline.is_none() {
                    flight_deadline = self.io_timeout.map(|t| now + t);
                }
                flight_deadline
            } else {
                idle_deadline
            };
            if let Some(d) = deadline {
                if now >= d {
                    if in_flight {
                        return Err(CommError::frame("duplex", "timed out waiting for the peer"));
                    }
                    return Err(CommError::WouldBlock);
                }
            }
            // After EOF only the spool can progress: poll for write
            // readiness alone (the dead read side is permanently
            // "ready" and would spin the loop).
            let mut events = if self.eof { 0 } else { POLLIN };
            if self.core.has_out() {
                events |= POLLOUT;
            }
            let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let mut fds = [PollFd::new(self.stream.as_raw_fd(), events)];
            poll_fds(&mut fds, timeout).map_err(|e| io_to_comm("duplex", "poll failed", &e))?;
        }
    }

    /// Pumps until the outgoing spool is empty — called at run and
    /// message boundaries so byte counters are deterministic and the
    /// peer is guaranteed to have been handed every frame.
    ///
    /// # Errors
    ///
    /// A typed timeout if the peer stops draining, or any pump error.
    pub fn drain(&mut self) -> Result<(), CommError> {
        let mut flight_deadline: Option<Instant> = None;
        while self.core.has_out() {
            let progress = self.pump()?;
            if !self.core.has_out() {
                break;
            }
            let now = Instant::now();
            if progress > 0 {
                flight_deadline = None;
            }
            if flight_deadline.is_none() {
                flight_deadline = self.io_timeout.map(|t| now + t);
            }
            if let Some(d) = flight_deadline {
                if now >= d {
                    return Err(CommError::frame(
                        "duplex",
                        "timed out draining the spool to the peer",
                    ));
                }
            }
            let timeout = flight_deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let mut fds = [PollFd::new(self.stream.as_raw_fd(), POLLIN | POLLOUT)];
            poll_fds(&mut fds, timeout).map_err(|e| io_to_comm("duplex", "poll failed", &e))?;
        }
        Ok(())
    }

    /// Spools one service message and opportunistically pumps (never
    /// blocks on a full kernel buffer — that is the whole point).
    ///
    /// # Errors
    ///
    /// The same encoding errors as [`FramedConn::send_msg`], plus any
    /// pump error.
    pub fn send_msg(&mut self, msg: &ServiceMsg) -> Result<(), CommError> {
        let (kind, name, bits, payload) = crate::msg::encode_service_frame(msg);
        self.core.queue_frame(kind, 0, name, bits, &payload)?;
        self.pump()?;
        Ok(())
    }

    /// Receives one service message; `Ok(None)` is a clean close.
    /// `idle` bounds the wait for the first byte (elapse =
    /// [`CommError::WouldBlock`]).
    ///
    /// # Errors
    ///
    /// Decode and deadline errors, as the blocking
    /// `recv_msg_patient`.
    pub fn recv_msg_patient(
        &mut self,
        idle: Option<Duration>,
    ) -> Result<Option<ServiceMsg>, CommError> {
        match self.recv_frame_patient(idle)? {
            None => Ok(None),
            Some(frame) => crate::msg::decode_service_frame(&frame).map(Some),
        }
    }

    /// Receives one service message, treating a clean close as
    /// [`CommError::ChannelClosed`].
    ///
    /// # Errors
    ///
    /// Same as [`DuplexConn::recv_msg_patient`], plus `ChannelClosed`.
    pub fn recv_msg_required(&mut self) -> Result<ServiceMsg, CommError> {
        self.recv_msg_patient(self.io_timeout)?
            .ok_or(CommError::ChannelClosed)
    }

    /// Whether a fully parsed message is already buffered — in which
    /// case a serving loop must *not* park on socket readiness first
    /// (the kernel may have nothing left to report).
    pub(crate) fn has_buffered(&self) -> bool {
        self.core.has_ready()
    }
}

impl FrameIo for DuplexConn {
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
        self.core
            .queue_frame(KIND_PROTO, round, label, bits, payload)?;
        self.pump()?;
        Ok(())
    }

    fn send_end(&mut self, status: Result<(), &CommError>) -> Result<(), CommError> {
        let payload = crate::codec::encode_status(status);
        self.core
            .queue_frame(KIND_END, 0, "end", (payload.len() as u64) * 8, &payload)?;
        self.pump()?;
        Ok(())
    }

    fn send_output(&mut self, payload: &[u8]) -> Result<(), CommError> {
        self.core.queue_frame(
            KIND_OUTPUT,
            0,
            "output",
            (payload.len() as u64) * 8,
            payload,
        )?;
        self.pump()?;
        Ok(())
    }

    fn recv_event(&mut self) -> Result<RemoteEvent, CommError> {
        let frame = self
            .recv_frame_patient(self.io_timeout)?
            .ok_or(CommError::ChannelClosed)?;
        frame_to_event(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::KIND_SERVICE;
    use proptest::prelude::*;

    /// A sink that accepts at most `k` bytes per `write` call and can
    /// interleave `WouldBlock` results — the mock "kernel" for partial
    /// readiness.
    struct Throttled<'a> {
        sink: &'a mut Vec<u8>,
        k: usize,
        /// Every `block_every`-th call (1-based) would block; 0 = never.
        block_every: usize,
        calls: usize,
    }

    impl Write for Throttled<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.block_every != 0 && self.calls.is_multiple_of(self.block_every) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.k.max(1));
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A source handing out at most `k` bytes per `read` call.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        k: usize,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.data.len() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = (self.data.len() - self.pos)
                .min(buf.len())
                .min(self.k.max(1));
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn frame_strategy() -> impl Strategy<Value = RawFrame> {
        let labels = ["", "s", "sketch", "col-sums", "répéter", "end"];
        (
            0u8..3,
            any::<u16>(),
            0usize..labels.len(),
            proptest::collection::vec(any::<u8>(), 0..700),
            0u64..8,
        )
            .prop_map(move |(kind_ix, round, label_ix, payload, bit_slack)| {
                let kind = [KIND_PROTO, KIND_SERVICE, KIND_OUTPUT][kind_ix as usize];
                // Any bit count that packs into the payload length is
                // legal; exercise sub-byte counts too.
                let bits = if payload.is_empty() {
                    0
                } else {
                    (payload.len() as u64) * 8 - (bit_slack % 8).min(7)
                };
                RawFrame {
                    kind,
                    round,
                    label: labels[label_ix].to_string(),
                    bits,
                    payload,
                }
            })
    }

    proptest! {
        /// The satellite contract: random interleavings of partial
        /// readiness must reassemble every frame byte-identically and
        /// never reorder frames within a direction.
        #[test]
        fn spool_reassembles_frames_under_partial_readiness(
            frames in proptest::collection::vec(frame_strategy(), 1..12),
            write_k in 1usize..40,
            read_k in 1usize..40,
            block_every in 0usize..5,
        ) {
            // `block_every == 1` would make every write call block.
            let block_every = if block_every == 1 { 0 } else { block_every };
            let mut sender = DuplexCore::default();
            for f in &frames {
                sender
                    .queue_frame(f.kind, f.round, &f.label, f.bits, &f.payload)
                    .unwrap();
            }
            let total_queued = sender.queued_out_bytes();

            // Drain the spool through the throttled sink.
            let mut wire = Vec::new();
            let mut throttle = Throttled { sink: &mut wire, k: write_k, block_every, calls: 0 };
            while sender.has_out() {
                sender.write_step(&mut throttle).unwrap();
            }
            prop_assert_eq!(sender.bytes_out as usize, total_queued);
            prop_assert_eq!(wire.len(), total_queued);

            // Reassemble through the chunked source.
            let mut receiver = DuplexCore::default();
            let mut source = Chunked { data: wire, pos: 0, k: read_k };
            loop {
                match receiver.read_step(&mut source).unwrap() {
                    ReadStep::WouldBlock if source.pos == source.data.len() => break,
                    ReadStep::WouldBlock => {}
                    ReadStep::Eof => break,
                }
            }
            prop_assert_eq!(receiver.bytes_in as usize, total_queued);
            let mut got = Vec::new();
            while let Some(f) = receiver.take_frame() {
                got.push(f);
            }
            prop_assert_eq!(got, frames);
            prop_assert!(!receiver.mid_frame());
        }

        /// EOF at any mid-frame byte boundary surfaces the blocking
        /// reader's typed truncation error, never an `Ok`.
        #[test]
        fn truncated_stream_fails_typed(
            frame in frame_strategy(),
            cut_seed in any::<u64>(),
        ) {
            let mut sender = DuplexCore::default();
            sender
                .queue_frame(frame.kind, frame.round, &frame.label, frame.bits, &frame.payload)
                .unwrap();
            let mut wire = Vec::new();
            while sender.has_out() {
                sender.write_step(&mut wire).unwrap();
            }
            // Every frame is at least HEADER_LEN bytes, so a strict
            // interior cut always exists.
            let cut = 1 + (cut_seed as usize) % (wire.len() - 1);
            let mut receiver = DuplexCore::default();
            let mut truncated = std::io::Cursor::new(wire[..cut].to_vec());
            let err = loop {
                match receiver.read_step(&mut truncated) {
                    Ok(ReadStep::Eof) => panic!("cut at {cut}: treated as clean EOF"),
                    Ok(ReadStep::WouldBlock) => {}
                    Err(e) => break e,
                }
            };
            let CommError::Frame { reason, .. } = &err else {
                panic!("cut at {cut}: expected Frame error, got {err:?}");
            };
            prop_assert!(reason.contains("truncated"), "cut at {}: {}", cut, reason);
        }
    }

    #[test]
    fn spooled_frames_are_byte_identical_to_the_blocking_codec() {
        // One encoder, one layout: what the spool emits must equal what
        // `FramedConn::send_raw` writes, byte for byte.
        struct Sink(Vec<u8>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        impl Read for Sink {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Ok(0)
            }
        }
        let mut blocking = FramedConn::new(Sink(Vec::new()));
        blocking
            .send_raw(KIND_PROTO, 7, "sketch", 21, &[1, 2, 0xF0])
            .unwrap();

        let mut core = DuplexCore::default();
        core.queue_frame(KIND_PROTO, 7, "sketch", 21, &[1, 2, 0xF0])
            .unwrap();
        let mut wire = Vec::new();
        while core.has_out() {
            core.write_step(&mut wire).unwrap();
        }
        assert_eq!(wire, blocking.stream().0);
    }

    #[test]
    fn parser_rejects_hostile_headers_like_the_blocking_reader() {
        // Unknown kind.
        let mut bad = vec![99u8; HEADER_LEN];
        bad[1] = 0;
        bad[4..12].copy_from_slice(&0u64.to_be_bytes());
        bad[12..16].copy_from_slice(&0u32.to_be_bytes());
        let mut parser = FrameParser::default();
        let err = parser.feed(&bad, &mut VecDeque::new()).unwrap_err();
        assert!(
            matches!(&err, CommError::Frame { label, reason }
                if label == "frame-header" && reason.contains("unknown frame kind")),
            "got {err:?}"
        );

        // Oversized payload is rejected before allocating.
        let mut huge = [0u8; HEADER_LEN];
        huge[0] = KIND_PROTO;
        huge[12..16].copy_from_slice(&(1u32 << 30).to_be_bytes());
        let mut parser = FrameParser::default();
        let err = parser.feed(&huge, &mut VecDeque::new()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
