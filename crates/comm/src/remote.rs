//! Remote execution: one party of a two-party protocol running against a
//! peer in **another process**, linked by a real byte stream.
//!
//! The fused executor (see [`crate::exec`]) schedules both party
//! functions on one thread; every "message" is a queue push. This module
//! is the other executor: the calling process runs exactly one party,
//! every [`Link::send`] becomes a framed write on a [`FrameIo`] transport
//! (a TCP socket in `mpest-net`), and every [`Link::recv`] a framed
//! blocking read. The peer process runs the complementary party over the
//! same stream. [`ExecBackend::Threaded`](crate::ExecBackend::Threaded)
//! is this executor too: both parties on two scoped threads of one
//! process, linked by an in-memory pipe instead of a socket.
//!
//! # The bit-identity contract
//!
//! Remote runs are **bit-identical** to in-process runs — outputs at the
//! party that produces them, and the full two-sided transcript at *both*
//! parties:
//!
//! * payloads are encoded by the same [`BitWriter`]
//!   path, so a message's logical bit count is the same number the fused
//!   executor would have recorded;
//! * frame headers carry the sender's round annotation and exact bit
//!   count, so the *receiver* can reconstruct the peer's transcript
//!   records without a side channel (headers are physical overhead — they
//!   are billed to the transport's byte counters, never to the logical
//!   transcript);
//! * after a party function returns (or fails), the executor performs an
//!   *end exchange*: it sends an end-of-protocol marker carrying its
//!   status and drains the peer's remaining frames (recording any it
//!   never consumed), so both sides terminate with the complete record
//!   and a peer failure surfaces as a typed error instead of a hang.
//!
//! Error resolution mirrors the fused backend's: a party's real
//! error is preferred over the [`CommError::ChannelClosed`] echo its peer
//! observes.
//!
//! Once both statuses are `Ok`, the two processes exchange their
//! parties' *outputs* (encoded through the same [`Wire`] trait the
//! messages use — which is why remote-capable party outputs must be
//! `Wire`), so the returned
//! [`ExecutionOutcome`] is complete on **both**
//! sides, exactly as if the protocol had run in one process. Output
//! delivery is not protocol communication: it is billed to the
//! transport's byte counters, never to the logical transcript — the
//! in-process executors return outputs for free the same way. (This
//! also keeps wrapper code honest: protocols like the at-least-T join
//! chain a sub-protocol whose output parameterizes the next phase, and
//! both processes need that value to stay in lockstep.)

use crate::bits::{BitReader, BitWriter};
use crate::channel::{canonicalize, resolve_party_results, ExecutionOutcome, Link};
use crate::error::CommError;
use crate::transcript::{MsgRecord, Party, Transcript};
use crate::wire::Wire;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::resume_unwind;
use std::sync::{mpsc, Mutex, OnceLock};

/// Longest label accepted from the wire (the library's own labels are
/// all far shorter).
pub const MAX_LABEL_LEN: usize = 255;

/// Most distinct labels the interner will ever register. Honest
/// deployments use a few dozen; the cap turns a corrupt or hostile
/// stream full of fabricated labels into a typed decode error instead
/// of unbounded leaked memory in a long-lived daemon.
pub const MAX_INTERNED_LABELS: usize = 4096;

/// Returns a `&'static str` equal to `s`, leaking each distinct label at
/// most once. Transcript records and label-mismatch errors carry
/// `&'static str` labels (zero-cost on the in-process hot path); frames
/// arriving from another process carry labels as bytes, so the decode
/// side interns them. [`MAX_LABEL_LEN`] bounds each entry and
/// [`MAX_INTERNED_LABELS`] bounds the registry, so the total leak is
/// capped at ~1 MiB no matter what a peer streams.
///
/// # Errors
///
/// Returns [`CommError::Decode`] if the label exceeds [`MAX_LABEL_LEN`]
/// or the registry is full.
pub fn intern_label(s: &str) -> Result<&'static str, CommError> {
    if s.len() > MAX_LABEL_LEN {
        return Err(CommError::decode(format!(
            "label of {} bytes exceeds the {MAX_LABEL_LEN}-byte cap",
            s.len()
        )));
    }
    static REGISTRY: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut set = REGISTRY
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("label registry poisoned");
    if let Some(&interned) = set.get(s) {
        return Ok(interned);
    }
    if set.len() >= MAX_INTERNED_LABELS {
        return Err(CommError::decode(format!(
            "label registry full ({MAX_INTERNED_LABELS} distinct labels): \
             refusing to intern {s:?} from a suspect stream"
        )));
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    Ok(leaked)
}

/// One protocol message as it crosses a process boundary: the sender's
/// round annotation and exact logical bit count ride in the frame header
/// so the receiver can reconstruct the sender's transcript record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteFrame {
    /// Round the sender annotated the message with.
    pub round: u16,
    /// Message label (owned — it crossed a process boundary).
    pub label: String,
    /// Exact logical payload size in bits (the transcript-billed count).
    pub bits: u64,
    /// The packed payload bytes (`⌈bits/8⌉` of them).
    pub payload: Vec<u8>,
}

/// What a [`FrameIo::recv_event`] call can observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteEvent {
    /// A protocol message from the peer.
    Frame(RemoteFrame),
    /// The peer's end-of-protocol marker: `Ok(())` if its party function
    /// returned, otherwise the error it failed with.
    End(Result<(), CommError>),
    /// The peer party's encoded output (the post-protocol output
    /// exchange; never part of the logical transcript).
    Output(Vec<u8>),
}

/// A framed, bidirectional, FIFO byte transport linking this process to
/// the peer party. `mpest-net` implements it over TCP with a
/// length-prefixed, versioned codec; the threaded backend over an
/// in-memory pipe.
///
/// The contract is *completion*, not blocking. A blocking implementation
/// (`mpest-net`'s `FramedConn`) writes and reads synchronously, so two
/// parties that both send before reading can stall once their payloads
/// overflow the kernel socket buffers (surfaced as a typed
/// write-timeout). The readiness-driven implementation every `mpest-net`
/// host and initiator runs on (`DuplexConn`)
/// instead *spools* sends and progresses both directions on kernel
/// readiness inside every wait, so a send may return before its bytes
/// hit the wire — but frames still arrive in order, byte-identical,
/// and simultaneous rounds of any size complete. Callers must not
/// assume a returned send has been flushed; only protocol completion
/// (the end/output exchange) orders the conversation.
pub trait FrameIo {
    /// Ships one protocol message to the peer.
    ///
    /// # Errors
    ///
    /// Returns a [`CommError::Frame`] (or [`CommError::ChannelClosed`])
    /// if the transport failed.
    fn send_frame(
        &mut self,
        round: u16,
        label: &str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError>;

    /// Ships the end-of-protocol marker with this party's status.
    ///
    /// # Errors
    ///
    /// Same contract as [`FrameIo::send_frame`].
    fn send_end(&mut self, status: Result<(), &CommError>) -> Result<(), CommError>;

    /// Ships this party's encoded output (the post-protocol output
    /// exchange).
    ///
    /// # Errors
    ///
    /// Same contract as [`FrameIo::send_frame`].
    fn send_output(&mut self, payload: &[u8]) -> Result<(), CommError>;

    /// Blocks for the next event from the peer.
    ///
    /// # Errors
    ///
    /// Returns a [`CommError::Frame`] on a truncated, oversized, or
    /// otherwise malformed frame, [`CommError::ChannelClosed`] if the
    /// peer hung up cleanly between frames.
    fn recv_event(&mut self) -> Result<RemoteEvent, CommError>;
}

/// The remote counterpart of an executor backend: which party this
/// process plays, plus the transport to the peer. Borrowed into
/// [`Exec::Remote`](crate::exec::Exec) so the existing
/// `execute_with`-based protocol implementations run remotely without
/// any per-protocol change.
pub struct RemoteCtx<'io> {
    side: Party,
    io: RefCell<&'io mut dyn FrameIo>,
}

impl fmt::Debug for RemoteCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteCtx")
            .field("side", &self.side)
            .finish_non_exhaustive()
    }
}

impl<'io> RemoteCtx<'io> {
    /// Builds the context for the party `side` running in this process.
    pub fn new(side: Party, io: &'io mut dyn FrameIo) -> Self {
        Self {
            side,
            io: RefCell::new(io),
        }
    }

    /// Which party this process plays.
    #[must_use]
    pub fn side(&self) -> Party {
        self.side
    }
}

/// Endpoint interface the [`Link`] dispatches through (object-safe so the
/// link stays a single-lifetime type).
pub(crate) trait RemoteEndpoint {
    fn side(&self) -> Party;
    fn send_encoded(
        &self,
        round: u16,
        label: &'static str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError>;
    fn recv_expect(&self, expect: &'static str) -> Result<RemoteFrame, CommError>;
}

/// Run state of one remote party: its transcript records (own sends plus
/// reconstructed peer records) and the peer's end status once observed.
struct RemoteCore<'c, 'io> {
    side: Party,
    io: &'c RefCell<&'io mut dyn FrameIo>,
    records: RefCell<Vec<MsgRecord>>,
    peer_end: RefCell<Option<Result<(), CommError>>>,
}

impl<'c, 'io> RemoteCore<'c, 'io> {
    fn new(side: Party, io: &'c RefCell<&'io mut dyn FrameIo>) -> Self {
        Self {
            side,
            io,
            records: RefCell::new(Vec::new()),
            peer_end: RefCell::new(None),
        }
    }

    /// Records a frame received from the peer under its wire-carried
    /// round and bit count. `label` is already resolved to the static
    /// label the local state machine expected (or interned, for frames
    /// drained after the protocol).
    fn record_peer(&self, round: u16, label: &'static str, bits: u64) {
        self.records.borrow_mut().push(MsgRecord {
            from: self.side.peer(),
            round,
            label,
            bits,
        });
    }
}

impl RemoteEndpoint for RemoteCore<'_, '_> {
    fn side(&self) -> Party {
        self.side
    }

    fn send_encoded(
        &self,
        round: u16,
        label: &'static str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError> {
        self.records.borrow_mut().push(MsgRecord {
            from: self.side,
            round,
            label,
            bits,
        });
        self.io.borrow_mut().send_frame(round, label, bits, payload)
    }

    fn recv_expect(&self, expect: &'static str) -> Result<RemoteFrame, CommError> {
        if let Some(end) = self.peer_end.borrow().as_ref() {
            // The peer already declared the protocol over; a further
            // receive observes the same thing a dropped channel would.
            return Err(match end {
                Ok(()) => CommError::ChannelClosed,
                Err(e) => e.clone(),
            });
        }
        match self.io.borrow_mut().recv_event()? {
            RemoteEvent::Frame(frame) => {
                if frame.label != expect {
                    return Err(CommError::LabelMismatch {
                        expected: expect,
                        got: intern_label(&frame.label)?,
                    });
                }
                self.record_peer(frame.round, expect, frame.bits);
                Ok(frame)
            }
            RemoteEvent::End(status) => {
                let err = match &status {
                    Ok(()) => CommError::ChannelClosed,
                    Err(e) => e.clone(),
                };
                *self.peer_end.borrow_mut() = Some(status);
                Err(err)
            }
            RemoteEvent::Output(_) => Err(CommError::frame(
                expect,
                "peer output arrived while the protocol still expected a message",
            )),
        }
    }
}

impl RemoteCore<'_, '_> {
    /// The end exchange: ship this party's status, then drain the peer's
    /// remaining frames (recording any this party never consumed) until
    /// its end marker arrives, so both processes finish with the complete
    /// two-sided transcript. Returns the peer's status.
    fn end_exchange(&self, my_status: Result<(), &CommError>) -> Result<(), CommError> {
        self.io.borrow_mut().send_end(my_status)?;
        loop {
            if let Some(status) = self.peer_end.borrow().clone() {
                return status;
            }
            match self.io.borrow_mut().recv_event()? {
                RemoteEvent::Frame(frame) => {
                    // A message this party never received (e.g. it failed
                    // mid-protocol). The peer billed it when sending, so
                    // the reconstructed transcript must carry it too.
                    self.record_peer(frame.round, intern_label(&frame.label)?, frame.bits);
                }
                RemoteEvent::End(status) => {
                    *self.peer_end.borrow_mut() = Some(status.clone());
                    return status;
                }
                RemoteEvent::Output(_) => {
                    return Err(CommError::frame(
                        "end",
                        "peer output arrived before its end marker",
                    ))
                }
            }
        }
    }

    /// The post-protocol output exchange (both parties' statuses are
    /// already `Ok`): ship this party's encoded output, then block for
    /// the peer's.
    fn exchange_outputs(&self, mine: &[u8]) -> Result<Vec<u8>, CommError> {
        self.io.borrow_mut().send_output(mine)?;
        match self.io.borrow_mut().recv_event()? {
            RemoteEvent::Output(payload) => Ok(payload),
            RemoteEvent::Frame(frame) => Err(CommError::frame(
                &frame.label,
                "protocol frame arrived during the output exchange",
            )),
            RemoteEvent::End(_) => Err(CommError::frame(
                "end",
                "duplicate end marker during the output exchange",
            )),
        }
    }

    fn into_transcript(self) -> Transcript {
        let mut records = self.records.into_inner();
        canonicalize(&mut records);
        Transcript { records }
    }
}

/// Decodes a remote frame's payload as `T`, mirroring the in-process
/// decode path (including the exact-bit-consumption debug check).
pub(crate) fn decode_remote<T: Wire>(frame: &RemoteFrame) -> Result<T, CommError> {
    let mut r = BitReader::new(&frame.payload);
    let value = T::decode(&mut r)?;
    debug_assert!(
        r.bits_read() == frame.bits,
        "decoder for {:?} consumed {} of {} bits",
        frame.label,
        r.bits_read(),
        frame.bits
    );
    Ok(value)
}

/// Encodes `value` the same way the in-process backends do and hands the
/// packed bytes plus exact bit count to the endpoint.
pub(crate) fn encode_and_send<T: Wire>(
    ep: &dyn RemoteEndpoint,
    round: u16,
    label: &'static str,
    value: &T,
) -> Result<(), CommError> {
    let mut w = BitWriter::new();
    value.encode(&mut w);
    let (payload, bits) = w.finish_vec();
    ep.send_encoded(round, label, bits, &payload)
}

/// Error for a split execution that was asked to run a side whose input
/// the caller does not hold.
pub(crate) fn missing_input(side: Party) -> CommError {
    CommError::protocol(format!(
        "storage-split execution needs {side}'s input, but this party does not hold it"
    ))
}

/// Runs the `rc.side()` party of a protocol over the remote transport;
/// the peer process is expected to run the complementary party over the
/// same stream. See the module docs for the bit-identity contract and
/// the post-protocol output exchange.
pub(crate) fn execute_remote<AIn, BIn, AOut, BOut, FA, FB>(
    rc: &RemoteCtx<'_>,
    alice_in: Option<AIn>,
    bob_in: Option<BIn>,
    alice_fn: FA,
    bob_fn: FB,
) -> Result<ExecutionOutcome<AOut, BOut>, CommError>
where
    AOut: Wire,
    BOut: Wire,
    FA: Fn(&Link<'_>, AIn) -> Result<AOut, CommError>,
    FB: Fn(&Link<'_>, BIn) -> Result<BOut, CommError>,
{
    let io = &rc.io;
    let core = RemoteCore::new(rc.side, io);
    let mut alice_out: Option<AOut> = None;
    let mut bob_out: Option<BOut> = None;
    let my_res: Result<(), CommError> = {
        let link = Link::remote(&core);
        // Only this context's side runs locally, so only its input is
        // required — storage-split callers pass `None` for the peer.
        match rc.side {
            Party::Alice => alice_in
                .ok_or_else(|| missing_input(Party::Alice))
                .and_then(|input| alice_fn(&link, input))
                .map(|out| alice_out = Some(out)),
            Party::Bob => bob_in
                .ok_or_else(|| missing_input(Party::Bob))
                .and_then(|input| bob_fn(&link, input))
                .map(|out| bob_out = Some(out)),
        }
    };
    let peer_res = core.end_exchange(my_res.as_ref().copied());
    // Same preference as the in-process backends: a real error beats the
    // ChannelClosed echo the other side observes.
    let (my_slot, peer_slot) = match rc.side {
        Party::Alice => (my_res, peer_res),
        Party::Bob => (peer_res, my_res),
    };
    resolve_party_results(my_slot, peer_slot)?;
    // Both parties succeeded: exchange outputs so the outcome is as
    // complete here as an in-process run's.
    let mut w = BitWriter::new();
    match rc.side {
        Party::Alice => alice_out
            .as_ref()
            .expect("local alice output")
            .encode(&mut w),
        Party::Bob => bob_out.as_ref().expect("local bob output").encode(&mut w),
    }
    let (mine, _bits) = w.finish_vec();
    let theirs = core.exchange_outputs(&mine)?;
    let mut r = BitReader::new(&theirs);
    match rc.side {
        Party::Alice => bob_out = Some(BOut::decode(&mut r)?),
        Party::Bob => alice_out = Some(AOut::decode(&mut r)?),
    }
    Ok(ExecutionOutcome {
        alice: alice_out.expect("both outputs resolved"),
        bob: bob_out.expect("both outputs resolved"),
        transcript: core.into_transcript(),
    })
}

/// An in-memory [`FrameIo`]: one end of a pair of `mpsc` channels.
/// Events cross as values, so a peer's [`CommError`] arrives exactly as
/// it was raised; dropping an end closes it, and the peer's next receive
/// (once drained) or send observes [`CommError::ChannelClosed`].
pub(crate) struct PipeIo {
    tx: mpsc::Sender<RemoteEvent>,
    rx: mpsc::Receiver<RemoteEvent>,
}

impl PipeIo {
    /// Two connected ends: what one sends, the other receives.
    pub(crate) fn pair() -> (PipeIo, PipeIo) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (PipeIo { tx: a_tx, rx: a_rx }, PipeIo { tx: b_tx, rx: b_rx })
    }

    fn send(&self, event: RemoteEvent) -> Result<(), CommError> {
        self.tx.send(event).map_err(|_| CommError::ChannelClosed)
    }
}

impl FrameIo for PipeIo {
    fn send_frame(
        &mut self,
        round: u16,
        label: &str,
        bits: u64,
        payload: &[u8],
    ) -> Result<(), CommError> {
        self.send(RemoteEvent::Frame(RemoteFrame {
            round,
            label: label.to_owned(),
            bits,
            payload: payload.to_vec(),
        }))
    }

    fn send_end(&mut self, status: Result<(), &CommError>) -> Result<(), CommError> {
        self.send(RemoteEvent::End(status.map_err(Clone::clone)))
    }

    fn send_output(&mut self, payload: &[u8]) -> Result<(), CommError> {
        self.send(RemoteEvent::Output(payload.to_vec()))
    }

    fn recv_event(&mut self) -> Result<RemoteEvent, CommError> {
        self.rx.recv().map_err(|_| CommError::ChannelClosed)
    }
}

/// One party's view of a finished run.
type Outcome<AOut, BOut> = Result<ExecutionOutcome<AOut, BOut>, CommError>;

/// Stands in for the party function a thread of [`run_pair`] does not
/// hold: [`execute_remote`] only ever calls its own side's.
fn not_local<I, O>(_: &Link<'_>, _: I) -> Result<O, CommError> {
    unreachable!("a remote party runs only its own side's function")
}

/// Runs both parties of a protocol as [`execute_remote`] on two scoped
/// threads, Alice over the first transport end and Bob over the second,
/// and returns both outcomes (equal under the remote contract). Each
/// thread owns its transport end, its side's input and its side's
/// function, so the functions need `Send` but never `Sync`. If a party
/// panics, unwinding drops its end, the peer fails with
/// [`CommError::ChannelClosed`] instead of blocking forever, and the
/// panic is re-raised here with its original payload.
pub(crate) fn run_pair<IA, IB, AIn, BIn, AOut, BOut, FA, FB>(
    (mut a_io, mut b_io): (IA, IB),
    alice_in: AIn,
    bob_in: BIn,
    alice_fn: FA,
    bob_fn: FB,
) -> (Outcome<AOut, BOut>, Outcome<AOut, BOut>)
where
    IA: FrameIo + Send,
    IB: FrameIo + Send,
    AIn: Send,
    BIn: Send,
    AOut: Wire + Send,
    BOut: Wire + Send,
    FA: Fn(&Link<'_>, AIn) -> Result<AOut, CommError> + Send,
    FB: Fn(&Link<'_>, BIn) -> Result<BOut, CommError> + Send,
{
    let (alice, bob) = std::thread::scope(|scope| {
        let alice = scope.spawn(move || {
            let rc = RemoteCtx::new(Party::Alice, &mut a_io);
            execute_remote(&rc, Some(alice_in), None, alice_fn, not_local::<BIn, BOut>)
        });
        let bob = scope.spawn(move || {
            let rc = RemoteCtx::new(Party::Bob, &mut b_io);
            execute_remote(&rc, None, Some(bob_in), not_local::<AIn, AOut>, bob_fn)
        });
        (alice.join(), bob.join())
    });
    match (alice, bob) {
        (Ok(alice), Ok(bob)) => (alice, bob),
        (Err(panic), _) | (_, Err(panic)) => resume_unwind(panic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with;

    #[test]
    fn remote_pair_matches_fused_transcript_and_outputs() {
        let alice_fn = |link: &Link<'_>, ()| {
            link.send(0, "ping", &7u64)?;
            let pong: u64 = link.recv("pong")?;
            link.send(2, "ping", &(pong + 1))?;
            link.recv::<u64>("pong")
        };
        let bob_fn = |link: &Link<'_>, ()| {
            let a: u64 = link.recv("ping")?;
            link.send(1, "pong", &(a * 2))?;
            let b: u64 = link.recv("ping")?;
            link.send(3, "pong", &(b * 2))?;
            Ok(a + b)
        };
        let fused = execute_with(crate::ExecBackend::Fused, (), (), alice_fn, bob_fn).unwrap();
        let (alice, bob) = run_pair(PipeIo::pair(), (), (), alice_fn, bob_fn);
        let (alice, bob) = (alice.unwrap(), bob.unwrap());
        // The output exchange completes both outcomes: each process ends
        // with the full result, bit-identical to the fused run.
        assert_eq!(alice, fused);
        assert_eq!(bob, fused);
    }

    #[test]
    fn peer_error_is_preferred_over_channel_closed() {
        let alice_fn = |link: &Link<'_>, ()| link.recv::<u64>("never");
        let bob_fn = |_link: &Link<'_>, ()| -> Result<u64, CommError> {
            Err(CommError::protocol("bob bad"))
        };
        let (alice, bob) = run_pair(PipeIo::pair(), (), (), alice_fn, bob_fn);
        assert_eq!(alice.unwrap_err(), CommError::protocol("bob bad"));
        assert_eq!(bob.unwrap_err(), CommError::protocol("bob bad"));
    }

    #[test]
    fn label_mismatch_surfaces_on_the_receiving_side() {
        let alice_fn = |link: &Link<'_>, ()| link.send(0, "alpha", &1u64);
        let bob_fn = |link: &Link<'_>, ()| link.recv::<u64>("beta");
        let (alice, bob) = run_pair(PipeIo::pair(), (), (), alice_fn, bob_fn);
        let expected = CommError::LabelMismatch {
            expected: "beta",
            got: intern_label("alpha").unwrap(),
        };
        assert_eq!(bob.unwrap_err(), expected);
        // Alice's own run succeeded locally but the resolution surfaces
        // the peer's real error, as in-process resolution would.
        assert_eq!(alice.unwrap_err(), expected);
    }

    #[test]
    fn unconsumed_frames_are_drained_into_the_transcript() {
        // Alice sends two messages; Bob consumes only the first. The
        // second must still appear in both transcripts (it was billed at
        // send time).
        let alice_fn = |link: &Link<'_>, ()| {
            link.send(0, "first", &1u64)?;
            link.send(0, "second", &2u64)?;
            Ok(())
        };
        let bob_fn = |link: &Link<'_>, ()| link.recv::<u64>("first");
        let fused = execute_with(crate::ExecBackend::Fused, (), (), alice_fn, bob_fn).unwrap();
        let (alice, bob) = run_pair(PipeIo::pair(), (), (), alice_fn, bob_fn);
        let (alice, bob) = (alice.unwrap(), bob.unwrap());
        assert_eq!(fused.transcript.messages(), 2);
        assert_eq!(alice.transcript, fused.transcript);
        assert_eq!(bob.transcript, fused.transcript);
    }

    /// A pipe end whose sender is dropped once `left` events (frames,
    /// end marker, output) have gone out: the next send fails, and the
    /// peer sees the pipe close after draining what did arrive.
    struct CutIo {
        io: PipeIo,
        left: usize,
    }

    impl CutIo {
        fn spend(&mut self) -> Result<(), CommError> {
            if self.left == 0 {
                self.io.tx = mpsc::channel().0;
                return Err(CommError::ChannelClosed);
            }
            self.left -= 1;
            Ok(())
        }
    }

    impl FrameIo for CutIo {
        fn send_frame(
            &mut self,
            round: u16,
            label: &str,
            bits: u64,
            payload: &[u8],
        ) -> Result<(), CommError> {
            self.spend()?;
            self.io.send_frame(round, label, bits, payload)
        }

        fn send_end(&mut self, status: Result<(), &CommError>) -> Result<(), CommError> {
            self.spend()?;
            self.io.send_end(status)
        }

        fn send_output(&mut self, payload: &[u8]) -> Result<(), CommError> {
            self.spend()?;
            self.io.send_output(payload)
        }

        fn recv_event(&mut self) -> Result<RemoteEvent, CommError> {
            self.io.recv_event()
        }
    }

    /// The asymmetric chatty protocol of the `exec` tests, run with
    /// inputs 3 and 4: simultaneous exchange, bursts both ways, and
    /// data-dependent lengths.
    fn chatty_alice(link: &Link<'_>, n: u64) -> Result<u64, CommError> {
        let theirs: u64 = link.exchange(0, "sizes", &n)?;
        for i in 0..n {
            link.send(1, "a-burst", &(i * i))?;
        }
        let mut total = 0u64;
        for _ in 0..theirs {
            total += link.recv::<u64>("b-burst")?;
        }
        link.send(3, "total", &total)?;
        Ok(total)
    }

    fn chatty_bob(link: &Link<'_>, n: u64) -> Result<(Vec<u64>, u64), CommError> {
        let theirs: u64 = link.exchange(0, "sizes", &n)?;
        let mut got = Vec::new();
        for _ in 0..theirs {
            got.push(link.recv::<u64>("a-burst")?);
        }
        for i in 0..n {
            link.send(2, "b-burst", &(i + 10))?;
        }
        let total: u64 = link.recv("total")?;
        Ok((got, total))
    }

    #[test]
    fn cutting_the_pipe_at_any_event_fails_both_parties() {
        // Each side of the chatty run sends 5 frames, its end marker and
        // its output.
        const EVENTS: usize = 7;
        let fused = execute_with(
            crate::ExecBackend::Fused,
            3u64,
            4u64,
            chatty_alice,
            chatty_bob,
        )
        .unwrap();
        for cut in [Party::Alice, Party::Bob] {
            for k in 0..=EVENTS + 1 {
                let budget = |side| if side == cut { k } else { usize::MAX };
                let (a, b) = PipeIo::pair();
                let ios = (
                    CutIo {
                        io: a,
                        left: budget(Party::Alice),
                    },
                    CutIo {
                        io: b,
                        left: budget(Party::Bob),
                    },
                );
                let (alice, bob) = run_pair(ios, 3u64, 4u64, chatty_alice, chatty_bob);
                if k < EVENTS {
                    let closed = Err(CommError::ChannelClosed);
                    assert_eq!(
                        (alice, bob),
                        (closed.clone(), closed),
                        "{cut} cut after {k}"
                    );
                } else {
                    assert_eq!(alice.as_ref(), Ok(&fused), "{cut} cut after {k}");
                    assert_eq!(bob.as_ref(), Ok(&fused), "{cut} cut after {k}");
                }
            }
        }
    }

    #[test]
    fn intern_label_is_stable_and_capped() {
        let a = intern_label("remote-test-label").unwrap();
        let b = intern_label(&String::from("remote-test-label")).unwrap();
        assert!(std::ptr::eq(a, b), "same allocation for the same label");
        let long = "x".repeat(MAX_LABEL_LEN + 1);
        assert!(intern_label(&long).is_err());
        assert!(intern_label(&"y".repeat(MAX_LABEL_LEN)).is_ok());
    }
}
