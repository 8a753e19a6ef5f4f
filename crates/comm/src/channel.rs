//! Protocol execution substrate: the party-facing [`Link`] handle.
//!
//! A [`Link`] is one party's handle to the conversation: [`Link::send`]
//! encodes a [`Wire`] value into a byte frame, records its exact bit
//! count in the transcript, and delivers it to the peer; [`Link::recv`]
//! obtains the next frame, verifies the expected label, and decodes.
//! Messages within the same annotated round may flow in both directions
//! (simultaneous messages), matching the round convention of
//! communication complexity.
//!
//! A link has two transports (see [`crate::exec`]): the *fused* one
//! shares in-memory queues with a peer running cooperatively on the same
//! thread, and the *remote* one writes frames to a byte stream with the
//! peer at its other end — a socket to another process, or the in-memory
//! pipe between the threaded backend's two threads. Protocol code is
//! written against `Link` only and cannot observe the difference:
//! outputs and transcripts are bit-identical across executors.

use crate::bits::BitReader;
use crate::error::CommError;
use crate::exec::FusedCore;
use crate::remote::{decode_remote, encode_and_send, RemoteEndpoint};
use crate::transcript::{MsgRecord, Party, Transcript};
use crate::wire::Wire;

/// A fused-executor frame in flight: label + packed payload. The round
/// annotation lives only in the transcript (it is bookkeeping, not
/// information sent).
#[derive(Debug)]
pub(crate) struct Frame {
    pub(crate) label: &'static str,
    pub(crate) bits: u64,
    pub(crate) payload: Vec<u8>,
}

/// Verifies a frame's label and decodes its payload — the fused
/// backend's decode path, shared by fresh and replayed receives.
pub(crate) fn decode_frame<T: Wire>(frame: &Frame, expect: &'static str) -> Result<T, CommError> {
    if frame.label != expect {
        return Err(CommError::LabelMismatch {
            expected: expect,
            got: frame.label,
        });
    }
    let mut r = BitReader::new(&frame.payload);
    let value = T::decode(&mut r)?;
    debug_assert!(
        r.bits_read() == frame.bits,
        "decoder for {expect:?} consumed {} of {} bits",
        r.bits_read(),
        frame.bits
    );
    Ok(value)
}

/// Canonicalizes transcript record order: simultaneous messages (both
/// directions within one round) would otherwise land in scheduling order.
/// The stable sort keys on (round, party) and preserves each sender's own
/// deterministic in-round order, so equal executions — on *any* backend —
/// yield equal transcripts.
pub(crate) fn canonicalize(records: &mut [MsgRecord]) {
    records.sort_by_key(|r| (r.round, r.from == Party::Bob));
}

/// One party's handle to the conversation.
pub struct Link<'a> {
    side: Party,
    inner: LinkInner<'a>,
}

/// Executor-specific frame transport behind a [`Link`].
enum LinkInner<'a> {
    /// Single-thread cooperative state shared with the peer.
    Fused { core: &'a FusedCore },
    /// This party runs alone on its thread; the peer is behind a framed
    /// byte transport (see [`crate::remote`]).
    Remote { ep: &'a dyn RemoteEndpoint },
}

impl<'a> Link<'a> {
    pub(crate) fn fused(side: Party, core: &'a FusedCore) -> Self {
        Self {
            side,
            inner: LinkInner::Fused { core },
        }
    }

    pub(crate) fn remote(ep: &'a dyn RemoteEndpoint) -> Self {
        Self {
            side: ep.side(),
            inner: LinkInner::Remote { ep },
        }
    }

    /// The identity of the party holding this link.
    #[must_use]
    pub fn side(&self) -> Party {
        self.side
    }

    /// Encodes and sends a message in the given protocol round.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ChannelClosed`] if the peer has terminated.
    pub fn send<T: Wire>(
        &self,
        round: u16,
        label: &'static str,
        value: &T,
    ) -> Result<(), CommError> {
        match &self.inner {
            LinkInner::Fused { core } => core.send(self.side, round, label, value),
            LinkInner::Remote { ep } => encode_and_send(*ep, round, label, value),
        }
    }

    /// Receives and decodes the next message, verifying its label.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::ChannelClosed`] if the peer hung up,
    /// [`CommError::LabelMismatch`] if the protocol state machines are out
    /// of sync, or [`CommError::Decode`] on a malformed payload.
    pub fn recv<T: Wire>(&self, expect_label: &'static str) -> Result<T, CommError> {
        match &self.inner {
            LinkInner::Fused { core } => core.recv(self.side, expect_label),
            LinkInner::Remote { ep } => {
                let frame = ep.recv_expect(expect_label)?;
                decode_remote(&frame)
            }
        }
    }

    /// Sends `value` and receives the peer's message under the same label —
    /// the "simultaneous exchange" idiom used by several protocols (both
    /// messages belong to the same round).
    ///
    /// # Errors
    ///
    /// Propagates any send/receive error.
    pub fn exchange<T: Wire>(
        &self,
        round: u16,
        label: &'static str,
        value: &T,
    ) -> Result<T, CommError> {
        self.send(round, label, value)?;
        self.recv(label)
    }
}

/// The result of running a protocol: both parties' outputs plus the
/// bit-exact transcript.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome<AOut, BOut> {
    /// Alice's local output.
    pub alice: AOut,
    /// Bob's local output.
    pub bob: BOut,
    /// Everything that crossed the wire.
    pub transcript: Transcript,
}

/// Resolves the two parties' results the way the caller sees them: a
/// "real" error is preferred over the [`CommError::ChannelClosed`] echo
/// the peer observes when its counterpart aborts.
pub(crate) fn resolve_party_results<AOut, BOut>(
    a_res: Result<AOut, CommError>,
    b_res: Result<BOut, CommError>,
) -> Result<(AOut, BOut), CommError> {
    match (a_res, b_res) {
        (Ok(a), Ok(b)) => Ok((a, b)),
        (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
        (Err(ea), Err(eb)) => Err(if ea == CommError::ChannelClosed {
            eb
        } else {
            ea
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_with, ExecBackend};
    use crate::wire::FixedU64s;

    /// Every behavioral test below runs on both backends: the executor is
    /// part of the contract, not an implementation detail.
    fn on_both(check: impl Fn(ExecBackend)) {
        for backend in ExecBackend::ALL {
            check(backend);
        }
    }

    #[test]
    fn one_round_protocol() {
        on_both(|backend| {
            let out = execute_with(
                backend,
                10u64,
                32u64,
                |link, a| {
                    link.send(0, "value", &a)?;
                    Ok(a)
                },
                |link, b| {
                    let a: u64 = link.recv("value")?;
                    Ok(a + b)
                },
            )
            .unwrap();
            assert_eq!(out.bob, 42);
            assert_eq!(out.transcript.rounds(), 1);
            assert_eq!(out.transcript.messages(), 1);
            assert_eq!(out.transcript.bits_from(Party::Alice), 8);
            assert_eq!(out.transcript.bits_from(Party::Bob), 0);
        });
    }

    #[test]
    fn multi_round_alternation() {
        on_both(|backend| {
            let out = execute_with(
                backend,
                (),
                (),
                |link, ()| {
                    link.send(0, "ping", &1u64)?;
                    let pong: u64 = link.recv("pong")?;
                    link.send(2, "done", &(pong + 1))?;
                    Ok(pong)
                },
                |link, ()| {
                    let ping: u64 = link.recv("ping")?;
                    link.send(1, "pong", &(ping * 10))?;
                    let done: u64 = link.recv("done")?;
                    Ok(done)
                },
            )
            .unwrap();
            assert_eq!(out.alice, 10);
            assert_eq!(out.bob, 11);
            assert_eq!(out.transcript.rounds(), 3);
        });
    }

    #[test]
    fn simultaneous_exchange_is_one_round() {
        on_both(|backend| {
            let out = execute_with(
                backend,
                vec![1u64, 2, 3],
                vec![9u64],
                |link, mine| link.exchange(0, "weights", &mine),
                |link, mine| link.exchange(0, "weights", &mine),
            )
            .unwrap();
            assert_eq!(out.alice, vec![9]);
            assert_eq!(out.bob, vec![1, 2, 3]);
            assert_eq!(out.transcript.rounds(), 1);
            assert_eq!(out.transcript.messages(), 2);
        });
    }

    #[test]
    fn label_mismatch_detected() {
        on_both(|backend| {
            let res = execute_with(
                backend,
                (),
                (),
                |link, ()| link.send(0, "alpha", &1u64),
                |link, ()| {
                    let _: u64 = link.recv("beta")?;
                    Ok(())
                },
            );
            match res {
                Err(CommError::LabelMismatch { expected, got }) => {
                    assert_eq!(expected, "beta");
                    assert_eq!(got, "alpha");
                }
                other => panic!("expected label mismatch, got {other:?}"),
            }
        });
    }

    #[test]
    fn protocol_error_propagates() {
        on_both(|backend| {
            let res: Result<ExecutionOutcome<(), ()>, _> = execute_with(
                backend,
                (),
                (),
                |_link, ()| Err(CommError::protocol("alice aborted")),
                |link, ()| {
                    // Bob waits forever -> observes channel closed; the
                    // orchestrator should surface Alice's real error.
                    let _: u64 = link.recv("never")?;
                    Ok(())
                },
            );
            assert_eq!(res.unwrap_err(), CommError::protocol("alice aborted"));
        });
    }

    #[test]
    fn transcript_bits_match_payload_encoding() {
        let ids = FixedU64s::for_dim(256, vec![1, 2, 3, 4, 5]);
        let expected_bits = ids.encoded_bits();
        on_both(|backend| {
            let out = execute_with(
                backend,
                ids.clone(),
                (),
                |link, v| link.send(0, "ids", &v),
                |link, ()| {
                    let v: FixedU64s = link.recv("ids")?;
                    Ok(v)
                },
            )
            .unwrap();
            assert_eq!(out.bob, ids);
            assert_eq!(out.transcript.total_bits(), expected_bits);
        });
    }

    #[test]
    fn many_messages_ordering_per_direction() {
        on_both(|backend| {
            let out = execute_with(
                backend,
                (),
                (),
                |link, ()| {
                    for i in 0..100u64 {
                        link.send(0, "seq", &i)?;
                    }
                    Ok(())
                },
                |link, ()| {
                    let mut got = Vec::new();
                    for _ in 0..100 {
                        got.push(link.recv::<u64>("seq")?);
                    }
                    Ok(got)
                },
            )
            .unwrap();
            assert_eq!(out.bob, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn default_execute_is_fused() {
        // The plain `execute` entry point runs on the default backend and
        // must agree with an explicit threaded run bit-for-bit.
        let run = |backend: Option<ExecBackend>| {
            let alice = |link: &Link<'_>, a: u64| {
                link.send(0, "a", &a)?;
                let b: u64 = link.recv("b")?;
                Ok(a + b)
            };
            let bob = |link: &Link<'_>, b: u64| {
                let a: u64 = link.recv("a")?;
                link.send(1, "b", &(b * a))?;
                Ok(b)
            };
            match backend {
                None => execute(3u64, 5u64, alice, bob).unwrap(),
                Some(be) => execute_with(be, 3u64, 5u64, alice, bob).unwrap(),
            }
        };
        let default = run(None);
        assert_eq!(default, run(Some(ExecBackend::Fused)));
        assert_eq!(default, run(Some(ExecBackend::Threaded)));
    }
}
