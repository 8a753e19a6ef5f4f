//! Executor backends: how the two party functions of a protocol actually
//! run.
//!
//! The paper's protocols are *communication*-bounded — the unit of cost
//! is bits on the wire — so the execution substrate should cost next to
//! nothing. This module provides two interchangeable backends behind one
//! entry point, [`execute_with`] (and [`execute`], which uses the
//! default):
//!
//! * [`ExecBackend::Threaded`] — the in-process oracle for the remote
//!   executor: Alice and Bob each run as a remote party (see
//!   [`crate::remote`]) on a scoped OS thread of their own, linked by an
//!   in-memory pipe instead of a socket. It is the same code every party
//!   host runs, end exchange and output exchange included; two thread
//!   spawns and a channel send per event cost tens of microseconds per
//!   query, which dwarfs a microsecond protocol.
//! * [`ExecBackend::Fused`] (the default) — both parties run
//!   cooperatively on the *calling* thread. `send` appends frames to
//!   in-memory per-direction queues, `recv` on an empty inbox yields to
//!   the peer, scratch buffers are pooled per thread and reused across
//!   messages and queries, and the transcript is recorded lock-free into
//!   per-party vectors. No threads, no channels, no locks, no
//!   per-message allocation in steady state.
//!
//! # How the fused scheduler works
//!
//! Party functions are plain blocking closures, so the fused backend
//! cannot suspend one mid-call. Instead it uses *restart-based*
//! cooperative scheduling, exploiting the fact that every party function
//! in this workspace is deterministic (all randomness flows from
//! explicit [`Seed`](crate::Seed)s):
//!
//! 1. Run Alice. When a `recv` finds her inbox empty, it returns the
//!    internal [`CommError::WouldBlock`] signal, which propagates out
//!    through the party's `?` chain — the party "yields".
//! 2. Run Bob, who now sees Alice's queued messages. When Bob yields (or
//!    finishes), switch back.
//! 3. A yielded party *re-runs from the start*: sends it already
//!    committed are skipped without re-encoding (determinism guarantees
//!    the bytes would be identical), and receives it already consumed are
//!    replayed from a per-party frame log. The replay reaches the yield
//!    point and continues past it with fresh frames.
//!
//! Each switch costs one re-run of the party's local prefix, so a
//! constant-round protocol (every protocol here is one) pays a constant
//! factor of local compute in exchange for eliminating *all* OS-level
//! machinery. If both parties yield with no message committed in
//! between, the protocol is deadlocked; the threaded backend would hang
//! forever, the fused one reports a protocol error.
//!
//! Outputs and transcripts are **bit-identical** across backends: frames
//! carry the same encodings, labels are checked the same way, and record
//! order is canonicalized identically (see
//! `tests/executor_equivalence.rs` for the 14-protocol proof).

use crate::bits::BitWriter;
use crate::channel::{
    canonicalize, decode_frame, resolve_party_results, ExecutionOutcome, Frame, Link,
};
use crate::error::CommError;
use crate::remote::{execute_remote, missing_input, run_pair, PipeIo, RemoteCtx};
use crate::transcript::{MsgRecord, Party, Transcript};
use crate::wire::Wire;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// Which executor runs a protocol's two party functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecBackend {
    /// Cooperative single-thread execution (the default): microsecond
    /// per-query cost, zero-allocation wire path, no OS involvement.
    #[default]
    Fused,
    /// Two-thread execution: each party runs the remote executor
    /// ([`Exec::Remote`]) on its own scoped thread, linked to the other
    /// by an in-memory pipe. Parties compute their local phases in
    /// parallel, so this can win on *single* huge queries; for batches,
    /// run fused queries across an
    /// [`Engine`](../mpest_core/struct.Engine.html) pool instead.
    Threaded,
}

impl ExecBackend {
    /// Both backends, for sweeping tests and benches.
    pub const ALL: [ExecBackend; 2] = [ExecBackend::Fused, ExecBackend::Threaded];

    /// Stable lowercase name (matches the CLI `--executor` spelling).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ExecBackend::Fused => "fused",
            ExecBackend::Threaded => "threaded",
        }
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ExecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fused" => Ok(ExecBackend::Fused),
            "threaded" => Ok(ExecBackend::Threaded),
            other => Err(format!(
                "unknown executor {other:?} (expected \"fused\" or \"threaded\")"
            )),
        }
    }
}

/// How a protocol execution actually runs: on an in-process
/// [`ExecBackend`], or as one party of a *remote* pair linked to a peer
/// process through a [`RemoteCtx`]. This is the type protocol
/// implementations thread through to [`execute_with`]; a plain
/// [`ExecBackend`] converts into it, so in-process callers never mention
/// it.
#[derive(Clone, Copy)]
pub enum Exec<'r> {
    /// Both parties in this process, on the given backend.
    Backend(ExecBackend),
    /// This process runs `ctx.side()` only; the peer party lives in
    /// another process behind `ctx`'s framed transport.
    Remote(&'r RemoteCtx<'r>),
}

impl fmt::Debug for Exec<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exec::Backend(b) => write!(f, "Exec::Backend({b})"),
            Exec::Remote(rc) => write!(f, "Exec::Remote({:?})", rc.side()),
        }
    }
}

impl From<ExecBackend> for Exec<'_> {
    fn from(backend: ExecBackend) -> Self {
        Exec::Backend(backend)
    }
}

impl Exec<'_> {
    /// The in-process backend, if this is one.
    #[must_use]
    pub fn backend(self) -> Option<ExecBackend> {
        match self {
            Exec::Backend(b) => Some(b),
            Exec::Remote(_) => None,
        }
    }
}

/// Retained scratch buffers per thread. Payload buffers cycle between
/// the pool, the in-flight queues, and the replay logs, so a thread
/// serving a stream of queries stops allocating on the wire path
/// entirely.
const POOL_MAX_BUFFERS: usize = 64;
/// Buffers above this capacity are dropped instead of pooled, so one
/// huge trivial-transfer query can't pin megabytes per thread forever.
const POOL_MAX_CAPACITY: usize = 1 << 20;

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

fn pool_get() -> Vec<u8> {
    SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default()
}

fn pool_put(buf: Vec<u8>) {
    if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAPACITY {
        return;
    }
    SCRATCH_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_MAX_BUFFERS {
            pool.push(buf);
        }
    });
}

/// Number of pooled scratch buffers currently retained by this thread
/// (diagnostics / tests).
#[must_use]
pub fn scratch_pool_len() -> usize {
    SCRATCH_POOL.with(|pool| pool.borrow().len())
}

const ALICE: usize = 0;
const BOB: usize = 1;

fn party_index(p: Party) -> usize {
    match p {
        Party::Alice => ALICE,
        Party::Bob => BOB,
    }
}

/// The shared state both fused [`Link`]s point at: per-direction frame
/// queues, per-party replay logs and transcript records, and the
/// counters that make restart-based scheduling exact. Interior
/// mutability is all `Cell`/`RefCell` — the whole structure lives and
/// dies on one thread.
#[derive(Debug, Default)]
pub(crate) struct FusedCore {
    /// `queues[i]` holds frames sent *by* party `i`, awaiting the peer.
    queues: [RefCell<VecDeque<Frame>>; 2],
    /// `logs[i]` holds frames already consumed by party `i`, in consume
    /// order, so a re-run can replay them.
    logs: [RefCell<Vec<Frame>>; 2],
    /// Replay cursor into `logs[i]` for the current run.
    cursors: [Cell<usize>; 2],
    /// Sends party `i` has committed (encoded + recorded + queued).
    committed: [Cell<u64>; 2],
    /// Sends party `i` has issued during the current run (≤ committed
    /// while replaying, == committed once past the replay prefix).
    issued: [Cell<u64>; 2],
    /// Per-party transcript records in send order.
    records: [RefCell<Vec<MsgRecord>>; 2],
    /// Whether party `i`'s function has returned (its link is "closed").
    finished: [Cell<bool>; 2],
}

impl FusedCore {
    /// Resets party `p`'s run-local state before (re-)running it.
    fn begin_run(&self, p: usize) {
        self.cursors[p].set(0);
        self.issued[p].set(0);
    }

    fn total_committed(&self) -> u64 {
        self.committed[ALICE].get() + self.committed[BOB].get()
    }

    pub(crate) fn send<T: Wire>(
        &self,
        from: Party,
        round: u16,
        label: &'static str,
        value: &T,
    ) -> Result<(), CommError> {
        let i = party_index(from);
        let seq = self.issued[i].get();
        self.issued[i].set(seq + 1);
        if seq < self.committed[i].get() {
            // Replayed send: already encoded, recorded, and delivered on
            // an earlier run. Determinism makes re-encoding redundant.
            return Ok(());
        }
        let mut w = BitWriter::with_buf(pool_get());
        value.encode(&mut w);
        let (payload, bits) = w.finish_vec();
        self.records[i].borrow_mut().push(MsgRecord {
            from,
            round,
            label,
            bits,
        });
        self.queues[i].borrow_mut().push_back(Frame {
            label,
            bits,
            payload,
        });
        self.committed[i].set(seq + 1);
        Ok(())
    }

    pub(crate) fn recv<T: Wire>(&self, to: Party, expect: &'static str) -> Result<T, CommError> {
        let i = party_index(to);
        let cursor = self.cursors[i].get();
        {
            // Replay prefix: serve the frame this receive consumed on an
            // earlier run.
            let log = self.logs[i].borrow();
            if let Some(frame) = log.get(cursor) {
                let value = decode_frame::<T>(frame, expect)?;
                drop(log);
                self.cursors[i].set(cursor + 1);
                return Ok(value);
            }
        }
        let frame = self.queues[1 - i].borrow_mut().pop_front();
        let Some(frame) = frame else {
            return Err(if self.finished[1 - i].get() {
                // The peer's function returned and will never send again:
                // same observation as a dropped channel sender.
                CommError::ChannelClosed
            } else {
                CommError::WouldBlock
            });
        };
        let value = decode_frame::<T>(&frame, expect)?;
        self.logs[i].borrow_mut().push(frame);
        self.cursors[i].set(cursor + 1);
        Ok(value)
    }

    /// Merges the per-party records into the canonical transcript order
    /// and returns every payload buffer to the thread's scratch pool.
    fn into_transcript(self) -> Transcript {
        let [a_rec, b_rec] = self.records;
        let mut records = a_rec.into_inner();
        records.append(&mut b_rec.into_inner());
        canonicalize(&mut records);
        for log in self.logs {
            for frame in log.into_inner() {
                pool_put(frame.payload);
            }
        }
        for queue in self.queues {
            for frame in queue.into_inner() {
                pool_put(frame.payload);
            }
        }
        Transcript { records }
    }
}

/// Runs a protocol on the fused single-thread backend (see the module
/// docs for the restart-based scheduling contract).
fn execute_fused<AIn, BIn, AOut, BOut, FA, FB>(
    alice_in: AIn,
    bob_in: BIn,
    alice_fn: FA,
    bob_fn: FB,
) -> Result<ExecutionOutcome<AOut, BOut>, CommError>
where
    AIn: Clone,
    BIn: Clone,
    FA: Fn(&Link<'_>, AIn) -> Result<AOut, CommError>,
    FB: Fn(&Link<'_>, BIn) -> Result<BOut, CommError>,
{
    let core = FusedCore::default();
    let links = [
        Link::fused(Party::Alice, &core),
        Link::fused(Party::Bob, &core),
    ];
    let mut alice_res: Option<Result<AOut, CommError>> = None;
    let mut bob_res: Option<Result<BOut, CommError>> = None;
    // Commit total at which each party last yielded (`u64::MAX` = never):
    // if a party yields at the same total its peer yielded at, no message
    // can ever unblock either side again.
    let mut yielded_at = [u64::MAX; 2];
    let mut current = ALICE;
    while alice_res.is_none() || bob_res.is_none() {
        if core.finished[current].get() {
            current = 1 - current;
            continue;
        }
        core.begin_run(current);
        let step: Result<(), CommError> = if current == ALICE {
            alice_fn(&links[ALICE], alice_in.clone()).map(|out| alice_res = Some(Ok(out)))
        } else {
            bob_fn(&links[BOB], bob_in.clone()).map(|out| bob_res = Some(Ok(out)))
        };
        match step {
            Ok(()) => core.finished[current].set(true),
            Err(CommError::WouldBlock) => {
                let total = core.total_committed();
                if yielded_at[1 - current] == total {
                    return Err(CommError::protocol(
                        "deadlock: both parties are blocked on a receive and no \
                         message is in flight",
                    ));
                }
                yielded_at[current] = total;
            }
            Err(real) => {
                // The party's link is now "closed" (it will never send
                // again). Keep scheduling the peer to completion so both
                // results exist, then resolve with the same real-error
                // preference as the threaded backend — the peer's own
                // error (e.g. a label mismatch on an already-queued
                // frame) must win or lose identically on both backends.
                core.finished[current].set(true);
                if current == ALICE {
                    alice_res = Some(Err(real));
                } else {
                    bob_res = Some(Err(real));
                }
            }
        }
        current = 1 - current;
    }
    let (alice, bob) = resolve_party_results(
        alice_res.expect("alice resolved"),
        bob_res.expect("bob resolved"),
    )?;
    Ok(ExecutionOutcome {
        alice,
        bob,
        transcript: core.into_transcript(),
    })
}

/// Runs a two-party protocol on the chosen executor. `alice_fn` and
/// `bob_fn` may only interact through their [`Link`]s; inputs must be
/// `Clone` (pass references — a re-run of a yielded party receives a
/// fresh clone) and the functions must be deterministic given their
/// input and received messages, which every protocol in this workspace
/// is by construction (explicit seeds).
///
/// `exec` is anything convertible into an [`Exec`]: a plain
/// [`ExecBackend`] runs both parties in this process, while
/// [`Exec::Remote`] runs only that context's party against a peer
/// process (see [`crate::remote`]). Outcomes — outputs *and*
/// transcripts — are bit-identical across all executors: the remote
/// path reconstructs the peer's transcript records from frame headers
/// and completes both output slots via its post-protocol output
/// exchange (which is why party outputs are [`Wire`] data).
///
/// # Errors
///
/// Returns the first [`CommError`] raised by either party, preferring a
/// party's own error over the [`CommError::ChannelClosed`] echo its peer
/// observes.
///
/// # Panics
///
/// Panics if a party function panics (the panic is propagated).
pub fn execute_with<'r, AIn, BIn, AOut, BOut, FA, FB>(
    exec: impl Into<Exec<'r>>,
    alice_in: AIn,
    bob_in: BIn,
    alice_fn: FA,
    bob_fn: FB,
) -> Result<ExecutionOutcome<AOut, BOut>, CommError>
where
    AIn: Send + Clone,
    BIn: Send + Clone,
    AOut: Send + Wire,
    BOut: Send + Wire,
    FA: Fn(&Link<'_>, AIn) -> Result<AOut, CommError> + Send,
    FB: Fn(&Link<'_>, BIn) -> Result<BOut, CommError> + Send,
{
    execute_split(exec, Some(alice_in), Some(bob_in), alice_fn, bob_fn)
}

/// Storage-split variant of [`execute_with`]: each party's input is an
/// `Option`, present only when this process actually holds it.
///
/// The in-process backends run both parties and therefore require both
/// inputs; a missing one is a typed protocol error. An [`Exec::Remote`]
/// executor runs only its context's side and requires only that side's
/// input — this is the entry point that lets a storage-split party
/// execute a protocol while holding nothing of its peer beyond public
/// metadata.
///
/// # Errors
///
/// Same as [`execute_with`], plus a [`CommError::Protocol`] when the
/// input for a side this process must run is `None`.
pub fn execute_split<'r, AIn, BIn, AOut, BOut, FA, FB>(
    exec: impl Into<Exec<'r>>,
    alice_in: Option<AIn>,
    bob_in: Option<BIn>,
    alice_fn: FA,
    bob_fn: FB,
) -> Result<ExecutionOutcome<AOut, BOut>, CommError>
where
    AIn: Send + Clone,
    BIn: Send + Clone,
    AOut: Send + Wire,
    BOut: Send + Wire,
    FA: Fn(&Link<'_>, AIn) -> Result<AOut, CommError> + Send,
    FB: Fn(&Link<'_>, BIn) -> Result<BOut, CommError> + Send,
{
    match exec.into() {
        Exec::Backend(backend) => {
            let alice_in = alice_in.ok_or_else(|| missing_input(Party::Alice))?;
            let bob_in = bob_in.ok_or_else(|| missing_input(Party::Bob))?;
            match backend {
                ExecBackend::Fused => execute_fused(alice_in, bob_in, alice_fn, bob_fn),
                // Both remote outcomes are equal; Alice's stands for the run.
                ExecBackend::Threaded => {
                    run_pair(PipeIo::pair(), alice_in, bob_in, alice_fn, bob_fn).0
                }
            }
        }
        Exec::Remote(rc) => execute_remote(rc, alice_in, bob_in, alice_fn, bob_fn),
    }
}

/// Runs a two-party protocol on the default backend
/// ([`ExecBackend::Fused`]). See [`execute_with`] for the contract.
///
/// # Errors
///
/// Same as [`execute_with`].
pub fn execute<AIn, BIn, AOut, BOut, FA, FB>(
    alice_in: AIn,
    bob_in: BIn,
    alice_fn: FA,
    bob_fn: FB,
) -> Result<ExecutionOutcome<AOut, BOut>, CommError>
where
    AIn: Send + Clone,
    BIn: Send + Clone,
    AOut: Send + Wire,
    BOut: Send + Wire,
    FA: Fn(&Link<'_>, AIn) -> Result<AOut, CommError> + Send,
    FB: Fn(&Link<'_>, BIn) -> Result<BOut, CommError> + Send,
{
    execute_with(ExecBackend::default(), alice_in, bob_in, alice_fn, bob_fn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn backend_names_round_trip() {
        for backend in ExecBackend::ALL {
            assert_eq!(backend.as_str().parse::<ExecBackend>(), Ok(backend));
            assert_eq!(backend.to_string(), backend.as_str());
        }
        assert!("fibers".parse::<ExecBackend>().is_err());
        assert_eq!(ExecBackend::default(), ExecBackend::Fused);
    }

    #[test]
    fn fused_replays_parties_without_duplicating_messages() {
        // Alice must be restarted after her first recv yields; count her
        // runs and verify sends are committed exactly once anyway.
        let alice_runs = AtomicU32::new(0);
        let out = execute_with(
            ExecBackend::Fused,
            (),
            (),
            |link, ()| {
                alice_runs.fetch_add(1, Ordering::Relaxed);
                link.send(0, "ping", &7u64)?;
                let pong: u64 = link.recv("pong")?;
                link.send(2, "ping", &(pong + 1))?;
                let pong2: u64 = link.recv("pong")?;
                Ok(pong2)
            },
            |link, ()| {
                let a: u64 = link.recv("ping")?;
                link.send(1, "pong", &(a * 2))?;
                let b: u64 = link.recv("ping")?;
                link.send(3, "pong", &(b * 2))?;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out.alice, 30); // ((7*2)+1)*2
        assert_eq!(
            alice_runs.load(Ordering::Relaxed),
            3,
            "alice runs once per yield point plus the completing run"
        );
        assert_eq!(out.transcript.messages(), 4, "no duplicated sends");
        assert_eq!(out.transcript.rounds(), 4);
    }

    #[test]
    fn fused_detects_deadlock_instead_of_hanging() {
        let res: Result<ExecutionOutcome<u64, u64>, _> = execute_with(
            ExecBackend::Fused,
            (),
            (),
            |link, ()| link.recv("from-bob"),
            |link, ()| link.recv("from-alice"),
        );
        let err = res.unwrap_err();
        assert!(
            err.to_string().contains("deadlock"),
            "expected deadlock report, got {err:?}"
        );
    }

    #[test]
    fn double_error_resolution_matches_threaded_preference() {
        // Alice expects "y" but Bob sends "x" and then aborts: both
        // parties end with a real error. The threaded backend prefers
        // Alice's (resolve_party_results); the fused scheduler must not
        // short-circuit on whichever error it happens to hit first.
        let run = |backend| {
            execute_with::<(), (), u64, (), _, _>(
                backend,
                (),
                (),
                |link, ()| link.recv("y"),
                |link, ()| {
                    link.send(0, "x", &1u64)?;
                    Err(CommError::protocol("bob bad"))
                },
            )
            .unwrap_err()
        };
        let fused = run(ExecBackend::Fused);
        let threaded = run(ExecBackend::Threaded);
        assert_eq!(fused, threaded);
        assert_eq!(
            fused,
            CommError::LabelMismatch {
                expected: "y",
                got: "x"
            }
        );
    }

    #[test]
    fn fused_reports_channel_closed_when_peer_finishes_early() {
        let res: Result<ExecutionOutcome<(), u64>, _> = execute_with(
            ExecBackend::Fused,
            (),
            (),
            |_link, ()| Ok(()),
            |link, ()| link.recv("never-sent"),
        );
        assert_eq!(res.unwrap_err(), CommError::ChannelClosed);
    }

    #[test]
    fn would_block_never_escapes_on_success() {
        let out = execute_with(
            ExecBackend::Fused,
            (),
            (),
            |link, ()| {
                let v: u64 = link.recv("late")?;
                Ok(v)
            },
            |link, ()| {
                link.send(0, "late", &9u64)?;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out.alice, 9);
    }

    #[test]
    fn scratch_buffers_are_pooled_across_executions() {
        let exchange = || {
            execute_with(
                ExecBackend::Fused,
                (),
                (),
                |link, ()| link.exchange(0, "xs", &vec![1u64, 2, 3]),
                |link, ()| link.exchange(0, "xs", &vec![4u64]),
            )
            .unwrap()
        };
        let first = exchange();
        let pooled = scratch_pool_len();
        assert!(pooled >= 2, "both payload buffers return to the pool");
        let second = exchange();
        assert_eq!(
            scratch_pool_len(),
            pooled,
            "steady state: reuses pooled buffers instead of growing the pool"
        );
        assert_eq!(first.transcript, second.transcript);
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        pool_put(Vec::with_capacity(POOL_MAX_CAPACITY + 1));
        assert!(SCRATCH_POOL.with(|p| p.borrow().iter().all(|b| b.capacity() <= POOL_MAX_CAPACITY)));
    }

    #[test]
    #[should_panic(expected = "alice gave up after her first send")]
    fn threaded_reraises_a_party_panic_with_its_payload() {
        // Bob blocks on a second message that never comes; Alice's
        // unwinding closes her pipe end, so Bob fails and his thread
        // exits instead of hanging the scope.
        let _ = execute_with::<(), (), u64, u64, _, _>(
            ExecBackend::Threaded,
            (),
            (),
            |link, ()| {
                link.send(0, "first", &1u64)?;
                panic!("alice gave up after her first send");
            },
            |link, ()| {
                let first: u64 = link.recv("first")?;
                link.recv::<u64>("second").map(|second| first + second)
            },
        );
    }

    #[test]
    fn fused_matches_threaded_on_an_asymmetric_chatty_protocol() {
        // A protocol exercising every scheduler path: simultaneous
        // exchange, alternation, bursts, and data-dependent lengths.
        let run = |backend| {
            execute_with(
                backend,
                3u64,
                4u64,
                |link, n| {
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
                },
                |link, n| {
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
                },
            )
            .unwrap()
        };
        let fused = run(ExecBackend::Fused);
        let threaded = run(ExecBackend::Threaded);
        assert_eq!(fused, threaded);
        assert_eq!(fused.transcript.records, threaded.transcript.records);
    }
}
