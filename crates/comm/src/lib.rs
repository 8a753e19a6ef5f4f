//! Two-party communication substrate for distributed matrix-product
//! estimation protocols.
//!
//! This crate implements the communication model of Woodruff & Zhang
//! (PODS'18, Section 2): two parties, Alice and Bob, exchange messages over
//! a bidirectional channel and we account for
//!
//! * the **exact number of bits** exchanged (every message is serialized
//!   through [`BitWriter`] into a real byte buffer; the transcript records
//!   the bit count of each message), and
//! * the **number of rounds** (protocols annotate each message with its
//!   round index; a round may contain simultaneous messages in both
//!   directions, the standard convention in communication complexity).
//!
//! Protocols are written as two party functions that can only interact
//! through [`Link::send`] / [`Link::recv`]. This keeps implementations
//! honest: no data can leak between parties except through the billed
//! transcript. How the two functions are scheduled is an executor choice
//! (see [`ExecBackend`]): the default *fused* backend runs both
//! cooperatively on the calling thread (microsecond queries, zero-alloc
//! wire path), while the *threaded* backend runs each as a remote party
//! on its own scoped OS thread, linked by an in-memory pipe; outcomes are
//! bit-identical.
//! Shared (public) randomness is modeled by [`Seed`] values handed to
//! both party closures, following the public-coin convention (by
//! Newman's theorem this differs from private coins by at most an
//! additive `O(log n)` bits).
//!
//! # Example
//!
//! ```
//! use mpest_comm::{execute, Link, Wire};
//!
//! // A toy one-round protocol: Alice sends her number, Bob adds his.
//! let run = execute(
//!     7u64,
//!     35u64,
//!     |link: &Link, a| {
//!         link.send(0, "a-value", &a)?;
//!         Ok(())
//!     },
//!     |link: &Link, b| {
//!         let a: u64 = link.recv("a-value")?;
//!         Ok(a + b)
//!     },
//! )
//! .unwrap();
//! assert_eq!(run.bob, 42);
//! assert_eq!(run.transcript.rounds(), 1);
//! ```

pub mod bits;
pub mod channel;
pub mod cost;
pub mod error;
pub mod exec;
pub mod remote;
pub mod seed;
pub mod transcript;
pub mod wire;

pub use bits::{width_for, BitReader, BitWriter};
pub use channel::{ExecutionOutcome, Link};
pub use cost::NetworkModel;
pub use error::CommError;
pub use exec::{execute, execute_split, execute_with, Exec, ExecBackend};
pub use remote::{intern_label, FrameIo, RemoteCtx, RemoteEvent, RemoteFrame};
pub use seed::Seed;
pub use transcript::{BatchAccounting, MsgRecord, Party, Role, Transcript, TranscriptSummary};
pub use wire::{FixedU64s, Wire};
