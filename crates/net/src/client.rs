//! Client for the `mpest serve` daemon.
//!
//! A [`ServeClient`] holds one framed connection. [`ServeClient::query`]
//! fingerprints the pair locally, sends only the digests, and uploads
//! the matrices exactly once per daemon (when the cache misses); every
//! response carries the reports, the logical accounting, and the real
//! socket byte counts.

use crate::codec::FramedConn;
use crate::fingerprint::fingerprint;
use crate::msg::{QueryMsg, ReportsMsg, ServiceMsg, StatsMsg, UpdateMsg, WCsr};
use mpest_comm::CommError;
use mpest_core::{EstimateRequest, UpdateBatch};
use mpest_matrix::CsrMatrix;
use std::net::TcpStream;
use std::time::Duration;

/// Default mid-frame/write deadline for client connections.
pub const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Default deadline for a reply to *start*: generous enough for heavy
/// server-side query batches (minutes, not the 30 s frame deadline),
/// but still bounded so a half-open connection (server host vanished
/// without a FIN/RST) surfaces as a typed error instead of hanging
/// forever. Pass `None` to [`ServeClient::connect_with`] to wait
/// without bound.
pub const DEFAULT_REPLY_TIMEOUT: Duration = Duration::from_secs(600);

/// A client connection to a serve daemon.
pub struct ServeClient {
    conn: FramedConn<TcpStream>,
    /// Deadline while waiting for the server to *start* a reply
    /// (`None` = wait as long as the server computes — a heavy query
    /// batch may legitimately take minutes).
    reply_timeout: Option<Duration>,
    /// Deadline for mid-frame reads and all writes.
    io_timeout: Option<Duration>,
}

/// One query's complete result as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The daemon's reply (reports + logical accounting + server-side
    /// byte counters).
    pub reports: ReportsMsg,
    /// Whether this query had to upload the matrices (cache miss).
    pub uploaded: bool,
    /// Client-side bytes written for this query (request + upload).
    pub bytes_out: u64,
    /// Client-side bytes read for this query (reply).
    pub bytes_in: u64,
}

/// The daemon's acknowledgement of an applied update batch: the mutated
/// pair's *new* identity. Subsequent queries must name these
/// fingerprints (and, if pinning, this epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Fingerprint of the updated `A`.
    pub fp_a: u64,
    /// Fingerprint of the updated `B`.
    pub fp_b: u64,
    /// The session's epoch after the batch.
    pub epoch: u64,
}

/// Builds the client-side form of a daemon's `stale-epoch` reply: a
/// protocol error whose message always starts with `"stale epoch:"` and
/// names the session's current identity, so callers can both match on
/// it and recover (re-fingerprint / re-sync the mirror).
fn stale_epoch_error(fp_a: u64, fp_b: u64, epoch: u64) -> CommError {
    CommError::protocol(format!(
        "stale epoch: the daemon's session is now ({fp_a:#x}, {fp_b:#x}) at epoch {epoch}"
    ))
}

impl ServeClient {
    /// Connects and handshakes with the default deadlines: replies may
    /// take up to [`DEFAULT_REPLY_TIMEOUT`] to start (heavy batches
    /// compute for minutes), in-flight frames and writes are bounded by
    /// [`CLIENT_IO_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Connection or handshake failure.
    pub fn connect(addr: &str) -> Result<Self, CommError> {
        Self::connect_with(addr, Some(DEFAULT_REPLY_TIMEOUT), Some(CLIENT_IO_TIMEOUT))
    }

    /// Connects with explicit deadlines: `reply_timeout` bounds the
    /// wait for a reply to *start* (`None` = wait forever, for queries
    /// whose server-side compute is unbounded), `io_timeout` bounds
    /// mid-frame reads and all writes.
    ///
    /// # Errors
    ///
    /// Connection or handshake failure.
    pub fn connect_with(
        addr: &str,
        reply_timeout: Option<Duration>,
        io_timeout: Option<Duration>,
    ) -> Result<Self, CommError> {
        let conn = FramedConn::connect(addr, io_timeout)?;
        Ok(Self {
            conn,
            reply_timeout,
            io_timeout,
        })
    }

    /// Receives the next reply with the patient two-phase deadline.
    fn recv_reply(&mut self) -> Result<ServiceMsg, CommError> {
        match self
            .conn
            .recv_msg_patient(self.reply_timeout, self.io_timeout)
        {
            Ok(Some(msg)) => Ok(msg),
            Ok(None) => Err(CommError::ChannelClosed),
            Err(CommError::WouldBlock) => Err(CommError::frame(
                "reply",
                "timed out waiting for the server's reply",
            )),
            Err(e) => Err(e),
        }
    }

    /// Cumulative `(bytes_out, bytes_in)` on this connection.
    #[must_use]
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.conn.bytes_out(), self.conn.bytes_in())
    }

    /// Runs `(seed, request)` pairs against the daemon over `(a, b)`,
    /// uploading the pair if the daemon has not seen it.
    ///
    /// # Errors
    ///
    /// Transport errors, or a service-level [`CommError::Protocol`]
    /// carrying the daemon's error message.
    pub fn query(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        queries: &[(u64, EstimateRequest)],
    ) -> Result<QueryOutcome, CommError> {
        self.query_inner(a, b, queries, None)
    }

    /// [`ServeClient::query`] pinned to an exact epoch: the daemon
    /// answers only if its cached session for the pair sits at
    /// `at_epoch`, and replies with a typed stale-epoch error otherwise
    /// (surfaced here as [`CommError::Protocol`] naming the current
    /// identity).
    ///
    /// # Errors
    ///
    /// Same as [`ServeClient::query`], plus the stale-epoch rejection.
    pub fn query_at_epoch(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        queries: &[(u64, EstimateRequest)],
        at_epoch: u64,
    ) -> Result<QueryOutcome, CommError> {
        self.query_inner(a, b, queries, Some(at_epoch))
    }

    fn query_inner(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        queries: &[(u64, EstimateRequest)],
        at_epoch: Option<u64>,
    ) -> Result<QueryOutcome, CommError> {
        let (out0, in0) = self.wire_bytes();
        self.conn.send_msg(&ServiceMsg::Query(QueryMsg {
            fp_a: fingerprint(a),
            fp_b: fingerprint(b),
            at_epoch,
            queries: queries.to_vec(),
            id: 0,
        }))?;
        let mut uploaded = false;
        let reports = loop {
            match self.recv_reply()? {
                ServiceMsg::NeedMatrices => {
                    uploaded = true;
                    self.conn.send_msg(&ServiceMsg::Matrices {
                        a: WCsr(a.clone()),
                        b: WCsr(b.clone()),
                    })?;
                }
                ServiceMsg::Reports(reports) => break reports,
                ServiceMsg::StaleEpoch { fp_a, fp_b, epoch } => {
                    return Err(stale_epoch_error(fp_a, fp_b, epoch))
                }
                ServiceMsg::Error(msg) => {
                    return Err(CommError::protocol(format!("server error: {msg}")))
                }
                other => return Err(CommError::frame(other.name(), "unexpected reply to query")),
            }
        };
        let (out1, in1) = self.wire_bytes();
        Ok(QueryOutcome {
            reports,
            uploaded,
            bytes_out: out1 - out0,
            bytes_in: in1 - in0,
        })
    }

    /// Sends every query batch as its own *pipelined* message — frame
    /// ids `1..=k` — before reading any reply, then collects the `k`
    /// replies in whatever order the daemon answers them.
    ///
    /// The returned vector is ordered by input index, not by arrival:
    /// `result[i]` answers `batches[i]`. One pipelined query failing
    /// (the typed `query-failed` reply) lands as an `Err` in its slot
    /// without poisoning the connection or the other queries.
    ///
    /// On a cache miss the daemon answers a single `need-matrices` and
    /// parks every pipelined query behind the upload.
    ///
    /// # Errors
    ///
    /// Transport errors, or a daemon reply that breaks the pipelining
    /// contract (unknown or duplicate id).
    pub fn query_pipelined(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        batches: &[Vec<(u64, EstimateRequest)>],
    ) -> Result<Vec<Result<ReportsMsg, CommError>>, CommError> {
        let (fp_a, fp_b) = (fingerprint(a), fingerprint(b));
        for (i, batch) in batches.iter().enumerate() {
            self.conn.send_msg(&ServiceMsg::Query(QueryMsg {
                fp_a,
                fp_b,
                at_epoch: None,
                queries: batch.clone(),
                id: (i + 1) as u64,
            }))?;
        }
        let mut results: Vec<Option<Result<ReportsMsg, CommError>>> =
            batches.iter().map(|_| None).collect();
        let mut remaining = batches.len();
        let mut slot = |id: u64, outcome| -> Result<(), CommError> {
            let ix = usize::try_from(id)
                .ok()
                .and_then(|id| id.checked_sub(1))
                .filter(|&ix| ix < batches.len())
                .ok_or_else(|| {
                    CommError::protocol(format!("daemon answered unknown pipelined id {id}"))
                })?;
            if results[ix].replace(outcome).is_some() {
                return Err(CommError::protocol(format!(
                    "daemon answered pipelined id {id} twice"
                )));
            }
            Ok(())
        };
        while remaining > 0 {
            match self.recv_reply()? {
                ServiceMsg::NeedMatrices => {
                    self.conn.send_msg(&ServiceMsg::Matrices {
                        a: WCsr(a.clone()),
                        b: WCsr(b.clone()),
                    })?;
                }
                ServiceMsg::Reports(reports) => {
                    slot(reports.id, Ok(reports))?;
                    remaining -= 1;
                }
                ServiceMsg::QueryFailed { id, error } => {
                    slot(
                        id,
                        Err(CommError::protocol(format!("server error: {error}"))),
                    )?;
                    remaining -= 1;
                }
                ServiceMsg::Error(msg) => {
                    return Err(CommError::protocol(format!("server error: {msg}")))
                }
                other => {
                    return Err(CommError::frame(
                        other.name(),
                        "unexpected reply to pipelined query",
                    ))
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every pipelined id answered"))
            .collect())
    }

    /// Pushes an update batch into the daemon's cached session for
    /// `(a, b)` — the *pre-update* pair, whose fingerprints name the
    /// session — expecting it to sit at `expect_epoch`. On success the
    /// daemon has applied the batch incrementally and re-keyed the
    /// session under the returned fingerprints; apply the same batch to
    /// the local mirror to stay in sync.
    ///
    /// # Errors
    ///
    /// Transport errors; a stale-epoch rejection (another client updated
    /// first — surfaced as [`CommError::Protocol`] naming the current
    /// identity); or a daemon error (unknown session, invalid batch).
    pub fn update(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        expect_epoch: u64,
        batch: &UpdateBatch,
    ) -> Result<UpdateOutcome, CommError> {
        self.conn.send_msg(&ServiceMsg::Update(UpdateMsg {
            fp_a: fingerprint(a),
            fp_b: fingerprint(b),
            expect_epoch,
            batch: batch.clone(),
        }))?;
        match self.recv_reply()? {
            ServiceMsg::UpdateAck { fp_a, fp_b, epoch } => Ok(UpdateOutcome { fp_a, fp_b, epoch }),
            ServiceMsg::StaleEpoch { fp_a, fp_b, epoch } => {
                Err(stale_epoch_error(fp_a, fp_b, epoch))
            }
            ServiceMsg::Error(msg) => Err(CommError::protocol(format!("server error: {msg}"))),
            other => Err(CommError::frame(other.name(), "unexpected reply to update")),
        }
    }

    /// Fetches the daemon-wide statistics snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected reply.
    pub fn stats(&mut self) -> Result<StatsMsg, CommError> {
        self.conn.send_msg(&ServiceMsg::Stats)?;
        match self.recv_reply()? {
            ServiceMsg::StatsReport(stats) => Ok(stats),
            other => Err(CommError::frame(other.name(), "unexpected reply to stats")),
        }
    }

    /// Pulls the daemon's full observability-registry snapshot —
    /// every counter, gauge (with high-water mark), and sparse
    /// histogram the serving stack records — beyond the fixed fields
    /// [`ServeClient::stats`] reports.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected reply.
    pub fn metrics(&mut self) -> Result<mpest_obs::Snapshot, CommError> {
        self.conn.send_msg(&ServiceMsg::Metrics)?;
        match self.recv_reply()? {
            ServiceMsg::MetricsReport(m) => Ok(m.snapshot),
            ServiceMsg::Error(msg) => Err(CommError::protocol(format!("server error: {msg}"))),
            other => Err(CommError::frame(
                other.name(),
                "unexpected reply to metrics",
            )),
        }
    }

    /// Asks the daemon to stop accepting connections.
    ///
    /// # Errors
    ///
    /// Transport errors or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<(), CommError> {
        self.conn.send_msg(&ServiceMsg::Shutdown)?;
        match self.recv_reply()? {
            ServiceMsg::Ok => Ok(()),
            other => Err(CommError::frame(
                other.name(),
                "unexpected reply to shutdown",
            )),
        }
    }
}
