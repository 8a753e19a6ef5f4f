//! Service-layer messages: what clients, the serve daemon, and party
//! hosts say to each other between (and around) protocol runs.
//!
//! Every message is one [`KIND_SERVICE`](crate::codec::KIND_SERVICE)
//! frame whose label is the message name and whose payload is the
//! message body through the same [`Wire`] bit-packing the protocols use
//! — the serve layer has no second serialization system.

use crate::codec::{FramedConn, RawFrame};
use mpest_comm::{BatchAccounting, BitReader, BitWriter, CommError, Party, Wire};
use mpest_core::{EstimateReport, EstimateRequest, UpdateBatch, UpdateOp, UpdateSide};
use mpest_matrix::CsrMatrix;
use mpest_obs::{GaugeSnapshot, HistogramSnapshot, Snapshot, HIST_BUCKETS};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Hard cap on ops in one wire update batch: a hostile varint cannot
/// force an unbounded allocation, and anything larger should be a
/// re-upload anyway.
pub const MAX_WIRE_UPDATE_OPS: u64 = 1 << 20;

/// Hard cap on a wire matrix's row/column count. Triplet indices are
/// `u32`, so nothing wider is addressable anyway; more importantly,
/// building the matrix allocates a `rows + 1` row-pointer table *before*
/// any triplet is checked, so a hostile upload claiming astronomical
/// dimensions in a few varint bytes (well under the payload cap) must
/// fail typed here instead of aborting the daemon on a multi-TiB
/// allocation. 2^24 bounds that table at 128 MiB, in line with the
/// 64 MiB frame payload cap.
pub const MAX_WIRE_MATRIX_DIM: u64 = 1 << 24;

/// Wire wrapper for a CSR matrix: shape + exact triplets. Used by the
/// one-time upload when the daemon's session cache misses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WCsr(pub CsrMatrix);

/// Decodes one matrix dimension, enforcing [`MAX_WIRE_MATRIX_DIM`].
fn read_dim(r: &mut BitReader<'_>, what: &str) -> Result<usize, CommError> {
    let dim = r.read_varint()?;
    if dim > MAX_WIRE_MATRIX_DIM {
        return Err(CommError::decode(format!(
            "matrix {what} count {dim} exceeds the {MAX_WIRE_MATRIX_DIM} wire cap"
        )));
    }
    usize::try_from(dim).map_err(|_| CommError::decode(format!("matrix {what} overflow")))
}

impl Wire for WCsr {
    fn encode(&self, w: &mut BitWriter) {
        w.write_varint(self.0.rows() as u64);
        w.write_varint(self.0.cols() as u64);
        let triplets: Vec<(u32, u32, i64)> = self.0.triplets().collect();
        triplets.encode(w);
    }
    fn decode(r: &mut BitReader<'_>) -> Result<Self, CommError> {
        let rows = read_dim(r, "rows")?;
        let cols = read_dim(r, "cols")?;
        let triplets: Vec<(u32, u32, i64)> = Vec::decode(r)?;
        for &(i, j, _) in &triplets {
            if i as usize >= rows || j as usize >= cols {
                return Err(CommError::decode(format!(
                    "triplet ({i}, {j}) outside {rows}x{cols} matrix"
                )));
            }
        }
        Ok(Self(CsrMatrix::from_triplets(rows, cols, triplets)))
    }
}

/// One client query: explicit per-request seeds, so a cached session
/// answers reproducibly no matter how other clients interleave.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMsg {
    /// Fingerprint of Alice's matrix (see [`crate::fingerprint()`]).
    pub fp_a: u64,
    /// Fingerprint of Bob's matrix.
    pub fp_b: u64,
    /// `(seed, request)` pairs; request `i` runs under `Seed(seeds[i])`.
    pub queries: Vec<(u64, EstimateRequest)>,
    /// Pin the query to this epoch of the session. `None` accepts
    /// whatever epoch the fingerprints currently name; `Some(e)` fails
    /// typed (a stale-epoch reply) unless the served session is exactly
    /// at epoch `e`.
    pub at_epoch: Option<u64>,
    /// Frame id for pipelined serving. `0` means unpipelined:
    /// the classic strict request/reply alternation. A nonzero id lets
    /// a client keep several queries in flight on one connection; the
    /// daemon echoes the id in the matching [`ReportsMsg`] (or a
    /// [`ServiceMsg::QueryFailed`]), so replies may arrive in any order.
    pub id: u64,
}

/// Client → daemon / party host: apply an update batch to the live
/// session the fingerprints name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateMsg {
    /// Fingerprint of Alice's matrix *before* the update.
    pub fp_a: u64,
    /// Fingerprint of Bob's matrix *before* the update.
    pub fp_b: u64,
    /// The epoch the sender believes the session is at; the receiver
    /// rejects the batch (stale-epoch reply) on mismatch, so two
    /// clients racing updates cannot silently diverge.
    pub expect_epoch: u64,
    /// The ops to apply atomically.
    pub batch: UpdateBatch,
}

fn encode_update_ops(batch: &UpdateBatch, w: &mut BitWriter) {
    w.write_varint(batch.ops.len() as u64);
    for op in &batch.ops {
        match op {
            UpdateOp::AppendRow { side, entries } => {
                w.write_varint(0);
                w.write_bit(matches!(side, UpdateSide::Bob));
                entries.encode(w);
            }
            UpdateOp::SetEntry {
                side,
                row,
                col,
                val,
            } => {
                w.write_varint(1);
                w.write_bit(matches!(side, UpdateSide::Bob));
                row.encode(w);
                col.encode(w);
                val.encode(w);
            }
            UpdateOp::DeleteEntry { side, row, col } => {
                w.write_varint(2);
                w.write_bit(matches!(side, UpdateSide::Bob));
                row.encode(w);
                col.encode(w);
            }
        }
    }
}

fn decode_update_ops(r: &mut BitReader<'_>) -> Result<UpdateBatch, CommError> {
    let count = r.read_varint()?;
    if count > MAX_WIRE_UPDATE_OPS {
        return Err(CommError::decode(format!(
            "update batch of {count} ops exceeds the {MAX_WIRE_UPDATE_OPS} wire cap"
        )));
    }
    let mut ops = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let tag = r.read_varint()?;
        let side = if r.read_bit()? {
            UpdateSide::Bob
        } else {
            UpdateSide::Alice
        };
        ops.push(match tag {
            0 => UpdateOp::AppendRow {
                side,
                entries: Vec::decode(r)?,
            },
            1 => UpdateOp::SetEntry {
                side,
                row: u32::decode(r)?,
                col: u32::decode(r)?,
                val: i64::decode(r)?,
            },
            2 => UpdateOp::DeleteEntry {
                side,
                row: u32::decode(r)?,
                col: u32::decode(r)?,
            },
            other => {
                return Err(CommError::decode(format!("unknown update op tag {other}")));
            }
        });
    }
    Ok(UpdateBatch { ops })
}

/// The daemon's answer to a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportsMsg {
    /// One report per request, in request order — output, logical
    /// transcript, bit/round accounting, all bit-identical to a local
    /// in-process run under the same seeds.
    pub reports: Vec<EstimateReport>,
    /// Aggregate logical accounting for this query batch.
    pub accounting: BatchAccounting,
    /// Whether the session came from the fingerprint cache.
    pub cache_hit: bool,
    /// Real bytes the server has read on this connection so far.
    pub wire_in: u64,
    /// Real bytes the server has written on this connection so far
    /// (through the previous message; this reply is still in flight).
    pub wire_out: u64,
    /// The epoch of the session that answered.
    pub epoch: u64,
    /// Echo of the query's frame id (0 for unpipelined queries).
    /// Pipelining clients match replies to requests by this id.
    pub id: u64,
}

/// A daemon-wide statistics snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsMsg {
    /// Logical ledger folded over every query the daemon ever served.
    pub accounting: BatchAccounting,
    /// Cached sessions.
    pub sessions: u64,
    /// Total requests served.
    pub queries: u64,
    /// Real bytes read across all closed + current connections.
    pub wire_in: u64,
    /// Real bytes written across all closed + current connections.
    pub wire_out: u64,
    /// Sessions evicted from the cache (least-recently-used first) to
    /// stay under the daemon's `max_sessions` cap.
    pub evictions: u64,
    /// Cache entries retired because an update superseded their epoch
    /// (distinct from capacity evictions — the content lives on under
    /// its new `fp@epoch` key).
    pub superseded: u64,
}

/// Hard cap on entries per metric section in one wire snapshot: a
/// hostile varint cannot force an unbounded allocation, and a real
/// registry holds a few dozen names.
pub const MAX_WIRE_METRICS: u64 = 1 << 16;

/// A full observability-registry snapshot on the wire: every
/// counter, gauge, and sparse-bucket histogram the daemon records,
/// beyond the fixed [`StatsMsg`] fields. See [`mpest_obs::Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsMsg {
    /// The deterministic registry snapshot (name-sorted maps,
    /// index-sorted sparse buckets).
    pub snapshot: Snapshot,
}

fn encode_snapshot(s: &Snapshot, w: &mut BitWriter) {
    w.write_varint(s.counters.len() as u64);
    for (name, v) in &s.counters {
        name.clone().encode(w);
        w.write_varint(*v);
    }
    w.write_varint(s.gauges.len() as u64);
    for (name, g) in &s.gauges {
        name.clone().encode(w);
        w.write_varint(g.value);
        w.write_varint(g.high);
    }
    w.write_varint(s.histograms.len() as u64);
    for (name, h) in &s.histograms {
        name.clone().encode(w);
        w.write_varint(h.count);
        w.write_varint(h.sum);
        w.write_varint(h.buckets.len() as u64);
        for &(idx, n) in &h.buckets {
            w.write_varint(u64::from(idx));
            w.write_varint(n);
        }
    }
}

fn read_metric_len(r: &mut BitReader<'_>, what: &str) -> Result<u64, CommError> {
    let len = r.read_varint()?;
    if len > MAX_WIRE_METRICS {
        return Err(CommError::decode(format!(
            "{what} count {len} exceeds the {MAX_WIRE_METRICS} wire cap"
        )));
    }
    Ok(len)
}

fn decode_snapshot(r: &mut BitReader<'_>) -> Result<Snapshot, CommError> {
    let mut snap = Snapshot::default();
    for _ in 0..read_metric_len(r, "counter")? {
        let name = String::decode(r)?;
        snap.counters.insert(name, r.read_varint()?);
    }
    for _ in 0..read_metric_len(r, "gauge")? {
        let name = String::decode(r)?;
        snap.gauges.insert(
            name,
            GaugeSnapshot {
                value: r.read_varint()?,
                high: r.read_varint()?,
            },
        );
    }
    for _ in 0..read_metric_len(r, "histogram")? {
        let name = String::decode(r)?;
        let count = r.read_varint()?;
        let sum = r.read_varint()?;
        let nbuckets = r.read_varint()?;
        if nbuckets > HIST_BUCKETS as u64 {
            return Err(CommError::decode(format!(
                "histogram bucket count {nbuckets} exceeds the {HIST_BUCKETS} layout"
            )));
        }
        let mut buckets = Vec::with_capacity(nbuckets as usize);
        for _ in 0..nbuckets {
            let idx = r.read_varint()?;
            if idx >= HIST_BUCKETS as u64 {
                return Err(CommError::decode(format!(
                    "histogram bucket index {idx} outside the {HIST_BUCKETS}-bucket layout"
                )));
            }
            buckets.push((idx as u16, r.read_varint()?));
        }
        snap.histograms.insert(
            name,
            HistogramSnapshot {
                count,
                sum,
                buckets,
            },
        );
    }
    Ok(snap)
}

/// One party's public description of the half it holds, exchanged at
/// the start of a storage-split connection. This is everything a
/// peer may learn about the matrix outside billed protocol messages:
/// shape, representation, a content fingerprint, and the half's
/// per-side epoch — never entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartyInfoMsg {
    /// Which side the *sender* plays (and therefore which half of the
    /// pair this message describes).
    pub side: Party,
    /// Rows of the sender's matrix.
    pub rows: u64,
    /// Columns of the sender's matrix.
    pub cols: u64,
    /// Whether the sender's half is binary (content-wise).
    pub binary: bool,
    /// Content fingerprint of the sender's half (see
    /// [`crate::fingerprint()`]), for pinning a run to exact content.
    pub fp: u64,
    /// The sender's per-side epoch (updates version each half
    /// independently in a storage split).
    pub epoch: u64,
}

/// Run negotiation sent by the initiator of a remote two-party run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpecMsg {
    /// Which party the *initiator* plays (the host plays the peer).
    pub initiator_side: Party,
    /// The query seed both processes must use.
    pub seed: u64,
    /// The per-read/write deadline (seconds, 0 = none) *both* sides
    /// apply for this run, so an initiator that relaxed its own
    /// deadline for heavy per-round compute is not dropped by the
    /// host's stricter default mid-run.
    pub io_timeout_secs: u64,
    /// The protocol invocation.
    pub request: EstimateRequest,
}

/// Post-run acknowledgement for a remote two-party run: the protocol's
/// outputs already crossed the wire inside the remote executor's output
/// exchange, so this is a resynchronization barrier that carries only
/// the sender's failure (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResultMsg {
    /// The sender's failure, if its run failed.
    pub error: Option<String>,
}

/// Every service-layer message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceMsg {
    /// Client → daemon: run these requests.
    Query(QueryMsg),
    /// Daemon → client: the session cache missed — upload the pair.
    NeedMatrices,
    /// Client → daemon: the matrix pair for the query's fingerprints.
    Matrices {
        /// Alice's matrix.
        a: WCsr,
        /// Bob's matrix.
        b: WCsr,
    },
    /// Daemon → client: the query's reports.
    Reports(ReportsMsg),
    /// Client → daemon: report daemon-wide statistics.
    Stats,
    /// Daemon → client: the statistics snapshot.
    StatsReport(StatsMsg),
    /// Client → daemon: stop accepting connections (graceful shutdown).
    Shutdown,
    /// Generic acknowledgement.
    Ok,
    /// A service-level failure (bad request, failed run, ...).
    Error(String),
    /// Initiator → party host: negotiate a remote two-party run.
    RunSpec(RunSpecMsg),
    /// Both directions after a remote run: output / error exchange.
    RunResult(RunResultMsg),
    /// Client → daemon / party host: apply a live update batch (travels
    /// as a [`KIND_UPDATE`](crate::codec::KIND_UPDATE) frame).
    Update(UpdateMsg),
    /// Daemon → client: the update applied; the session now lives at
    /// these fingerprints and epoch.
    UpdateAck {
        /// Alice-side fingerprint after the update.
        fp_a: u64,
        /// Bob-side fingerprint after the update.
        fp_b: u64,
        /// The new epoch.
        epoch: u64,
    },
    /// Both directions on a storage-split connection: announce the half
    /// this process holds before negotiating a run. Each side
    /// cross-checks the peer's announcement against its stored
    /// [`PeerInfo`](mpest_core::PeerInfo) — dimensions and binariness
    /// must match; a nonzero stored fingerprint pins exact content.
    PartyHello(PartyInfoMsg),
    /// Daemon → client: one *pipelined* query failed, without poisoning
    /// the connection or the other in-flight queries. Unpipelined
    /// failures keep using [`ServiceMsg::Error`] /
    /// [`ServiceMsg::StaleEpoch`], whose meaning is unchanged.
    QueryFailed {
        /// Echo of the failed query's frame id (never 0).
        id: u64,
        /// What went wrong.
        error: String,
    },
    /// Client → daemon: report the full observability registry.
    Metrics,
    /// Daemon → client: the registry snapshot.
    MetricsReport(MetricsMsg),
    /// Daemon → client: the addressed `fp@epoch` no longer names the
    /// live session — it was updated (or the pinned epoch never
    /// existed). Carries where the session is *now*.
    StaleEpoch {
        /// Current Alice-side fingerprint.
        fp_a: u64,
        /// Current Bob-side fingerprint.
        fp_b: u64,
        /// Current epoch.
        epoch: u64,
    },
}

impl ServiceMsg {
    /// The message's frame label.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Query(_) => "query",
            Self::NeedMatrices => "need-matrices",
            Self::Matrices { .. } => "matrices",
            Self::Reports(_) => "reports",
            Self::Stats => "stats",
            Self::StatsReport(_) => "stats-report",
            Self::Shutdown => "shutdown",
            Self::Ok => "ok",
            Self::Error(_) => "error",
            Self::RunSpec(_) => "run-spec",
            Self::RunResult(_) => "run-result",
            Self::Update(_) => "update",
            Self::UpdateAck { .. } => "update-ack",
            Self::PartyHello(_) => "party-hello",
            Self::QueryFailed { .. } => "query-failed",
            Self::Metrics => "metrics",
            Self::MetricsReport(_) => "metrics-report",
            Self::StaleEpoch { .. } => "stale-epoch",
        }
    }

    fn encode_body(&self, w: &mut BitWriter) {
        match self {
            Self::Query(q) => {
                w.write_varint(q.fp_a);
                w.write_varint(q.fp_b);
                q.queries.encode(w);
                q.at_epoch.encode(w);
                w.write_varint(q.id);
            }
            Self::NeedMatrices | Self::Stats | Self::Shutdown | Self::Ok | Self::Metrics => {}
            Self::MetricsReport(m) => encode_snapshot(&m.snapshot, w),
            Self::Matrices { a, b } => {
                a.encode(w);
                b.encode(w);
            }
            Self::Reports(rep) => {
                rep.reports.encode(w);
                rep.accounting.encode(w);
                w.write_bit(rep.cache_hit);
                w.write_varint(rep.wire_in);
                w.write_varint(rep.wire_out);
                w.write_varint(rep.epoch);
                w.write_varint(rep.id);
            }
            Self::StatsReport(s) => {
                s.accounting.encode(w);
                w.write_varint(s.sessions);
                w.write_varint(s.queries);
                w.write_varint(s.wire_in);
                w.write_varint(s.wire_out);
                w.write_varint(s.evictions);
                w.write_varint(s.superseded);
            }
            Self::Error(msg) => msg.clone().encode(w),
            Self::RunSpec(spec) => {
                spec.initiator_side.encode(w);
                w.write_varint(spec.seed);
                w.write_varint(spec.io_timeout_secs);
                spec.request.encode(w);
            }
            Self::RunResult(res) => res.error.clone().encode(w),
            Self::Update(u) => {
                w.write_varint(u.fp_a);
                w.write_varint(u.fp_b);
                w.write_varint(u.expect_epoch);
                encode_update_ops(&u.batch, w);
            }
            Self::UpdateAck { fp_a, fp_b, epoch } | Self::StaleEpoch { fp_a, fp_b, epoch } => {
                w.write_varint(*fp_a);
                w.write_varint(*fp_b);
                w.write_varint(*epoch);
            }
            Self::PartyHello(info) => {
                info.side.encode(w);
                w.write_varint(info.rows);
                w.write_varint(info.cols);
                w.write_bit(info.binary);
                w.write_varint(info.fp);
                w.write_varint(info.epoch);
            }
            Self::QueryFailed { id, error } => {
                w.write_varint(*id);
                error.clone().encode(w);
            }
        }
    }

    pub(crate) fn decode_body(name: &str, r: &mut BitReader<'_>) -> Result<Self, CommError> {
        Ok(match name {
            "query" => Self::Query(QueryMsg {
                fp_a: r.read_varint()?,
                fp_b: r.read_varint()?,
                queries: Vec::decode(r)?,
                at_epoch: Option::decode(r)?,
                id: r.read_varint()?,
            }),
            "need-matrices" => Self::NeedMatrices,
            "matrices" => Self::Matrices {
                a: WCsr::decode(r)?,
                b: WCsr::decode(r)?,
            },
            "reports" => Self::Reports(ReportsMsg {
                reports: Vec::decode(r)?,
                accounting: BatchAccounting::decode(r)?,
                cache_hit: r.read_bit()?,
                wire_in: r.read_varint()?,
                wire_out: r.read_varint()?,
                epoch: r.read_varint()?,
                id: r.read_varint()?,
            }),
            "stats" => Self::Stats,
            "stats-report" => Self::StatsReport(StatsMsg {
                accounting: BatchAccounting::decode(r)?,
                sessions: r.read_varint()?,
                queries: r.read_varint()?,
                wire_in: r.read_varint()?,
                wire_out: r.read_varint()?,
                evictions: r.read_varint()?,
                superseded: r.read_varint()?,
            }),
            "shutdown" => Self::Shutdown,
            "ok" => Self::Ok,
            "error" => Self::Error(String::decode(r)?),
            "run-spec" => Self::RunSpec(RunSpecMsg {
                initiator_side: Party::decode(r)?,
                seed: r.read_varint()?,
                io_timeout_secs: r.read_varint()?,
                request: EstimateRequest::decode(r)?,
            }),
            "run-result" => Self::RunResult(RunResultMsg {
                error: Option::decode(r)?,
            }),
            "update" => Self::Update(UpdateMsg {
                fp_a: r.read_varint()?,
                fp_b: r.read_varint()?,
                expect_epoch: r.read_varint()?,
                batch: decode_update_ops(r)?,
            }),
            "update-ack" => Self::UpdateAck {
                fp_a: r.read_varint()?,
                fp_b: r.read_varint()?,
                epoch: r.read_varint()?,
            },
            "party-hello" => Self::PartyHello(PartyInfoMsg {
                side: Party::decode(r)?,
                rows: r.read_varint()?,
                cols: r.read_varint()?,
                binary: r.read_bit()?,
                fp: r.read_varint()?,
                epoch: r.read_varint()?,
            }),
            "query-failed" => Self::QueryFailed {
                id: r.read_varint()?,
                error: String::decode(r)?,
            },
            "metrics" => Self::Metrics,
            "metrics-report" => Self::MetricsReport(MetricsMsg {
                snapshot: decode_snapshot(r)?,
            }),
            "stale-epoch" => Self::StaleEpoch {
                fp_a: r.read_varint()?,
                fp_b: r.read_varint()?,
                epoch: r.read_varint()?,
            },
            other => {
                return Err(CommError::frame(
                    other,
                    "unknown service message".to_string(),
                ))
            }
        })
    }
}

impl<S: Read + Write> FramedConn<S> {
    /// Sends one service message as a service frame (update messages
    /// travel as [`KIND_UPDATE`](crate::codec::KIND_UPDATE) frames).
    ///
    /// # Errors
    ///
    /// Propagates codec/transport errors.
    pub fn send_msg(&mut self, msg: &ServiceMsg) -> Result<(), CommError> {
        let (kind, name, bits, payload) = encode_service_frame(msg);
        self.send_raw(kind, 0, name, bits, &payload)
    }

    /// Receives the next service message; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// Returns a typed error on malformed frames or if a protocol frame
    /// arrives where a service message was expected.
    pub fn recv_msg(&mut self) -> Result<Option<ServiceMsg>, CommError> {
        let Some(frame) = self.recv_raw()? else {
            return Ok(None);
        };
        decode_service_frame(&frame).map(Some)
    }

    /// Receives a service message, treating EOF as a closed channel.
    ///
    /// # Errors
    ///
    /// Same as [`FramedConn::recv_msg`] plus
    /// [`CommError::ChannelClosed`] on EOF.
    pub fn recv_msg_required(&mut self) -> Result<ServiceMsg, CommError> {
        self.recv_msg()?.ok_or(CommError::ChannelClosed)
    }
}

/// Encodes one service message into the pieces of a frame — `(kind,
/// label, payload bit count, payload)`. Shared by the blocking
/// [`FramedConn::send_msg`] and the spooling
/// [`DuplexConn::send_msg`](crate::DuplexConn::send_msg), so both paths
/// emit byte-identical frames by construction.
pub(crate) fn encode_service_frame(msg: &ServiceMsg) -> (u8, &'static str, u64, Vec<u8>) {
    let mut w = BitWriter::new();
    msg.encode_body(&mut w);
    let (payload, bits) = w.finish_vec();
    let kind = if matches!(msg, ServiceMsg::Update(_)) {
        crate::codec::KIND_UPDATE
    } else {
        crate::codec::KIND_SERVICE
    };
    (kind, msg.name(), bits, payload)
}

/// Checks the frame kind and decodes the service-message body. Update
/// frames carry their own kind
/// ([`KIND_UPDATE`](crate::codec::KIND_UPDATE)).
pub(crate) fn decode_service_frame(frame: &RawFrame) -> Result<ServiceMsg, CommError> {
    let service = frame.kind == crate::codec::KIND_SERVICE;
    let update = frame.kind == crate::codec::KIND_UPDATE && frame.label == "update";
    if !(service || update) {
        return Err(CommError::frame(
            &frame.label,
            "expected a service message, got a protocol frame",
        ));
    }
    let mut r = BitReader::new(&frame.payload);
    ServiceMsg::decode_body(&frame.label, &mut r)
}

impl FramedConn<TcpStream> {
    /// Like [`FramedConn::recv_msg`], with the two-phase read deadline
    /// of [`FramedConn::recv_raw_patient`]: wait up to `idle` (`None` =
    /// forever) for a message to *start*, then bound the rest of its
    /// frame by `frame_timeout`. This is how the serve loops wait
    /// between messages without disconnecting parked-but-healthy peers.
    ///
    /// # Errors
    ///
    /// Same as [`FramedConn::recv_msg`], plus socket-option failures.
    pub fn recv_msg_patient(
        &mut self,
        idle: Option<Duration>,
        frame_timeout: Option<Duration>,
    ) -> Result<Option<ServiceMsg>, CommError> {
        let Some(frame) = self.recv_raw_patient(idle, frame_timeout)? else {
            return Ok(None);
        };
        decode_service_frame(&frame).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpest_matrix::PNorm;
    use std::io::Cursor;

    // Encode into a pipe, then decode from it.
    struct Buf(Cursor<Vec<u8>>);
    impl Read for Buf {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }
    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.get_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn roundtrip(msg: &ServiceMsg) {
        let mut conn = FramedConn::new(Buf(Cursor::new(Vec::new())));
        conn.send_msg(msg).unwrap();
        let back = conn.recv_msg().unwrap().unwrap();
        assert_eq!(&back, msg);
    }

    #[test]
    fn service_messages_roundtrip() {
        let m = CsrMatrix::from_triplets(3, 4, vec![(0, 1, 2), (2, 3, -5)]);
        let mut accounting = BatchAccounting::new();
        accounting.absorb(&mpest_comm::Transcript {
            records: vec![mpest_comm::MsgRecord {
                from: Party::Alice,
                round: 0,
                label: "x",
                bits: 9,
            }],
        });
        for msg in [
            ServiceMsg::Query(QueryMsg {
                fp_a: 1,
                fp_b: 2,
                queries: vec![
                    (42, EstimateRequest::ExactL1),
                    (
                        43,
                        EstimateRequest::LpNorm {
                            p: PNorm::Zero,
                            eps: 0.25,
                        },
                    ),
                ],
                at_epoch: Some(4),
                id: 17,
            }),
            // Unpipelined (id 0) queries, with and without an epoch pin.
            ServiceMsg::Query(QueryMsg {
                fp_a: 1,
                fp_b: 2,
                queries: Vec::new(),
                at_epoch: Some(7),
                id: 0,
            }),
            ServiceMsg::Query(QueryMsg {
                fp_a: 5,
                fp_b: 6,
                queries: vec![(1, EstimateRequest::ExactL1)],
                at_epoch: None,
                id: 0,
            }),
            ServiceMsg::NeedMatrices,
            ServiceMsg::Matrices {
                a: WCsr(m.clone()),
                b: WCsr(m.transpose()),
            },
            ServiceMsg::Reports(ReportsMsg {
                reports: Vec::new(),
                accounting: accounting.clone(),
                cache_hit: true,
                wire_in: 100,
                wire_out: 50,
                epoch: 6,
                id: 17,
            }),
            ServiceMsg::Reports(ReportsMsg {
                reports: Vec::new(),
                accounting: BatchAccounting::new(),
                cache_hit: false,
                wire_in: 1,
                wire_out: 2,
                epoch: 99,
                id: 0,
            }),
            ServiceMsg::QueryFailed {
                id: 17,
                error: "session went stale mid-flight".into(),
            },
            ServiceMsg::Stats,
            ServiceMsg::StatsReport(StatsMsg {
                accounting,
                sessions: 2,
                queries: 9,
                wire_in: 1,
                wire_out: 2,
                evictions: 3,
                superseded: 4,
            }),
            ServiceMsg::Shutdown,
            ServiceMsg::Ok,
            ServiceMsg::Error("nope".into()),
            ServiceMsg::RunSpec(RunSpecMsg {
                initiator_side: Party::Alice,
                seed: 7,
                io_timeout_secs: 45,
                request: EstimateRequest::LinfBinary { eps: 0.3 },
            }),
            ServiceMsg::RunResult(RunResultMsg {
                error: Some("boom".into()),
            }),
            ServiceMsg::Update(UpdateMsg {
                fp_a: 11,
                fp_b: 12,
                expect_epoch: 3,
                batch: UpdateBatch::new()
                    .append_row(UpdateSide::Alice, vec![(0, 1), (7, -2)])
                    .set_entry(UpdateSide::Bob, 1, 2, 5)
                    .delete_entry(UpdateSide::Alice, 0, 0),
            }),
            ServiceMsg::UpdateAck {
                fp_a: 1,
                fp_b: 2,
                epoch: 3,
            },
            ServiceMsg::StaleEpoch {
                fp_a: 9,
                fp_b: 8,
                epoch: 7,
            },
            ServiceMsg::PartyHello(PartyInfoMsg {
                side: Party::Bob,
                rows: 28,
                cols: 20,
                binary: true,
                fp: 0xdead_beef,
                epoch: 5,
            }),
            ServiceMsg::Metrics,
            ServiceMsg::MetricsReport(MetricsMsg {
                snapshot: sample_snapshot(),
            }),
        ] {
            roundtrip(&msg);
        }
    }

    /// A registry snapshot with every section populated, including the
    /// extreme histogram buckets (0 and `u64::MAX`).
    fn sample_snapshot() -> Snapshot {
        let registry = mpest_obs::Registry::new();
        registry.counter("cache.hit").add(41);
        registry.counter("wire.in").add(u64::MAX);
        let g = registry.gauge("spool.depth");
        g.record(900);
        g.record(7);
        let h = registry.histogram("phase.run_us");
        h.record(0);
        h.record(130);
        h.record(u64::MAX);
        registry.snapshot()
    }

    /// Hostile metrics payloads fail typed instead of allocating: a
    /// bucket index outside the fixed layout is a decode error.
    #[test]
    fn metrics_snapshot_rejects_out_of_layout_buckets() {
        use mpest_comm::{BitReader, BitWriter};
        let mut w = BitWriter::new();
        w.write_varint(0); // counters
        w.write_varint(0); // gauges
        w.write_varint(1); // one histogram
        String::from("h").encode(&mut w);
        w.write_varint(1); // count
        w.write_varint(1); // sum
        w.write_varint(1); // one bucket
        w.write_varint(HIST_BUCKETS as u64); // index out of layout
        w.write_varint(1);
        let (bytes, _bits) = w.finish_vec();
        let mut r = BitReader::new(&bytes);
        let err = decode_snapshot(&mut r).unwrap_err();
        assert!(err.to_string().contains("bucket index"), "{err}");
    }

    #[test]
    fn update_frames_use_their_own_kind() {
        let mut conn = FramedConn::new(Buf(Cursor::new(Vec::new())));
        conn.send_msg(&ServiceMsg::Update(UpdateMsg {
            fp_a: 1,
            fp_b: 2,
            expect_epoch: 0,
            batch: UpdateBatch::new(),
        }))
        .unwrap();
        let frame = conn.recv_raw().unwrap().unwrap();
        assert_eq!(frame.kind, crate::codec::KIND_UPDATE);
        assert_eq!(frame.label, "update");
    }

    #[test]
    fn hostile_update_batches_fail_typed() {
        // An op count past the wire cap must not allocate.
        let mut w = BitWriter::new();
        w.write_varint(1); // fp_a
        w.write_varint(2); // fp_b
        w.write_varint(0); // expect_epoch
        w.write_varint(MAX_WIRE_UPDATE_OPS + 1);
        let (bytes, _) = w.finish_vec();
        let mut r = BitReader::new(&bytes);
        let err = ServiceMsg::decode_body("update", &mut r).unwrap_err();
        assert!(err.to_string().contains("wire cap"), "{err}");

        // Unknown op tags are rejected.
        let mut w = BitWriter::new();
        w.write_varint(1);
        w.write_varint(2);
        w.write_varint(0);
        w.write_varint(1); // one op
        w.write_varint(9); // bogus tag
        w.write_bit(false);
        let (bytes, _) = w.finish_vec();
        let mut r = BitReader::new(&bytes);
        let err = ServiceMsg::decode_body("update", &mut r).unwrap_err();
        assert!(err.to_string().contains("op tag"), "{err}");
    }

    #[test]
    fn wcsr_rejects_hostile_dims_before_allocating() {
        // A few varint bytes claiming 2^40 rows must fail typed instead
        // of reaching the rows + 1 row-pointer allocation (multi-TiB).
        let mut w = BitWriter::new();
        w.write_varint(1u64 << 40);
        w.write_varint(2);
        Vec::<(u32, u32, i64)>::new().encode(&mut w);
        let (bytes, _) = w.finish_vec();
        let mut r = BitReader::new(&bytes);
        let err = WCsr::decode(&mut r).unwrap_err();
        assert!(err.to_string().contains("wire cap"), "got {err}");

        // usize::MAX would additionally overflow rows + 1.
        let mut w = BitWriter::new();
        w.write_varint(u64::MAX);
        w.write_varint(2);
        Vec::<(u32, u32, i64)>::new().encode(&mut w);
        let (bytes, _) = w.finish_vec();
        let mut r = BitReader::new(&bytes);
        assert!(WCsr::decode(&mut r).is_err());
    }

    #[test]
    fn wcsr_rejects_out_of_range_triplets() {
        let mut w = BitWriter::new();
        w.write_varint(2);
        w.write_varint(2);
        vec![(5u32, 0u32, 1i64)].encode(&mut w);
        let (bytes, _) = w.finish_vec();
        let mut r = BitReader::new(&bytes);
        assert!(WCsr::decode(&mut r).is_err());
    }
}
