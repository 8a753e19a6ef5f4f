//! The streaming contract: a session maintained *incrementally* through
//! [`Session::apply_update`] answers every protocol bit-identically to a
//! session rebuilt from scratch over the mutated matrices — across
//! randomized update schedules (append / overwrite / delete), on binary
//! and integer pairs, for all 14 protocols; `KIND_UPDATE` batches pushed
//! over a real socket leave the served daemon session and a local mirror
//! bit-identical (and the party host's live session in lockstep with an
//! initiator's).

use mpest::net::{
    fingerprint, run_with_party_view, update_split_party, PartyHost, ServeClient, Server,
};
use mpest::prelude::*;

/// Runs the full 14-protocol catalog on both sessions under identical
/// explicit seeds and asserts report-level bit-identity — `Ok` reports
/// (output, transcript, accounting) and `Err`s alike must match.
fn assert_catalog_identical(inc: &Session, cold: &Session, seed_base: u64, ctx: &str) {
    for (i, request) in EstimateRequest::catalog().iter().enumerate() {
        let seed = Seed(seed_base + i as u64);
        let from_inc = inc.estimate_seeded(request, seed);
        let from_cold = cold.estimate_seeded(request, seed);
        assert_eq!(
            from_inc,
            from_cold,
            "{} diverged between incremental and rebuild ({ctx})",
            request.name()
        );
    }
}

/// Decodes one raw proptest tuple into a valid op against the session's
/// *current* dimensions (appends shift them mid-schedule, which is the
/// point). Alice appends grow her row count; Bob appends grow his
/// column count; the inner dimension is fixed, so entry indices are
/// reduced modulo whatever is live right now.
fn push_op(
    batch: UpdateBatch,
    session: &Session,
    inner: u32,
    raw: (u8, u8, u32, u32, u8),
    binary: bool,
) -> UpdateBatch {
    let (kind, side_bit, row, col, v) = raw;
    let side = if side_bit % 2 == 0 {
        UpdateSide::Alice
    } else {
        UpdateSide::Bob
    };
    let (out_rows, out_cols) = session.output_shape();
    let (rows, cols) = match side {
        UpdateSide::Alice => (out_rows as u32, inner),
        UpdateSide::Bob => (inner, out_cols as u32),
    };
    let val = if binary {
        i64::from(v % 2)
    } else {
        [-3, -1, 2, 5][usize::from(v % 4)]
    };
    match kind % 3 {
        0 => batch.set_entry(side, row % rows, col % cols, val),
        1 => batch.delete_entry(side, row % rows, col % cols),
        _ => {
            // An append's entries index the *inner* dimension on both
            // sides (Alice appends an output row, Bob an output column).
            let e0 = (row % inner, if binary { 1 } else { val.max(1) });
            let e1 = ((col % inner).min(inner - 1), 1);
            let entries = if e0.0 == e1.0 { vec![e0] } else { vec![e0, e1] };
            batch.append_row(side, entries)
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(8))]

    /// Binary pair, randomized schedules: a warmed session maintained
    /// through `apply_update` (so every derived view takes the
    /// incremental path) matches a from-scratch rebuild over its own
    /// `csr_halves`, protocol by protocol.
    #[test]
    fn incremental_matches_rebuild_on_binary_pairs(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..2, 0u32..64, 0u32..64, 0u8..4),
            1..18,
        ),
    ) {
        let a = Workloads::bernoulli_bits(10, 14, 0.3, 41);
        let b = Workloads::bernoulli_bits(14, 10, 0.3, 42);
        let inner = 14u32;
        let mut inc = Session::new(a, b);
        inc.warm_views().expect("warm base views");
        let mut applied = 0u64;
        for chunk in ops.chunks(3) {
            let mut batch = UpdateBatch::new();
            for &raw in chunk {
                batch = push_op(batch, &inc, inner, raw, true);
            }
            let epoch = inc.apply_update(&batch).expect("valid batch applies");
            applied += 1;
            proptest::prop_assert_eq!(epoch, applied);
        }
        proptest::prop_assert_eq!(inc.epoch(), applied);
        let (ca, cb) = inc.csr_halves().expect("mutated halves");
        let cold = Session::new(ca.clone(), cb.clone());
        assert_catalog_identical(&inc, &cold, 0xA11C_E000, "binary schedule");
    }

    /// Integer pair, randomized schedules: signed overwrites and
    /// deletes, with binary-only protocols required to fail with the
    /// *identical* typed error on both paths.
    #[test]
    fn incremental_matches_rebuild_on_integer_pairs(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..2, 0u32..64, 0u32..64, 0u8..4),
            1..14,
        ),
    ) {
        let a = Workloads::integer_csr(9, 7, 0.4, 4, true, 43);
        let b = Workloads::integer_csr(7, 9, 0.4, 4, true, 44);
        let inner = 7u32;
        let mut inc = Session::new(a, b);
        inc.warm_views().expect("warm base views");
        for chunk in ops.chunks(2) {
            let mut batch = UpdateBatch::new();
            for &raw in chunk {
                batch = push_op(batch, &inc, inner, raw, false);
            }
            inc.apply_update(&batch).expect("valid batch applies");
        }
        let (ca, cb) = inc.csr_halves().expect("mutated halves");
        let cold = Session::new(ca.clone(), cb.clone());
        assert_catalog_identical(&inc, &cold, 0xB0B_0000, "integer schedule");
    }
}

/// A rejected batch is atomic: the session keeps its epoch, content,
/// and incrementally maintained views, and still matches a rebuild.
#[test]
fn failed_batch_leaves_session_and_views_untouched() {
    let a = Workloads::bernoulli_bits(8, 12, 0.3, 45);
    let b = Workloads::bernoulli_bits(12, 8, 0.3, 46);
    let mut inc = Session::new(a, b);
    inc.warm_views().unwrap();
    inc.apply_update(&UpdateBatch::new().set_entry(UpdateSide::Alice, 2, 3, 1))
        .unwrap();
    // Valid op first, then an out-of-range column: the whole batch must
    // be rejected without applying the first op.
    let bad = UpdateBatch::new()
        .set_entry(UpdateSide::Bob, 1, 1, 1)
        .set_entry(UpdateSide::Alice, 0, 99, 1);
    let err = inc.apply_update(&bad).unwrap_err();
    assert!(
        err.to_string().contains("op 1"),
        "error names the offending op position: {err}"
    );
    assert_eq!(inc.epoch(), 1, "failed batch must not bump the epoch");
    let (ca, cb) = inc.csr_halves().unwrap();
    let cold = Session::new(ca.clone(), cb.clone());
    assert_catalog_identical(&inc, &cold, 0xFA11_ED00, "after rejected batch");
}

/// Deterministic per-step batch for the socket tests: flips one entry
/// per side to the opposite binary value (so both fingerprints change
/// every step and the pair *stays* binary — the full catalog must keep
/// serving), plus churn that exercises delete and append paths.
fn step_batch(mirror: &Session, step: u64) -> UpdateBatch {
    let (a, b) = mirror.csr_halves().expect("mirror halves");
    let (ar, ac) = (a.rows() as u32, a.cols() as u32);
    let (br, bc) = (b.rows() as u32, b.cols() as u32);
    let (fr, fc) = (step % u64::from(ar), (step * 3) % u64::from(ac));
    let (gr, gc) = ((step * 5) % u64::from(br), step % u64::from(bc));
    let flip = |cur: i64| if cur == 1 { 0 } else { 1 };
    let mut batch = UpdateBatch::new()
        .set_entry(
            UpdateSide::Alice,
            fr as u32,
            fc as u32,
            flip(a.get(fr as usize, fc as u32)),
        )
        .set_entry(
            UpdateSide::Bob,
            gr as u32,
            gc as u32,
            flip(b.get(gr as usize, gc as u32)),
        );
    batch = if step.is_multiple_of(2) {
        batch.delete_entry(UpdateSide::Alice, (step * 7 % u64::from(ar)) as u32, 0)
    } else {
        batch.append_row(UpdateSide::Alice, vec![((step % u64::from(ac)) as u32, 1)])
    };
    batch
}

/// The daemon path: `KIND_UPDATE` batches pushed through `ServeClient`
/// keep the served session and a local mirror bit-identical at every
/// epoch — reports match under epoch-pinned queries, acks carry the
/// mirror's exact fingerprints and epoch, stale addresses fail typed
/// without corrupting the live session, and the superseded counter
/// accounts every retired epoch.
#[test]
fn daemon_updates_leave_served_and_local_bit_identical() {
    let a = Workloads::bernoulli_bits(16, 12, 0.35, 47).to_csr();
    let b = Workloads::bernoulli_bits(12, 16, 0.35, 48).to_csr();
    let mut mirror = Session::new(a.clone(), b.clone());
    mirror.warm_views().unwrap();
    let server = Server::spawn("127.0.0.1:0", 0).expect("bind loopback daemon");
    let mut client = ServeClient::connect(&server.addr().to_string()).expect("connect");

    // Upload at epoch 0 and check one report against the mirror.
    let probe = [(900u64, EstimateRequest::ExactL1)];
    let outcome = client.query(&a, &b, &probe).expect("upload query");
    assert!(outcome.uploaded);
    assert_eq!(outcome.reports.epoch, 0);
    assert_eq!(
        outcome.reports.reports[0],
        mirror
            .estimate_seeded(&probe[0].1, Seed(probe[0].0))
            .unwrap()
    );

    let spot_checks = [
        EstimateRequest::ExactL1,
        EstimateRequest::LpNorm {
            p: PNorm::ONE,
            eps: 0.3,
        },
        EstimateRequest::SparseMatmul,
    ];
    let steps = 4u64;
    for step in 0..steps {
        let batch = step_batch(&mirror, step);
        let (pre_a, pre_b) = {
            let (x, y) = mirror.csr_halves().unwrap();
            (x.clone(), y.clone())
        };
        let ack = client
            .update(&pre_a, &pre_b, mirror.epoch(), &batch)
            .unwrap_or_else(|e| panic!("update step {step}: {e}"));
        mirror.apply_update(&batch).expect("mirror applies");
        let (now_a, now_b) = {
            let (x, y) = mirror.csr_halves().unwrap();
            (x.clone(), y.clone())
        };
        assert_eq!(ack.epoch, mirror.epoch(), "ack epoch (step {step})");
        assert_eq!(ack.fp_a, fingerprint(&now_a), "ack fp_a (step {step})");
        assert_eq!(ack.fp_b, fingerprint(&now_b), "ack fp_b (step {step})");

        // Epoch-pinned queries against the updated session match the
        // mirror bit-for-bit.
        let queries: Vec<(u64, EstimateRequest)> = spot_checks
            .iter()
            .enumerate()
            .map(|(i, r)| (7000 + step * 16 + i as u64, r.clone()))
            .collect();
        let outcome = client
            .query_at_epoch(&now_a, &now_b, &queries, ack.epoch)
            .unwrap_or_else(|e| panic!("pinned query step {step}: {e}"));
        assert_eq!(outcome.reports.epoch, ack.epoch);
        assert!(!outcome.uploaded, "updates keep the session cached");
        for ((seed, request), served) in queries.iter().zip(&outcome.reports.reports) {
            let local = mirror.estimate_seeded(request, Seed(*seed)).unwrap();
            assert_eq!(served, &local, "{} (step {step})", request.name());
        }

        // Stale addresses fail typed: yesterday's fingerprints, a
        // wrong expected epoch, and a pin on a retired epoch all name
        // where the session is *now* — and none of them corrupt it.
        let stale_q = client.query(&pre_a, &pre_b, &probe).unwrap_err();
        assert!(
            stale_q.to_string().contains("stale epoch:"),
            "stale query: {stale_q}"
        );
        let stale_u = client
            .update(&now_a, &now_b, mirror.epoch() + 1, &batch)
            .unwrap_err();
        assert!(
            stale_u.to_string().contains("stale epoch:"),
            "stale update: {stale_u}"
        );
        if ack.epoch > 0 {
            let stale_pin = client
                .query_at_epoch(&now_a, &now_b, &queries, ack.epoch - 1)
                .unwrap_err();
            assert!(
                stale_pin.to_string().contains("stale epoch:"),
                "stale pin: {stale_pin}"
            );
        }
    }

    // Full catalog at the final epoch: all 14 protocols bit-identical.
    let (fa, fb) = {
        let (x, y) = mirror.csr_halves().unwrap();
        (x.clone(), y.clone())
    };
    let catalog: Vec<(u64, EstimateRequest)> = EstimateRequest::catalog()
        .into_iter()
        .enumerate()
        .map(|(i, r)| (9100 + i as u64, r))
        .collect();
    let outcome = client
        .query_at_epoch(&fa, &fb, &catalog, mirror.epoch())
        .expect("final catalog query");
    assert_eq!(outcome.reports.reports.len(), 14);
    for ((seed, request), served) in catalog.iter().zip(&outcome.reports.reports) {
        let local = mirror.estimate_seeded(request, Seed(*seed)).unwrap();
        assert_eq!(served, &local, "{} at final epoch", request.name());
    }

    // One live session, every superseded epoch accounted.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.sessions, 1, "updates rekey, never duplicate");
    assert_eq!(stats.superseded, steps, "every update retires one epoch");
    server.shutdown();
}

/// The party path: a party host accepts `KIND_UPDATE` between runs,
/// `update_split_party` keeps its half in lockstep with the initiator's
/// mirror, and remote runs after each mutation stay bit-identical to
/// local ones.
#[test]
fn party_updates_keep_remote_runs_bit_identical() {
    let a = Workloads::bernoulli_bits(12, 16, 0.3, 51);
    let b = Workloads::bernoulli_bits(16, 12, 0.3, 52);
    let host = PartyHost::spawn_split(
        "127.0.0.1:0",
        Session::new(a.clone(), b.clone()).party_view(Party::Bob),
    )
    .expect("bind updatable host");
    let addr = host.addr().to_string();
    let mut mirror = Session::new(a, b);

    let spot_checks = [
        EstimateRequest::ExactL1,
        EstimateRequest::TrivialBinary,
        EstimateRequest::LpNorm {
            p: PNorm::Zero,
            eps: 0.3,
        },
    ];
    for step in 0..3u64 {
        let bob_ops = UpdateBatch::new()
            .delete_entry(UpdateSide::Bob, (step * 5 % 16) as u32, (step % 12) as u32)
            .append_row(UpdateSide::Bob, vec![((step % 16) as u32, 1)]);
        let batch = bob_ops.clone().set_entry(
            UpdateSide::Alice,
            (step % 12) as u32,
            (step * 3 % 16) as u32,
            1,
        );
        let (_, epoch) = update_split_party(&addr, Party::Bob, 0, mirror.epoch(), &bob_ops, None)
            .unwrap_or_else(|e| panic!("update step {step}: {e}"));
        mirror.apply_update(&batch).unwrap();
        assert_eq!(epoch, mirror.epoch(), "remote and mirror epochs agree");
        for (i, request) in spot_checks.iter().enumerate() {
            let seed = Seed(3000 + step * 16 + i as u64);
            let local = mirror.estimate_seeded(request, seed).unwrap();
            let (remote, _, _) =
                run_with_party_view(&addr, &mirror.party_view(Party::Alice), request, seed)
                    .unwrap_or_else(|e| panic!("{} step {step}: {e}", request.name()));
            assert_eq!(remote.output, local.output, "{} output", request.name());
            assert_eq!(
                remote.transcript.records,
                local.transcript.records,
                "{} transcript",
                request.name()
            );
        }
    }

    // A stale mirror (out-of-date epoch) is rejected typed and leaves
    // the host's session untouched for the next valid run.
    let stale = {
        let (x, y) = mirror.csr_halves().unwrap();
        Session::new(x.clone(), y.clone())
    };
    let err = update_split_party(
        &addr,
        Party::Bob,
        0,
        stale.epoch(),
        &UpdateBatch::new().set_entry(UpdateSide::Bob, 0, 0, 1),
        None,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("stale epoch:"),
        "stale party update: {err}"
    );
    assert_eq!(
        stale.epoch(),
        0,
        "rejected update must not touch the mirror"
    );
    let request = EstimateRequest::ExactL1;
    let local = mirror.estimate_seeded(&request, Seed(4001)).unwrap();
    let (remote, _, _) = run_with_party_view(
        &addr,
        &mirror.party_view(Party::Alice),
        &request,
        Seed(4001),
    )
    .expect("host survives a stale update");
    assert_eq!(remote.output, local.output);
    host.shutdown();
}
