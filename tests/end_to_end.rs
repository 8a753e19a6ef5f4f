//! End-to-end integration: every protocol on one shared workload through
//! one reusable [`Session`], with cross-protocol consistency checks.

use mpest::prelude::*;

/// One workload shared by all the tests below: a pair of relations with
/// a planted heavy pair, a session over it, plus its exact product
/// statistics.
struct World {
    session: Session,
    a_bits: BitMatrix,
    b_bits: BitMatrix,
    a: CsrMatrix,
    b: CsrMatrix,
    c: CsrMatrix,
}

fn world() -> World {
    let (a_bits, b_bits, _) = Workloads::planted_pairs(96, 128, 0.08, &[(5, 9)], 56, 404);
    let a = a_bits.to_csr();
    let b = b_bits.to_csr();
    let c = a.matmul(&b);
    World {
        session: Session::builder(a_bits.clone(), b_bits.clone())
            .seed(Seed(404))
            .build(),
        a_bits,
        b_bits,
        a,
        b,
        c,
    }
}

#[test]
fn lp_norm_all_p_agree_with_ground_truth() {
    let w = world();
    for p in [PNorm::Zero, PNorm::ONE, PNorm::TWO, PNorm::P(0.5)] {
        let truth = norms::csr_lp_pow(&w.c, p);
        let mut ok = 0;
        for t in 0..9 {
            let run = w
                .session
                .run_seeded(&LpNorm, &LpParams::new(p, 0.25), Seed(t))
                .unwrap();
            assert_eq!(run.rounds(), 2);
            if (run.output - truth).abs() <= 0.3 * truth {
                ok += 1;
            }
        }
        assert!(ok >= 6, "p={p:?}: {ok}/9 within tolerance");
    }
}

#[test]
fn exact_l1_matches_lp_protocol_in_expectation() {
    let w = world();
    let exact = w.session.run_seeded(&ExactL1, &(), Seed(0)).unwrap().output as f64;
    assert_eq!(exact, norms::csr_lp_pow(&w.c, PNorm::ONE));
    // Algorithm 1 at p=1 should bracket the exact value.
    let mut sum = 0.0;
    for t in 0..12 {
        sum += w
            .session
            .run_seeded(&LpNorm, &LpParams::new(PNorm::ONE, 0.3), Seed(100 + t))
            .unwrap()
            .output;
    }
    let mean = sum / 12.0;
    assert!(
        (mean - exact).abs() < 0.2 * exact,
        "mean {mean} vs exact {exact}"
    );
}

#[test]
fn trivial_protocol_is_the_exact_reference() {
    let w = world();
    let run = w.session.run_seeded(&TrivialBinary, &(), Seed(0)).unwrap();
    assert_eq!(run.output.l0, norms::csr_lp_pow(&w.c, PNorm::Zero));
    assert_eq!(run.output.l1, norms::csr_lp_pow(&w.c, PNorm::ONE));
    assert_eq!(run.output.l2_sq, norms::csr_lp_pow(&w.c, PNorm::TWO));
    assert_eq!(run.output.linf.0, norms::csr_linf(&w.c).0);
}

#[test]
fn sparse_matmul_reconstructs_product() {
    let w = world();
    let run = w.session.run_seeded(&SparseMatmul, &(), Seed(3)).unwrap();
    assert_eq!(run.output.reconstruct(w.a.rows(), w.b.cols()), w.c);
    assert_eq!(run.rounds(), 2);
}

#[test]
fn linf_protocols_bracket_truth() {
    let w = world();
    let truth = norms::csr_linf(&w.c).0 as f64;
    // Algorithm 2: 2+eps.
    let run = w
        .session
        .run_seeded(&LinfBinary, &LinfBinaryParams::new(0.25), Seed(4))
        .unwrap();
    assert!(run.output.estimate >= truth / 3.0 && run.output.estimate <= 1.8 * truth);
    // Algorithm 3: kappa.
    let kappa = 6.0;
    let run = w
        .session
        .run_seeded(&LinfKappa, &LinfKappaParams::new(kappa), Seed(5))
        .unwrap();
    assert!(
        run.output.estimate >= truth / (3.0 * kappa) && run.output.estimate <= 3.0 * kappa * truth,
        "kappa estimate {} vs truth {truth}",
        run.output.estimate
    );
    // Theorem 4.8 on the integer view.
    let run = w
        .session
        .run_seeded(&LinfGeneral, &LinfGeneralParams::new(4), Seed(6))
        .unwrap();
    assert!(run.output >= 0.4 * truth && run.output <= 8.0 * truth);
}

#[test]
fn heavy_hitter_protocols_find_planted_pair() {
    let w = world();
    let l1 = norms::csr_lp_pow(&w.c, PNorm::ONE);
    let heavy = w.c.get(5, 9) as f64;
    let phi = ((heavy - 6.0) / l1).min(0.9);
    let eps = (phi / 2.0).min(0.4);
    let mut bin_hits = 0;
    let mut gen_hits = 0;
    for t in 0..7 {
        let run = w
            .session
            .run_seeded(&HhBinary, &HhBinaryParams::new(1.0, phi, eps), Seed(70 + t))
            .unwrap();
        if run.output.contains(5, 9) {
            bin_hits += 1;
        }
        let run = w
            .session
            .run_seeded(
                &HhGeneral,
                &HhGeneralParams::new(1.0, phi, eps),
                Seed(70 + t),
            )
            .unwrap();
        if run.output.contains(5, 9) {
            gen_hits += 1;
        }
    }
    assert!(bin_hits >= 5, "binary HH missed planted pair: {bin_hits}/7");
    assert!(
        gen_hits >= 5,
        "general HH missed planted pair: {gen_hits}/7"
    );
}

#[test]
fn samples_come_from_the_support() {
    let w = world();
    for t in 0..10 {
        match w
            .session
            .run_seeded(&L0Sample, &L0SampleParams::new(0.3), Seed(200 + t))
            .unwrap()
            .output
        {
            MatrixSample::Sampled { row, col, value } => {
                assert_eq!(w.c.get(row as usize, col), value);
                assert!(value > 0);
            }
            MatrixSample::Failed => {}
            MatrixSample::ZeroMatrix => panic!("product is not zero"),
        }
        if let Some(s) = w
            .session
            .run_seeded(&L1Sampling, &(), Seed(300 + t))
            .unwrap()
            .output
        {
            assert_eq!(w.a.get(s.row as usize, s.witness), 1);
            assert_eq!(w.b.get(s.witness as usize, s.col), 1);
        }
    }
}

#[test]
fn join_view_matches_matrix_view() {
    // The database story of Section 1.1: composition and natural join
    // sizes computed via set families equal the matrix norms protocols
    // estimate.
    let w = world();
    let alice_sets = SetFamily::from_row_matrix(&w.a_bits);
    let bob_sets = SetFamily::from_row_matrix(&w.b_bits.transpose());
    let stats = joins::join_stats(&alice_sets, &bob_sets);
    assert_eq!(
        stats.composition_size as f64,
        norms::csr_lp_pow(&w.c, PNorm::Zero)
    );
    assert_eq!(
        stats.natural_join_size as f64,
        norms::csr_lp_pow(&w.c, PNorm::ONE)
    );
    assert_eq!(stats.max_overlap.0 as i64, norms::csr_linf(&w.c).0);
}

#[test]
fn runs_are_reproducible_from_seeds() {
    // Same seed => identical output AND identical transcript, despite the
    // two parties running on real threads. This is the determinism
    // contract every experiment relies on.
    let w = world();
    let params = LpParams::new(PNorm::ONE, 0.3);
    let r1 = w.session.run_seeded(&LpNorm, &params, Seed(777)).unwrap();
    let r2 = w.session.run_seeded(&LpNorm, &params, Seed(777)).unwrap();
    assert_eq!(r1.output.to_bits(), r2.output.to_bits());
    assert_eq!(r1.transcript, r2.transcript);

    let hh_params = HhBinaryParams::new(1.0, 0.01, 0.005);
    let h1 = w
        .session
        .run_seeded(&HhBinary, &hh_params, Seed(88))
        .unwrap();
    let h2 = w
        .session
        .run_seeded(&HhBinary, &hh_params, Seed(88))
        .unwrap();
    assert_eq!(h1.output.positions(), h2.output.positions());
    assert_eq!(h1.bits(), h2.bits());
}

#[test]
fn baseline_vs_algorithm1_separation() {
    // The paper's headline: at equal accuracy, 2 rounds beat 1 round by
    // a factor ~1/eps in bits.
    let w = world();
    let eps = 0.05;
    let two = w
        .session
        .run_seeded(&LpNorm, &LpParams::new(PNorm::Zero, eps), Seed(1))
        .unwrap();
    let one = w
        .session
        .run_seeded(&LpBaseline, &BaselineParams::new(PNorm::Zero, eps), Seed(1))
        .unwrap();
    assert!(
        one.bits() > 3 * two.bits(),
        "{} vs {}",
        one.bits(),
        two.bits()
    );
    assert_eq!(one.rounds(), 1);
    assert_eq!(two.rounds(), 2);
}
