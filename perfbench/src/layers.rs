//! The per-layer sweep of a traced run: isolated calls into each layer
//! at the inputs of the workload the layer metric belongs to, plus the
//! daemon and party-host registries. Every workload's traced run makes
//! the same sweep, so every per-layer metric is reported on each.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::adapter::{
    self, Bits, Codec, Error, L0Rows, Local, LpSketches, Metrics, Pair, Query, Report,
};
use crate::spans::Spans;
use crate::stats::{self, derive, Outcomes};
use crate::workloads::{
    BatchN512, Run, ServeStream, ServeWire, SplitJoin, Workload, BATCH_MIX, BATCH_WORKERS,
    SPLIT_MIX,
};

/// Collected metrics plus the outcome of every answer checked.
#[derive(Default)]
pub struct Sweep {
    /// `(name, value, unit)` in the order measured.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Answer checks made during the sweep.
    pub outcomes: Outcomes,
}

impl Sweep {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Median wall time of `f` in ms: at least `min_reps` calls and then
/// more until `budget_ms` has been spent (at most 200 calls).
fn time_ms(min_reps: usize, budget_ms: f64, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps
        || (start.elapsed().as_secs_f64() * 1e3 < budget_ms && samples.len() < 200)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&samples)
}

/// A timed, checked in-process answer: median ms and the report.
/// Repeats must reproduce the first report exactly. The first call
/// warms caches and is not timed.
fn fused(local: &Local, query: &Query, outcomes: &mut Outcomes) -> Result<(f64, Report), Error> {
    let first = local.answer(query)?;
    let mut same = true;
    let ms = time_ms(1, 150.0, || {
        let again = local.answer(query);
        same &= again.as_ref().is_ok_and(|r| adapter::same(r, &first));
    });
    outcomes.record::<()>(&Ok(same));
    Ok((ms, first))
}

/// Runs the whole sweep for the workload seed `seed`.
///
/// # Errors
///
/// Any failed call; earlier metrics are discarded.
pub fn sweep(seed: u64) -> Result<Sweep, Error> {
    let mut out = Sweep::default();
    let batch = BatchN512::new(seed)?;
    let split = SplitJoin::with_seed_sets(seed, 1)?;
    let p512 = batch.pair().clone();
    let p256 = split.pair().clone();

    // matrix
    let bits = Bits::of(&p512);
    out.put(
        "matrix.to_csr_ms",
        time_ms(5, 200.0, || bits.to_csr()),
        "ms",
    );

    // sketch
    let lp = LpSketches::new(&p512, derive(seed, 600));
    out.put(
        "sketch.stable_rows_ms",
        time_ms(3, 300.0, || lp.rows()),
        "ms",
    );
    let multi = time_ms(3, 300.0, || lp.rows_multi8());
    out.put("sketch.multi8_ms_per_seed", multi / 8.0, "ms");
    let l0 = L0Rows::new(&p256, derive(seed, 601));
    out.put(
        "sketch.l0sampler_rows_ms",
        time_ms(3, 300.0, || l0.rows()),
        "ms",
    );

    // core: every protocol at the n of the workload that runs it.
    let sessions = [(512, Local::warm(&p512)?), (256, Local::warm(&p256)?)];
    let mut fused_at: BTreeMap<(usize, &'static str), (f64, Report)> = BTreeMap::new();
    let catalog = adapter::catalog();
    let mut measure = |n: usize, idx: usize, outcomes: &mut Outcomes| -> Result<(), Error> {
        let req = &catalog[idx];
        if let Entry::Vacant(slot) = fused_at.entry((n, adapter::name(req))) {
            let local = &sessions
                .iter()
                .find(|s| s.0 == n)
                .expect("n is 256 or 512")
                .1;
            let query = (derive(seed, 700 + idx as u64), req.clone());
            slot.insert(fused(local, &query, outcomes)?);
        }
        Ok(())
    };
    let trivial_idx = catalog
        .iter()
        .position(|r| adapter::name(r) == "trivial-binary")
        .expect("catalog has trivial-binary");
    let home_n = |name: &str| if BATCH_MIX.contains(&name) { 512 } else { 256 };
    for (idx, req) in catalog.iter().enumerate() {
        measure(home_n(adapter::name(req)), idx, &mut out.outcomes)?;
    }
    for n in [256, 512] {
        measure(n, trivial_idx, &mut out.outcomes)?;
    }
    for name in SPLIT_MIX {
        let idx = catalog
            .iter()
            .position(|r| adapter::name(r) == name)
            .expect("catalog");
        measure(256, idx, &mut out.outcomes)?;
    }
    for req in &catalog {
        let name = adapter::name(req);
        let n = home_n(name);
        let (ms, report) = &fused_at[&(n, name)];
        let trivial = adapter::bits(&fused_at[&(n, "trivial-binary")].1);
        let b = adapter::bits(report);
        out.put(format!("core.{name}.fused_ms"), *ms, "ms");
        out.put(format!("core.{name}.bits"), b as f64, "bits");
        out.put(
            format!("core.{name}.rounds"),
            adapter::rounds(report) as f64,
            "rounds",
        );
        let ratio = stats::bits_over_trivial(b, trivial).unwrap_or(0.0);
        out.put(format!("core.{name}.bits_over_trivial"), ratio, "ratio");
    }

    out.put("core.warm_views_ms", warm_views_ms(&p512)?, "ms");

    // The stream's update and its inverse, alternately, on a warm mirror.
    let stream = ServeStream::new(seed)?;
    let (pair0, updates) = stream.updates();
    let mut mirror = Local::warm(pair0)?;
    let mut samples = Vec::new();
    for k in 0..10 {
        let t = Instant::now();
        mirror.apply(&updates[k % 2])?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.put("core.apply_update_ms", stats::median(&samples), "ms");

    out.put(
        "core.engine.parallel_efficiency",
        parallel_efficiency(batch)?,
        "ratio",
    );

    // comm: a 6-round exchange with fixed work per round.
    const ROUNDS: u16 = 6;
    let mut executed = 0;
    let pingpong_ms = time_ms(10, 200.0, || {
        executed = adapter::pingpong(ROUNDS, 20_000).unwrap_or(0);
    });
    out.put(
        "comm.fused.runs_per_round",
        executed as f64 / (2.0 * f64::from(ROUNDS)),
        "ratio",
    );
    out.put("comm.fused.pingpong_us", pingpong_ms * 1e3, "us");

    // net: codec, fingerprint, the daemon's registry.
    let mut wire = ServeWire::new(seed)?;
    let codec = Codec::new(wire.frame_answers().to_vec());
    out.outcomes.record::<()>(&Ok(codec.round_trips()));
    out.put(
        "net.codec.reports_encode_us",
        time_ms(50, 100.0, || codec.encode()) * 1e3,
        "us",
    );
    out.put(
        "net.codec.reports_decode_us",
        time_ms(50, 100.0, || codec.decode()) * 1e3,
        "us",
    );
    out.put(
        "net.fingerprint_us",
        time_ms(50, 100.0, || adapter::fingerprint_a(&p256)) * 1e3,
        "us",
    );
    daemon_probe(&mut wire, &mut out)?;
    stream_probe(stream, &mut out)?;
    split_probe(split, &fused_at, &mut out)?;
    Ok(out)
}

/// `Session::warm_views` on fresh sessions: the call alone, median ms.
fn warm_views_ms(pair: &Pair) -> Result<f64, Error> {
    let mut samples = Vec::new();
    for _ in 0..3 {
        let cold = Local::cold(pair);
        let t = Instant::now();
        cold.warm_views()?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&samples))
}

/// Σ single-thread query time of a batch ÷ (workers × batch wall time).
fn parallel_efficiency(mut batch: BatchN512) -> Result<f64, Error> {
    batch.setup()?;
    let requests = batch.requests().to_vec();
    let engine = batch.engine();
    engine.run(&requests, 0)?;
    // Fresh seeds for both measurements, so neither reads the other's
    // cached sketches.
    let first = requests.len() as u64;
    let mut fused_ms = Vec::new();
    for i in 0..requests.len() {
        let t = Instant::now();
        engine.run_one(&requests, first, i)?;
        fused_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    engine.run(&requests, 2 * first)?;
    let wall = t.elapsed().as_secs_f64() * 1e3;
    batch.teardown();
    Ok(stats::parallel_efficiency(&fused_ms, BATCH_WORKERS, wall))
}

/// A short serve-wire stretch, then the daemon's phase histograms and
/// reactor counters.
fn daemon_probe(wire: &mut ServeWire, out: &mut Sweep) -> Result<(), Error> {
    let mut run = Run::default();
    let mut spans = Spans::new(false);
    wire.setup()?;
    for _ in 0..20 {
        wire.pass(&mut run, &mut spans)?;
    }
    wire.drain(&mut run, &mut spans)?;
    let m = wire.metrics()?;
    wire.teardown();
    out.outcomes.absorb(run.all_outcomes());
    let phases = ["decode", "lookup", "run", "encode"];
    let mut phase_sum = 0.0;
    for phase in phases {
        let p50 = adapter::quantile(&m, &format!("phase.{phase}_us"), 0.5);
        phase_sum += p50;
        out.put(format!("net.daemon.{phase}_us_p50"), p50, "us");
    }
    let mut frames_ms = run.latency_values();
    frames_ms.sort_by(f64::total_cmp);
    let frame_us = |q: f64| stats::percentile(&frames_ms, q) * 1e3;
    out.put("net.daemon.wait_us_p50", frame_us(50.0) - phase_sum, "us");
    let tail = stats::tail(&frames_ms);
    out.put(
        "net.daemon.wait_us_tail",
        frame_us(tail.pct) - phase_sum,
        "us",
    );
    let served = adapter::counter(&m, "queries.served").max(1) as f64;
    out.put(
        "net.reactor.wakeups_per_query",
        adapter::counter_sum(&m, "reactor.wakeup.") as f64 / served,
        "count",
    );
    out.put(
        "net.reactor.write_pass_us_p50",
        adapter::quantile(&m, "reactor.write_pass_us", 0.5),
        "us",
    );
    out.put(
        "net.backpressure.pauses",
        adapter::counter(&m, "backpressure.pause") as f64,
        "count",
    );
    Ok(())
}

/// A few serve-stream epochs, then the daemon's sketch-cache counters.
fn stream_probe(mut stream: ServeStream, out: &mut Sweep) -> Result<(), Error> {
    let mut run = Run::default();
    let mut spans = Spans::new(false);
    stream.setup()?;
    for _ in 0..2 {
        stream.pass(&mut run, &mut spans)?;
    }
    let m: Metrics = stream.metrics()?;
    stream.teardown();
    out.outcomes.absorb(run.all_outcomes());
    let hits = adapter::counter(&m, "sketch.cache.hits") as f64;
    let misses = adapter::counter(&m, "sketch.cache.misses") as f64;
    let share = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    out.put("core.sketch_cache.hit_share", share, "ratio");
    Ok(())
}

/// Handshakes and each split protocol over loopback, against the fused
/// run of the same query at n=256.
fn split_probe(
    mut split: SplitJoin,
    fused_at: &BTreeMap<(usize, &'static str), (f64, Report)>,
    out: &mut Sweep,
) -> Result<(), Error> {
    split.setup()?;
    let (host, alice) = split.parties();
    let addr = host.addr();
    out.put(
        "net.split.handshake_ms",
        time_ms(10, 100.0, || {
            let _ = alice.handshake(&addr);
        }),
        "ms",
    );
    let (queries, want) = split.queries();
    for (query, want) in queries.iter().zip(want) {
        let name = adapter::name(&query.1);
        let mut bytes = 0;
        let mut ok = true;
        let ms = time_ms(2, 150.0, || match alice.run(&addr, query) {
            Ok((report, b)) => {
                bytes = b;
                ok &= adapter::same(&report, want);
            }
            Err(_) => ok = false,
        });
        out.outcomes.record::<()>(&Ok(ok));
        let fused_ms = fused_at[&(256, name)].0;
        let logical_bytes = adapter::bits(want).div_ceil(8).max(1);
        out.put(format!("net.split.{name}.ms"), ms, "ms");
        out.put(
            format!("net.split.{name}.remote_over_fused"),
            ms / fused_ms,
            "ratio",
        );
        out.put(
            format!("net.split.{name}.framing_overhead"),
            bytes as f64 / logical_bytes as f64,
            "ratio",
        );
    }
    let m = split.parties().0.metrics();
    let runs = adapter::counter(&m, "party.runs").max(1) as f64;
    out.put(
        "net.split.host_bits_per_run",
        adapter::counter(&m, "party.bits") as f64 / runs,
        "bits",
    );
    split.teardown();
    Ok(())
}
