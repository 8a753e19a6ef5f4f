//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-wire|batch-n512|split-join|serve-stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's inputs from `--seed`, sets the program
//! up several times (the median is `setup_s`), runs one untimed warm-up
//! pass, then measures closed-loop requests for `--seconds`, checking
//! every answer. With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` it runs the window twice (untraced, then with
//! spans) and adds the per-layer sweep. The last line of standard
//! output is one JSON object; the exit code is nonzero when any
//! operation failed or any answer was wrong.

mod adapter;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use spans::Spans;
use stats::Outcomes;
use workloads::{Kind, Run, Workload};

/// Set-ups per run (at least; more while under [`SETUP_BUDGET_S`]);
/// `setup_s` is their median.
const SETUP_REPS: usize = 9;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 100;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs passes until `seconds` have gone by, then completes what is in
/// flight. Stops at the first failed operation. Each pass's query rate
/// is kept, so throughput is the median pass rather than the mean that
/// one stalled pass could drag down; deferred checks run between passes,
/// outside the pass times.
fn window(w: &mut dyn Workload, seconds: f64, spans: &mut Spans) -> Run {
    let start = Instant::now();
    passes(w, spans, |_| start.elapsed().as_secs_f64() < seconds)
}

/// Runs passes while `more(passes_done)` holds; see [`window`].
fn passes(w: &mut dyn Workload, spans: &mut Spans, mut more: impl FnMut(usize) -> bool) -> Run {
    let mut run = Run::default();
    let bytes0 = w.wire_bytes();
    let start = Instant::now();
    let mut ok = true;
    while ok && more(run.pass_rates.len()) {
        let (t, queries) = (Instant::now(), run.queries);
        ok = w.pass(&mut run, spans).is_ok();
        let rate = (run.queries - queries) as f64 / t.elapsed().as_secs_f64();
        run.pass_rates.push(rate);
        w.settle(&mut run);
    }
    if ok {
        let _ = w.drain(&mut run, spans);
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run.wire_bytes += w.wire_bytes() - bytes0;
    run
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn per_query(total: u64, queries: u64) -> f64 {
    total as f64 / queries.max(1) as f64
}

/// The end-to-end metrics every workload reports, plus (for the human
/// report only) those that exist on some workloads.
fn end_to_end(kind: Kind, setup_s: f64, run: &Run, outcomes: &Outcomes) -> (Metrics, Metrics) {
    let mut gated: Metrics = vec![("setup_s".into(), setup_s, "s")];
    let mut extra: Metrics = Vec::new();
    gated.push(("qps".into(), stats::median(&run.pass_rates), "queries/s"));
    extra.push((
        "qps_whole_window".into(),
        run.queries as f64 / run.elapsed_s,
        "queries/s",
    ));
    if !run.latencies_ms.is_empty() {
        // Latencies are summarised class by class (split-join's seven
        // statistics differ by two orders of magnitude) and the classes
        // weigh equally, so neither figure jumps between classes when
        // their shares of the window shift. The tail is read off every
        // request's latency over its class median, so all classes feed
        // one sample of a fixed percentile.
        let classes = stats::by_class(&run.latencies_ms);
        let medians: BTreeMap<&str, f64> = classes
            .iter()
            .map(|(class, samples)| (*class, stats::median(samples)))
            .collect();
        let p50 = stats::geomean(&medians.values().copied().collect::<Vec<_>>());
        let tail = stats::steady_tail(&stats::over_class_median(&run.latencies_ms, &medians));
        gated.push(("request_p50_ms".into(), p50, "ms"));
        gated.push(("request_tail_ms".into(), p50 * tail.value, "ms"));
        extra.push(("request_tail_over_p50".into(), tail.value, "ratio"));
        extra.push(("request_tail_pct".into(), tail.pct, "%"));
        extra.push(("request_tail_blocks".into(), tail.blocks as f64, "count"));
        extra.push(("requests".into(), tail.count as f64, "count"));
        for (class, samples) in &classes {
            // The whole-sample ladder tail still shows rare stalls, which
            // the blocked tail leaves out by design.
            let pooled = stats::tail(samples);
            extra.push((format!("latency.{class}.p50_ms"), medians[class], "ms"));
            extra.push((
                format!("latency.{class}.pooled_tail_ms"),
                pooled.value,
                "ms",
            ));
            extra.push((format!("latency.{class}.pooled_tail_pct"), pooled.pct, "%"));
            extra.push((
                format!("latency.{class}.requests"),
                pooled.count as f64,
                "count",
            ));
        }
    }
    gated.push((
        "bits_per_query".into(),
        per_query(run.bits, run.queries),
        "bits",
    ));
    gated.push((
        "rounds_per_query".into(),
        per_query(run.rounds, run.queries),
        "rounds",
    ));
    gated.push(("peak_rss_mb".into(), peak_rss_mb(), "MiB"));
    if !run.update_ms.is_empty() {
        let tail = stats::steady_tail(&run.update_ms);
        extra.push(("update_p50_ms".into(), stats::median(&run.update_ms), "ms"));
        extra.push(("update_tail_ms".into(), tail.value, "ms"));
        extra.push(("update_tail_pct".into(), tail.pct, "%"));
    }
    if kind != Kind::BatchN512 {
        extra.push((
            "wire_bytes_per_query".into(),
            per_query(run.wire_bytes, run.queries),
            "bytes",
        ));
    }
    extra.push(("failed_share".into(), outcomes.failed_share(), "ratio"));
    (gated, extra)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(outcomes: &Outcomes, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcomes.failed() == 0,
        outcomes.attempted.max(1),
        outcomes.failed()
    )
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("# {title}");
    for (name, value, unit) in metrics {
        println!("{name:<48} {value:>16.6} {unit}");
    }
}

/// Writes the traced window's spans as JSON lines beside the build.
fn write_spans(kind: Kind, seed: u64, spans: &Spans) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let dir = std::path::Path::new(&dir).join("perfbench-traces");
    let path = dir.join(format!("{}-seed{seed}.jsonl", kind.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    match written {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
    }
}

/// Per-request self time of each layer the traced window's spans name.
fn span_metrics(spans: &Spans, requests: usize) -> Metrics {
    let by_layer = spans::self_time_by_layer(spans.spans());
    ["net", "core", "check"]
        .into_iter()
        .map(|layer| {
            let ns = by_layer.get(layer).copied().unwrap_or(0);
            (
                format!("trace.{layer}.self_ms_per_request"),
                ns as f64 / 1e6 / requests.max(1) as f64,
                "ms",
            )
        })
        .collect()
}

fn run(args: &Args) -> Result<(Outcomes, Metrics, Metrics), adapter::Error> {
    let mut w = args.kind.build(args.seed)?;
    let mut outcomes = w.reference_checks();
    let mut setups = Vec::new();
    let begun = Instant::now();
    while setups.len() < SETUP_REPS
        || (begun.elapsed().as_secs_f64() < SETUP_BUDGET_S && setups.len() < SETUP_MAX_REPS)
    {
        if !setups.is_empty() {
            w.teardown();
        }
        let t = Instant::now();
        let started = w.setup();
        setups.push(t.elapsed().as_secs_f64());
        outcomes.record(&started.as_ref().map(|()| true));
        if let Err(e) = started {
            w.teardown();
            return Err(e);
        }
    }
    let setup_s = stats::median(&setups);
    // The warm-up pass runs the same queries under the same seeds on
    // every run with this seed, so its costs must repeat exactly.
    let mut off = Spans::new(false);
    let warm = passes(w.as_mut(), &mut off, |done| done == 0);
    outcomes.absorb(warm.all_outcomes());
    if warm.all_outcomes().failed() > 0 {
        w.teardown();
        return Err(adapter::Error::protocol("the warm-up pass failed"));
    }
    let repeatable: Metrics = vec![
        (
            "warmup_bits_per_query".into(),
            per_query(warm.bits, warm.queries),
            "bits",
        ),
        (
            "warmup_rounds_per_query".into(),
            per_query(warm.rounds, warm.queries),
            "rounds",
        ),
        (
            "warmup_wire_bytes_per_query".into(),
            per_query(warm.wire_bytes, warm.queries),
            "bytes",
        ),
    ];
    if !args.trace {
        let run = window(w.as_mut(), args.seconds, &mut off);
        w.teardown();
        outcomes.absorb(run.all_outcomes());
        let (gated, mut extra) = end_to_end(args.kind, setup_s, &run, &outcomes);
        extra.extend(repeatable);
        return Ok((outcomes, gated, extra));
    }
    let half = args.seconds / 2.0;
    let untraced = window(w.as_mut(), half, &mut off);
    let mut spans = Spans::new(true);
    let traced = window(w.as_mut(), half, &mut spans);
    w.teardown();
    outcomes.absorb(untraced.all_outcomes());
    outcomes.absorb(traced.all_outcomes());
    let qps = |r: &Run| stats::median(&r.pass_rates);
    let sweep = layers::sweep(args.seed)?;
    outcomes.absorb(sweep.outcomes);
    let mut per_layer: Metrics = sweep.metrics;
    per_layer.push((
        "obs.trace_overhead_pct".into(),
        stats::overhead_pct(qps(&untraced), qps(&traced)),
        "%",
    ));
    per_layer.extend(span_metrics(&spans, traced.latencies_ms.len()));
    write_spans(args.kind, args.seed, &spans);
    let (_, mut extra) = end_to_end(args.kind, setup_s, &untraced, &outcomes);
    extra.extend(repeatable);
    Ok((outcomes, per_layer, extra))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((outcomes, reported, extra)) => {
            println!(
                "# workload {} seed {} seconds {} trace {}",
                args.kind.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            print_metrics("reported", &reported);
            print_metrics("also measured", &extra);
            println!("{}", result_line(&outcomes, &reported));
            if outcomes.failed() == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed",
                    outcomes.failed(),
                    outcomes.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            ExitCode::FAILURE
        }
    }
}
