//! `mpest` — command-line driver for the distributed matrix-product
//! estimation protocols.
//!
//! ```text
//! mpest gen --kind bernoulli --rows 256 --cols 256 --density 0.1 --seed 1 --out a.mtx
//! mpest exact --a a.mtx --b b.mtx
//! mpest run l0 --a a.mtx --b b.mtx --eps 0.2 --seed 7
//! mpest run linf-binary --a a.mtx --b b.mtx --eps 0.25
//! mpest run hh-binary --a a.mtx --b b.mtx --phi 0.01 --hh-eps 0.005
//! ```
//!
//! Matrices use the MatrixMarket-style coordinate format of
//! `mpest_matrix::io` (1-based `row col [value]` triplets).

use mpest::comm::NetworkModel;
use mpest::matrix::io;
use mpest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  mpest gen --kind bernoulli|zipf|integer --rows R --cols C [--density D] [--set-size K]
            [--max-val V] [--seed S] --out FILE
  mpest exact --a FILE --b FILE
  mpest run PROTOCOL --a FILE --b FILE [options] [--format text|json]
  mpest batch --a FILE --b FILE --requests FILE.jsonl [--workers N] [--seed S]
            [--executor fused|threaded]
  mpest verify [--protocol NAME] [--trials N] [--quick] [--seed S]
  mpest serve --listen ADDR [--workers N] [--io-timeout SECS] [--idle-timeout SECS]
            [--max-sessions N] [--no-obs]
            [--trace-out FILE [--trace-format jsonl|chrome]]
  mpest stats --connect ADDR [--format text|json]
  mpest shutdown --connect ADDR
  mpest party --listen ADDR [--side alice|bob]
            (--a FILE --b FILE | --matrix FILE --peer-rows N --peer-cols N [--peer-binary])
  mpest query PROTOCOL (--connect ADDR | --party ADDR)
            (--a FILE --b FILE
             | --matrix FILE --peer-rows N --peer-cols N [--peer-binary] (--party only))
            [--peer-fp FP (--party only)] [options] [--side alice|bob] [--format text|json]
            [--at-epoch N (--connect only)]
            [--io-timeout SECS] [--reply-timeout SECS (--connect only)]
  mpest update --connect ADDR --a FILE --b FILE --ops FILE.jsonl
            [--out-a FILE] [--out-b FILE] [--io-timeout SECS] [--reply-timeout SECS]

verify runs the Monte-Carlo statistical-guarantee sweep: every protocol
(or just --protocol NAME) over generated dense/sparse/power-law/skewed/
integer workloads, N seeded trials each through the batch engine, scored
against exact references and gated on each protocol's (eps, delta)
contract. Exits nonzero on any contract violation. --quick shrinks the
matrices and trial counts to the CI-smoke scale.

serve runs the estimation daemon: clients send requests plus matrix
fingerprints, upload each matrix pair once (fingerprint-keyed session
cache, LRU-capped at --max-sessions, default 64, 0 = unbounded), and
get back outputs + transcripts bit-identical to a local run under the
same seed, with real-socket byte accounting. --io-timeout (default 30,
0 = none) bounds in-flight frames and writes; --idle-timeout (default
0 = none) bounds how long a connection may sit idle between queries.
serve records an observability registry (cache hits, per-phase
latency histograms, reactor wakeup causes, spool depth, backpressure
transitions) alongside the core counters; --no-obs drops the extended
tier to zero cost. --trace-out streams one span per query (decode/
lookup/run/encode phase timings, cache tag) as JSON lines, or as a
chrome://tracing array with --trace-format chrome. stats --connect
pulls the live registry from a running daemon; --format json emits the
raw snapshot.
query --connect talks to it: --reply-timeout (default 600, 0 = wait
forever) bounds the wait for a reply to start, generous because the
server may legitimately compute a heavy batch for minutes. party hosts
one side (default bob) of a remote two-party run; query --party plays
the other side so every protocol message crosses the socket, matching
the initiator's --io-timeout for the run (host-clamped at 600s).

party and query --party are storage-split: each process holds ONE half.
--matrix loads only that half, and the peer is known by shape and
representation alone (--peer-rows/--peer-cols/--peer-binary); --a/--b
loads both files and keeps only this side's half. The connection opens
with a bidirectional party-hello handshake — shape, binariness, content
fingerprint, and per-side epoch are cross-checked both ways, and any
divergence fails typed before a protocol frame moves. query --peer-fp
additionally pins the host half's content fingerprint (as printed in a
previous run's party-hello, decimal or 0x-hex). Outputs and transcripts
are bit-identical to an in-process run over the assembled pair.

batch requests file: one JSON object per line, {\"protocol\": NAME, ...flags},
e.g. {\"protocol\": \"l0\", \"eps\": 0.2} — keys match the run flags
below ('#' lines and blank lines are skipped). The batch executes across a
worker pool (--workers 0 = one per core) and is bit-identical to running
the requests sequentially in file order. A request may pin \"epoch\": N
to a session snapshot: the batch refuses to run if the loaded pair's
epoch (0 for freshly loaded files) differs from any pinned epoch.

update pushes a live mutation batch into the session a daemon caches
for the pair. The local files are the mirror: their fingerprints and
epoch name the remote session, the ops apply locally after the daemon
acknowledges, and the mutated pair is written to --out-a/--out-b
(defaulting to overwriting --a/--b) so the next query starts from the
synced snapshot. Files carry no epoch, so a mirror loaded from them
always names epoch 0, and a second update from the synced files is
refused as stale. Party hosts ingest per-side batches through the
library's update_split_party; no CLI command sends them. The ops file
is one JSON object per line:
  {\"op\": \"set\",    \"side\": \"alice|bob\", \"row\": R, \"col\": C, \"val\": V}
  {\"op\": \"delete\", \"side\": \"alice|bob\", \"row\": R, \"col\": C}
  {\"op\": \"append-row\", \"side\": \"alice|bob\", \"entries\": \"IDX:VAL,IDX:VAL,...\"}
query --at-epoch N pins a daemon query to an exact session epoch; the
daemon answers only at that epoch and otherwise replies with a typed
stale-epoch error naming its current identity.

protocols and their options:
  l0 | l1 | l2 | lp        --eps E [--p P]        (Algorithm 1, 2 rounds)
  lp-baseline              --eps E [--p P]        (one-round [16] baseline)
  exact-l1                                        (Remark 2)
  l1-sample                                       (Remark 3)
  l0-sample                --eps E                (Theorem 3.2)
  sparse-matmul                                   (Lemma 2.5)
  linf-binary              --eps E                (Algorithm 2)
  linf-kappa               --kappa K              (Algorithm 3)
  linf-general             --kappa K              (Theorem 4.8)
  hh-general               --phi F --hh-eps E [--p P]   (Algorithm 4)
  hh-binary                --phi F --hh-eps E [--p P]   (Theorem 5.3)
  at-least-t               --t T [--slack S]      (>= T overlap join)
  trivial | trivial-binary                        (ship A)

common options: --seed S (default 42), --exact (also print ground truth),
  --executor fused|threaded (default fused; bit-identical results; threaded
  runs each party as a remote executor on its own thread over an in-memory
  pipe, paying thread spawns and channel sends the fused executor skips)";

/// Minimal flag parser: `--key value` pairs after the positional words.
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<(Vec<String>, Flags), String> {
        let mut positional = Vec::new();
        let mut map = HashMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(key) = a.strip_prefix("--") {
                if key == "exact" || key == "quick" || key == "peer-binary" || key == "no-obs" {
                    map.insert(key.to_string(), "true".to_string());
                } else {
                    i += 1;
                    let value = args
                        .get(i)
                        .ok_or_else(|| format!("flag --{key} needs a value"))?;
                    map.insert(key.to_string(), value.clone());
                }
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Ok((positional, Flags(map)))
    }

    /// Rejects any flag `subcommand` does not read (`known` lists the
    /// ones it does, whitespace-separated), so a typo fails instead of
    /// silently falling back to a default.
    fn check_known(&self, subcommand: &str, known: &str) -> Result<(), String> {
        // The smallest unknown key, so the error does not depend on
        // hash order.
        let unknown = self
            .0
            .keys()
            .filter(|key| !known.split_whitespace().any(|k| k == key.as_str()))
            .min();
        match unknown {
            Some(key) => Err(format!("unknown flag --{key} for {subcommand}")),
            None => Ok(()),
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.str(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.str(key) {
            None => Ok(default),
            Some(s) => s.parse().map_err(|e| format!("bad --{key}: {e}")),
        }
    }

    fn required_num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.required(key)?
            .parse()
            .map_err(|e| format!("bad --{key}: {e}"))
    }
}

/// The flags each subcommand reads, whitespace-separated, as USAGE lists
/// them (`None` for an unknown subcommand).
fn known_flags(subcommand: &str) -> Option<&'static str> {
    Some(match subcommand {
        "gen" => "kind rows cols density set-size max-val seed out",
        "exact" => "a b",
        "run" => "a b format seed exact executor eps p kappa phi hh-eps t slack",
        "batch" => "a b requests workers seed executor",
        "verify" => "protocol trials quick seed",
        "serve" => {
            "listen workers io-timeout idle-timeout max-sessions no-obs trace-out trace-format"
        }
        "stats" => "connect format",
        "shutdown" => "connect",
        "party" => "listen side a b matrix peer-rows peer-cols peer-binary",
        "query" => {
            "connect party a b matrix peer-rows peer-cols peer-binary peer-fp side format \
             at-epoch io-timeout reply-timeout seed eps p kappa phi hh-eps t slack"
        }
        "update" => "connect a b ops out-a out-b io-timeout reply-timeout",
        _ => return None,
    })
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let (pos, flags) = Flags::parse(args)?;
    if let Some(subcommand) = pos.first() {
        if let Some(known) = known_flags(subcommand) {
            // Before any file is read or port bound.
            flags.check_known(subcommand, known)?;
        }
    }
    match pos.first().map(String::as_str) {
        Some("gen") => cmd_gen(&flags),
        Some("exact") => cmd_exact(&flags),
        Some("run") => {
            let protocol = pos
                .get(1)
                .ok_or_else(|| "run needs a protocol name".to_string())?;
            cmd_run(protocol, &flags)
        }
        Some("batch") => cmd_batch(&flags),
        Some("verify") => {
            if let Some(extra) = pos.get(1) {
                return Err(format!(
                    "verify takes no positional arguments (got {extra:?}); \
                     use --protocol {extra} to restrict the sweep"
                ));
            }
            cmd_verify(&flags)
        }
        Some("serve") => cmd_serve(&flags),
        Some("stats") => cmd_stats(&flags),
        Some("shutdown") => cmd_shutdown(&flags),
        Some("party") => cmd_party(&flags),
        Some("query") => {
            let protocol = pos
                .get(1)
                .ok_or_else(|| "query needs a protocol name".to_string())?;
            cmd_query(protocol, &flags)
        }
        Some("update") => cmd_update(&flags),
        _ => Err(
            "expected a subcommand: gen | exact | run | batch | verify | serve | stats \
             | shutdown | party | query | update"
                .to_string(),
        ),
    }
}

fn cmd_gen(flags: &Flags) -> Result<(), String> {
    let kind = flags.required("kind")?;
    let rows: usize = flags.required_num("rows")?;
    let cols: usize = flags.required_num("cols")?;
    let seed: u64 = flags.num("seed", 42)?;
    let out = PathBuf::from(flags.required("out")?);
    let m = match kind {
        "bernoulli" => {
            let density: f64 = flags.num("density", 0.1)?;
            Workloads::bernoulli_bits(rows, cols, density, seed).to_csr()
        }
        "zipf" => {
            let set_size: usize = flags.num("set-size", 12)?;
            Workloads::zipf_sets(rows, cols, set_size.min(cols), 1.1, seed).to_csr()
        }
        "integer" => {
            let density: f64 = flags.num("density", 0.1)?;
            let max_val: i64 = flags.num("max-val", 8)?;
            Workloads::integer_csr(rows, cols, density, max_val, false, seed)
        }
        other => return Err(format!("unknown --kind {other}")),
    };
    io::write_csr(&m, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {}x{} matrix with {} nonzeros to {}",
        m.rows(),
        m.cols(),
        m.nnz(),
        out.display()
    );
    Ok(())
}

/// Parses the `--executor` flag (default: fused).
fn parse_executor(flags: &Flags) -> Result<ExecBackend, String> {
    match flags.str("executor") {
        None => Ok(ExecBackend::default()),
        Some(s) => s
            .parse::<ExecBackend>()
            .map_err(|e| format!("--executor: {e}")),
    }
}

fn load_pair(flags: &Flags) -> Result<(CsrMatrix, CsrMatrix), String> {
    let a = io::read_csr(Path::new(flags.required("a")?)).map_err(|e| format!("--a: {e}"))?;
    let b = io::read_csr(Path::new(flags.required("b")?)).map_err(|e| format!("--b: {e}"))?;
    if a.cols() != b.rows() {
        return Err(format!(
            "inner dimensions differ: A is {}x{}, B is {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        ));
    }
    Ok((a, b))
}

fn cmd_exact(flags: &Flags) -> Result<(), String> {
    let (a, b) = load_pair(flags)?;
    let c = a.matmul(&b);
    let (linf, (i, j)) = norms::csr_linf(&c);
    println!("exact statistics of C = A*B ({}x{}):", c.rows(), c.cols());
    println!("  ||C||_0   = {}", norms::csr_lp_pow(&c, PNorm::Zero));
    println!("  ||C||_1   = {}", norms::csr_lp_pow(&c, PNorm::ONE));
    println!("  ||C||_2^2 = {}", norms::csr_lp_pow(&c, PNorm::TWO));
    println!("  ||C||_inf = {linf} at ({i}, {j})");
    Ok(())
}

/// The canonical protocol names, from the catalog — the single source
/// of truth for "which protocols exist" in error messages and the
/// verify filter.
fn catalog_names() -> Vec<&'static str> {
    EstimateRequest::catalog()
        .iter()
        .map(EstimateRequest::name)
        .collect()
}

/// The "unknown protocol" error: names every valid protocol (from
/// [`EstimateRequest::catalog`]) plus the CLI aliases, instead of a
/// bare "unknown protocol X".
fn unknown_protocol(name: &str) -> String {
    format!(
        "unknown protocol {name:?}; valid protocols: {} \
         (aliases: l0 | l1 | l2 for lp at p = 0/1/2, trivial for trivial-csr, \
         at-least-t for at-least-t-join)",
        catalog_names().join(", ")
    )
}

/// Resolves a protocol word (canonical name or CLI alias) to its
/// canonical catalog name.
fn canonical_protocol(name: &str) -> Result<&'static str, String> {
    let target = match name {
        "l0" | "l1" | "l2" => "lp",
        "trivial" => "trivial-csr",
        "at-least-t" => "at-least-t-join",
        other => other,
    };
    catalog_names()
        .into_iter()
        .find(|n| *n == target)
        .ok_or_else(|| unknown_protocol(name))
}

/// The norm a numeric `--p` names: `0` is [`PNorm::Zero`], since the
/// protocols take p = 0 only in that form and reject `PNorm::P(0.0)`.
fn pnorm(p: f64) -> PNorm {
    if p == 0.0 {
        PNorm::Zero
    } else {
        PNorm::P(p)
    }
}

/// Parses a protocol word plus its flags into the uniform request shape.
fn parse_request(protocol: &str, flags: &Flags) -> Result<EstimateRequest, String> {
    Ok(match protocol {
        "l0" | "l1" | "l2" | "lp" => {
            let p = match protocol {
                "l0" => PNorm::Zero,
                "l1" => PNorm::ONE,
                "l2" => PNorm::TWO,
                _ => pnorm(flags.required_num("p")?),
            };
            EstimateRequest::LpNorm {
                p,
                eps: flags.num("eps", 0.2)?,
            }
        }
        "lp-baseline" => {
            let p = flags.str("p").map_or(Ok(PNorm::Zero), |s| {
                s.parse::<f64>().map(pnorm).map_err(|e| e.to_string())
            })?;
            EstimateRequest::LpBaseline {
                p,
                eps: flags.num("eps", 0.2)?,
            }
        }
        "exact-l1" => EstimateRequest::ExactL1,
        "l1-sample" => EstimateRequest::L1Sample,
        "l0-sample" => EstimateRequest::L0Sample {
            eps: flags.num("eps", 0.3)?,
        },
        "sparse-matmul" => EstimateRequest::SparseMatmul,
        "linf-binary" => EstimateRequest::LinfBinary {
            eps: flags.num("eps", 0.25)?,
        },
        "linf-kappa" => EstimateRequest::LinfKappa {
            kappa: flags.num("kappa", 8.0)?,
        },
        "linf-general" => EstimateRequest::LinfGeneral {
            kappa: flags.num("kappa", 4)?,
        },
        "hh-general" | "hh-binary" => {
            let phi: f64 = flags.required_num("phi")?;
            let eps: f64 = flags.num("hh-eps", phi / 2.0)?;
            let p: f64 = flags.num("p", 1.0)?;
            if protocol == "hh-general" {
                EstimateRequest::HhGeneral { p, phi, eps }
            } else {
                EstimateRequest::HhBinary { p, phi, eps }
            }
        }
        "at-least-t" | "at-least-t-join" => EstimateRequest::AtLeastTJoin {
            t: flags.required_num("t")?,
            slack: flags.num("slack", 0.5)?,
        },
        "trivial" | "trivial-csr" => EstimateRequest::TrivialCsr,
        "trivial-binary" => EstimateRequest::TrivialBinary,
        other => return Err(unknown_protocol(other)),
    })
}

/// Output format of `run` and `query` (`--format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn parse_format(flags: &Flags) -> Result<Format, String> {
    match flags.str("format") {
        None | Some("text") => Ok(Format::Text),
        Some("json") => Ok(Format::Json),
        Some(other) => Err(format!(
            "unknown --format {other:?} (expected \"text\" or \"json\")"
        )),
    }
}

/// Renders a type-erased output as a JSON value (all fields numeric, so
/// no escaping is needed here; string-valued fields go through the
/// shared `mpest-bench` `json_escape` in [`report_json`]).
fn output_json(output: &AnyOutput) -> String {
    let pairs_json = |pairs: &[HhPair]| {
        let body: Vec<String> = pairs
            .iter()
            .map(|p| {
                format!(
                    "{{\"row\": {}, \"col\": {}, \"estimate\": {}}}",
                    p.row, p.col, p.estimate
                )
            })
            .collect();
        format!("[{}]", body.join(", "))
    };
    let triplets_json = |triplets: &[(u32, u32, i64)]| {
        let body: Vec<String> = triplets
            .iter()
            .map(|&(i, j, v)| format!("[{i}, {j}, {v}]"))
            .collect();
        format!("[{}]", body.join(", "))
    };
    match output {
        AnyOutput::Scalar(v) => format!("{{\"kind\": \"scalar\", \"value\": {v}}}"),
        AnyOutput::Count(v) => format!("{{\"kind\": \"count\", \"value\": {v}}}"),
        AnyOutput::Sample(MatrixSample::Sampled { row, col, value }) => {
            format!("{{\"kind\": \"sample\", \"row\": {row}, \"col\": {col}, \"value\": {value}}}")
        }
        AnyOutput::Sample(MatrixSample::ZeroMatrix) => {
            "{\"kind\": \"sample\", \"zero_matrix\": true}".to_string()
        }
        AnyOutput::Sample(MatrixSample::Failed) => {
            "{\"kind\": \"sample\", \"failed\": true}".to_string()
        }
        AnyOutput::L1Sample(None) => "{\"kind\": \"l1-sample\", \"empty\": true}".to_string(),
        AnyOutput::L1Sample(Some(s)) => format!(
            "{{\"kind\": \"l1-sample\", \"row\": {}, \"col\": {}, \"witness\": {}}}",
            s.row, s.col, s.witness
        ),
        AnyOutput::Linf(e) => format!(
            "{{\"kind\": \"linf\", \"estimate\": {}, \"level\": {}}}",
            e.estimate,
            e.level.map_or("null".to_string(), |l| l.to_string())
        ),
        AnyOutput::HeavyHitters(hh) => format!(
            "{{\"kind\": \"heavy-hitters\", \"count\": {}, \"pairs\": {}}}",
            hh.pairs.len(),
            pairs_json(&hh.pairs)
        ),
        AnyOutput::Shares(sh) => format!(
            "{{\"kind\": \"shares\", \"alice\": {}, \"bob\": {}}}",
            triplets_json(&sh.alice),
            triplets_json(&sh.bob)
        ),
        AnyOutput::Exact(st) => format!(
            "{{\"kind\": \"exact\", \"l0\": {}, \"l1\": {}, \"l2_sq\": {}, \"linf\": {}, \
             \"argmax\": [{}, {}]}}",
            st.l0, st.l1, st.l2_sq, st.linf.0, st.linf.1 .0, st.linf.1 .1
        ),
    }
}

/// Renders a report as one JSON object. `extra` is injected verbatim
/// after the standard fields (callers pass pre-rendered key/value pairs,
/// e.g. wire-byte accounting for `query`).
fn report_json(report: &EstimateReport, extra: &[String]) -> String {
    use mpest_bench::report::json_escape;
    let mut fields = vec![
        format!("\"protocol\": \"{}\"", json_escape(report.protocol)),
        format!("\"output\": {}", output_json(&report.output)),
        format!("\"bits\": {}", report.bits()),
        format!("\"rounds\": {}", report.rounds()),
        format!("\"messages\": {}", report.transcript.messages()),
    ];
    fields.extend_from_slice(extra);
    format!("{{{}}}", fields.join(", "))
}

/// One-line rendering of a type-erased output; `compact` trades detail
/// for width (batch listings print one query per line).
fn output_summary(output: &AnyOutput, compact: bool) -> String {
    match output {
        AnyOutput::Scalar(v) => format!("{v}"),
        AnyOutput::Count(v) => format!("{v}"),
        AnyOutput::Sample(s) => format!("{s:?}"),
        AnyOutput::L1Sample(s) => format!("{s:?}"),
        AnyOutput::Linf(e) if compact => format!("{:.2}", e.estimate),
        AnyOutput::Linf(e) => format!("{e:?}"),
        AnyOutput::HeavyHitters(hh) if compact => format!("{} pairs", hh.pairs.len()),
        AnyOutput::HeavyHitters(hh) => format!("{} pairs {:?}", hh.pairs.len(), hh.positions()),
        AnyOutput::Shares(sh) => format!(
            "shares with {} nonzeros recovered",
            sh.alice.len() + sh.bob.len()
        ),
        AnyOutput::Exact(stats) => format!("{stats:?}"),
    }
}

/// Prints the uniform report: type-erased output, exact bits/rounds, and
/// estimated wall-clock on reference links.
fn print_report(report: &EstimateReport) {
    println!("{}:", report.protocol);
    println!("  output     = {}", output_summary(&report.output, false));
    println!("  bits       = {}", report.bits());
    println!("  rounds     = {}", report.rounds());
    for (label, model) in [
        ("datacenter", NetworkModel::datacenter()),
        ("wan       ", NetworkModel::wan()),
        ("mobile    ", NetworkModel::mobile()),
    ] {
        println!(
            "  est. time on {label} link: {:.4} s",
            model.seconds(&report.transcript)
        );
    }
}

/// Whether `--exact` has a ground truth to print for this request (the
/// centralized product is only computed when it will be shown).
fn has_exact_line(request: &EstimateRequest) -> bool {
    matches!(
        request,
        EstimateRequest::LpNorm { .. }
            | EstimateRequest::LpBaseline { .. }
            | EstimateRequest::LinfBinary { .. }
            | EstimateRequest::LinfKappa { .. }
            | EstimateRequest::LinfGeneral { .. }
            | EstimateRequest::ExactL1
    )
}

/// Requests that run over the bit-matrix view of the pair.
fn is_binary_request(request: &EstimateRequest) -> bool {
    matches!(
        request,
        EstimateRequest::LinfBinary { .. }
            | EstimateRequest::LinfKappa { .. }
            | EstimateRequest::HhBinary { .. }
            | EstimateRequest::AtLeastTJoin { .. }
            | EstimateRequest::TrivialBinary
    )
}

/// Whether `token` is a number by the JSON grammar (RFC 8259 §6):
/// optional minus, integer part without leading zeros, optional
/// fraction, optional exponent. Stricter than `f64::from_str`, which
/// would also accept `inf`, `nan`, and `+1`.
fn is_json_number(token: &str) -> bool {
    let b = token.as_bytes();
    let mut i = 0;
    if b.first() == Some(&b'-') {
        i += 1;
    }
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while matches!(b.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        _ => return false,
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        let frac_start = i;
        while matches!(b.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
        if i == frac_start {
            return false;
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        let exp_start = i;
        while matches!(b.get(i), Some(b'0'..=b'9')) {
            i += 1;
        }
        if i == exp_start {
            return false;
        }
    }
    i == b.len()
}

/// Reads the four hex digits of a `\uXXXX` escape. On entry `*i` is the
/// index of the `u`; on success `*i` is the index of the last hex digit
/// (the caller's loop step then moves past it). Strict: exactly four
/// ASCII hex digits, no signs or whitespace (`u32::from_str_radix`
/// alone would accept `+06c`).
fn parse_u_escape(line: &str, i: &mut usize) -> Result<u32, String> {
    let hex = line
        .get(*i + 1..*i + 5)
        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
        .ok_or_else(|| "bad \\u escape: expected exactly four hex digits".to_string())?;
    *i += 4;
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
}

/// Minimal JSON-object parser for the batch request file: one flat
/// `{"key": value, ...}` per line, values being strings, numbers,
/// booleans, or null. Everything is surfaced as strings so request
/// parsing reuses the exact flag-parsing path of `mpest run`.
fn parse_jsonl_object(line: &str) -> Result<HashMap<String, String>, String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if bytes.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}", i = *i));
        }
        *i += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *i += 1;
                    match bytes.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = parse_u_escape(line, i)?;
                            if (0xD800..=0xDBFF).contains(&code) {
                                // High surrogate: JSON encodes non-BMP
                                // chars as a \uXXXX\uXXXX pair.
                                *i += 1;
                                if bytes.get(*i) != Some(&b'\\') || bytes.get(*i + 1) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "high surrogate \\u{code:04x} not followed by a \\u low surrogate"
                                    ));
                                }
                                *i += 1;
                                let low = parse_u_escape(line, i)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(format!(
                                        "expected a low surrogate after \\u{code:04x}, got \\u{low:04x}"
                                    ));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(combined).expect("valid surrogate pair"));
                            } else {
                                out.push(char::from_u32(code).ok_or_else(|| {
                                    format!("invalid codepoint \\u{code:04x} (lone low surrogate)")
                                })?);
                            }
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = &line[*i..];
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    *i += ch.len_utf8();
                }
            }
        }
    };
    let parse_scalar = |i: &mut usize| -> Result<String, String> {
        let start = *i;
        while *i < bytes.len()
            && matches!(bytes[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'a'..=b'z')
        {
            *i += 1;
        }
        let token = &line[start..*i];
        match token {
            "" => Err(format!("expected a value at byte {start}")),
            "null" => Ok(String::new()),
            "true" | "false" => Ok(token.to_string()),
            _ if is_json_number(token) => Ok(token.to_string()),
            _ => Err(format!("unsupported JSON value {token:?}")),
        }
    };

    skip_ws(&mut i);
    if bytes.get(i) != Some(&b'{') {
        return Err("request line must be a JSON object".into());
    }
    i += 1;
    let mut map = HashMap::new();
    skip_ws(&mut i);
    if bytes.get(i) == Some(&b'}') {
        i += 1;
    } else {
        loop {
            skip_ws(&mut i);
            let key = parse_string(&mut i)?;
            skip_ws(&mut i);
            if bytes.get(i) != Some(&b':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            i += 1;
            skip_ws(&mut i);
            let value = if bytes.get(i) == Some(&b'"') {
                parse_string(&mut i)?
            } else {
                parse_scalar(&mut i)?
            };
            map.insert(key, value);
            skip_ws(&mut i);
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {
                    i += 1;
                    break;
                }
                _ => return Err("expected ',' or '}' in object".into()),
            }
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err(format!("trailing content after object: {:?}", &line[i..]));
    }
    Ok(map)
}

/// Every key a batch request line may carry: `protocol` plus the
/// per-protocol flags of `mpest run`, plus the optional `epoch` pin.
/// Unknown keys are rejected so a typo (`"hheps"`) can't silently fall
/// back to a default.
const REQUEST_KEYS: &[&str] = &[
    "protocol", "eps", "p", "kappa", "phi", "hh-eps", "t", "slack", "epoch",
];

/// One batch request: the uniform shape plus its optional epoch pin and
/// the (1-based) source line for error context.
#[derive(Debug)]
struct PinnedRequest {
    request: EstimateRequest,
    epoch: Option<u64>,
    line: usize,
}

/// Parses one already-decoded request object into the uniform shape
/// plus its optional epoch pin.
fn request_from_map(
    mut map: HashMap<String, String>,
) -> Result<(EstimateRequest, Option<u64>), String> {
    for key in map.keys() {
        if !REQUEST_KEYS.contains(&key.as_str()) {
            return Err(if key == "seed" {
                "per-request \"seed\" is not supported; seeds derive from the batch --seed in file order".to_string()
            } else {
                format!("unknown request key {key:?} (expected one of {REQUEST_KEYS:?})")
            });
        }
    }
    let epoch = match map.remove("epoch") {
        None => None,
        Some(raw) => Some(raw.parse::<u64>().map_err(|_| {
            format!(
                "bad \"epoch\" value {raw:?}: an epoch pin must be a \
                 non-negative integer"
            )
        })?),
    };
    let protocol = map
        .get("protocol")
        .cloned()
        .ok_or_else(|| "missing \"protocol\" key".to_string())?;
    Ok((parse_request(&protocol, &Flags(map))?, epoch))
}

/// Reads a JSONL request file into the uniform request shape, reusing
/// the `mpest run` flag vocabulary for per-protocol parameters.
fn load_requests(path: &Path) -> Result<Vec<PinnedRequest>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("--requests {}: {e}", path.display()))?;
    let mut requests = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let context = |e: String| format!("{}:{}: {e}", path.display(), lineno + 1);
        let map = parse_jsonl_object(trimmed).map_err(context)?;
        let (request, epoch) = request_from_map(map).map_err(context)?;
        requests.push(PinnedRequest {
            request,
            epoch,
            line: lineno + 1,
        });
    }
    if requests.is_empty() {
        return Err(format!("{}: no requests", path.display()));
    }
    Ok(requests)
}

fn cmd_batch(flags: &Flags) -> Result<(), String> {
    let (a, b) = load_pair(flags)?;
    let seed = Seed(flags.num("seed", 42u64)?);
    let workers: usize = flags.num("workers", 0)?;
    let executor = parse_executor(flags)?;
    let requests_path = PathBuf::from(flags.required("requests")?);
    let pinned = load_requests(&requests_path)?;
    // A freshly loaded pair sits at epoch 0; a request pinned to any
    // other snapshot must not silently run over the wrong data.
    for p in &pinned {
        if let Some(epoch) = p.epoch {
            if epoch != 0 {
                return Err(format!(
                    "{}:{}: request pins epoch {epoch}, but a pair loaded \
                     from files is at epoch 0; drop the pin or query the \
                     daemon holding that snapshot (mpest query --at-epoch)",
                    requests_path.display(),
                    p.line
                ));
            }
        }
    }
    let requests: Vec<EstimateRequest> = pinned.into_iter().map(|p| p.request).collect();

    // `mpest run` coerces integer inputs to their binary support view
    // when the (single) request is binary. A batch may only apply that
    // coercion when *every* request is binary — binarizing the pair for
    // a mixed batch would silently change the non-binary requests'
    // answers relative to running them alone, so that case is an error.
    let any_binary = requests.iter().any(is_binary_request);
    let all_binary = requests.iter().all(is_binary_request);
    let inputs_binary = a.is_binary() && b.is_binary();
    if any_binary && !all_binary && !inputs_binary {
        return Err(
            "batch mixes binary and general protocols over non-binary inputs; \
             binarizing would change the general protocols' answers — split the \
             batch or pre-binarize the matrices with `mpest gen`"
                .to_string(),
        );
    }
    let session = if all_binary && !inputs_binary {
        eprintln!(
            "note: binarizing integer inputs (nonzero -> 1) for an all-binary-protocol batch"
        );
        Session::builder(BitMatrix::from_csr(&a), BitMatrix::from_csr(&b))
    } else {
        Session::builder(a, b)
    }
    .seed(seed)
    .executor(executor)
    .build();

    let engine = Engine::new(session);
    let plan = BatchPlan::default().with_workers(workers);
    let start = std::time::Instant::now();
    let batch = engine
        .run_batch(&requests, &plan)
        .map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();

    println!(
        "batch of {} requests over {} worker(s), {} executor:",
        batch.reports.len(),
        plan.effective_workers(requests.len()),
        executor,
    );
    for (i, report) in batch.reports.iter().enumerate() {
        println!(
            "  [{i:>3}] {:<16} {:>10} bits  {} round(s)  {}",
            report.protocol,
            report.bits(),
            report.rounds(),
            output_summary(&report.output, true)
        );
    }
    let acc = &batch.accounting;
    println!("aggregate: {acc}");
    println!(
        "           {:.3}s wall, {:.1} queries/s, mean {:.0} bits/query",
        secs,
        batch.reports.len() as f64 / secs.max(1e-9),
        acc.mean_bits()
    );
    for (label, model) in [
        ("datacenter", NetworkModel::datacenter()),
        ("wan       ", NetworkModel::wan()),
    ] {
        let est: f64 = batch
            .reports
            .iter()
            .map(|r| model.seconds(&r.transcript))
            .sum();
        println!("           est. serial time on {label} link: {est:.4} s");
    }
    Ok(())
}

/// `mpest verify`: the Monte-Carlo statistical-guarantee sweep over
/// generated workloads, exiting nonzero on any contract violation.
fn cmd_verify(flags: &Flags) -> Result<(), String> {
    use mpest::verify::VerifyConfig;
    let mut config = if flags.str("quick").is_some() {
        VerifyConfig::quick()
    } else {
        VerifyConfig::full()
    };
    if let Some(trials) = flags.str("trials") {
        let trials: usize = trials.parse().map_err(|e| format!("bad --trials: {e}"))?;
        if trials == 0 {
            return Err("--trials must be positive".to_string());
        }
        config = config.with_trials(trials);
    }
    let seed = flags.num("seed", config.seed)?;
    config = config.with_seed(seed);
    if let Some(name) = flags.str("protocol") {
        config = config.with_protocols(vec![canonical_protocol(name)?.to_string()]);
    }

    let start = std::time::Instant::now();
    let report = mpest::verify::verify(&config);
    print!("{}", report.summary());
    println!(
        "{} cells verified in {:.2}s",
        report.verdicts.len(),
        start.elapsed().as_secs_f64()
    );
    if report.all_pass() {
        println!("all statistical guarantees hold");
        Ok(())
    } else {
        // Not a usage error: report the violations and exit 1 without
        // the usage banner.
        for v in report.failures() {
            eprintln!(
                "VIOLATION: {} on {} failed {}/{} trials (allowed {:.0}%): {}",
                v.protocol,
                v.workload,
                v.failures,
                v.trials,
                100.0 * v.delta,
                v.first_failure.as_deref().unwrap_or("see summary")
            );
        }
        std::process::exit(1);
    }
}

/// The ground-truth value `--exact` prints for this request, if any.
fn exact_value(request: &EstimateRequest, c: &CsrMatrix) -> Option<f64> {
    match request {
        EstimateRequest::LpNorm { p, .. } | EstimateRequest::LpBaseline { p, .. } => {
            Some(norms::csr_lp_pow(c, *p))
        }
        EstimateRequest::LinfBinary { .. }
        | EstimateRequest::LinfKappa { .. }
        | EstimateRequest::LinfGeneral { .. } => Some(norms::csr_linf(c).0 as f64),
        EstimateRequest::ExactL1 => Some(norms::csr_lp_pow(c, PNorm::ONE)),
        _ => None,
    }
}

fn cmd_run(protocol: &str, flags: &Flags) -> Result<(), String> {
    // Parse the request before touching the filesystem, so an unknown
    // protocol name is reported even when the matrix files are bad too.
    let request = parse_request(protocol, flags)?;
    let format = parse_format(flags)?;
    let (a, b) = load_pair(flags)?;
    let seed = Seed(flags.num("seed", 42u64)?);
    let executor = parse_executor(flags)?;
    let exact = (flags.str("exact").is_some() && has_exact_line(&request)).then(|| a.matmul(&b));

    // Binary protocols historically accept integer inputs by coercing
    // nonzeros to 1 (the support view); keep that CLI behavior.
    let session = if is_binary_request(&request) && !(a.is_binary() && b.is_binary()) {
        eprintln!("note: binarizing integer inputs (nonzero -> 1) for {protocol}");
        Session::builder(BitMatrix::from_csr(&a), BitMatrix::from_csr(&b))
    } else {
        Session::builder(a, b)
    }
    .seed(seed)
    .executor(executor)
    .build();
    let report = session
        .estimate_seeded(&request, seed)
        .map_err(|e| e.to_string())?;
    let exact = exact.and_then(|c| exact_value(&request, &c));

    match format {
        Format::Json => {
            let mut extra = vec![format!("\"seed\": {}", seed.0)];
            if let Some(v) = exact {
                extra.push(format!("\"exact\": {v}"));
            }
            println!("{}", report_json(&report, &extra));
        }
        Format::Text => {
            print_report(&report);
            if let Some(v) = exact {
                println!("  exact      = {v}");
            }
        }
    }
    Ok(())
}

/// `mpest serve`: the estimation daemon (blocks until a client sends
/// `shutdown`).
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    use mpest::net::DEFAULT_MAX_SESSIONS;
    use mpest::net::{serve_on, ServeConfig, ServerState, TraceFormat, Tracer};
    let addr = flags.str("listen").unwrap_or("127.0.0.1:7117");
    let workers: usize = flags.num("workers", 0)?;
    let config = ServeConfig {
        workers,
        io_timeout: parse_timeout(flags, "io-timeout", 30)?,
        idle_timeout: parse_timeout(flags, "idle-timeout", 0)?,
        max_sessions: flags.num("max-sessions", DEFAULT_MAX_SESSIONS)?,
        obs: flags.str("no-obs").is_none(),
        ..ServeConfig::default()
    };
    let trace_format = match flags.str("trace-format") {
        None | Some("jsonl") => TraceFormat::Jsonl,
        Some("chrome") => TraceFormat::Chrome,
        Some(other) => {
            return Err(format!(
                "--trace-format: expected jsonl|chrome, got {other}"
            ))
        }
    };
    let tracer = match flags.str("trace-out") {
        None => Tracer::disabled(),
        Some(path) => {
            Tracer::to_file(path, trace_format).map_err(|e| format!("--trace-out {path}: {e}"))?
        }
    };
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!("mpest serve: listening on {local} ({workers} worker(s) per query, 0 = per-core)");
    println!("  clients: mpest query PROTOCOL --connect {local} --a A.mtx --b B.mtx [...]");
    println!("  metrics: mpest stats --connect {local} [--format json]");
    let state = std::sync::Arc::new(ServerState::with_config_traced(config, tracer));
    serve_on(&listener, &state);
    // The shutdown summary is a rendering of the same registry the
    // `metrics` wire reply snapshots — one source of truth for totals.
    println!("mpest serve: {}", state.summary());
    Ok(())
}

/// `mpest shutdown`: asks a live daemon to stop (it prints its summary
/// and seals any trace file on the way out).
fn cmd_shutdown(flags: &Flags) -> Result<(), String> {
    use mpest::net::ServeClient;
    let addr = flags.required("connect")?;
    let mut client = ServeClient::connect(addr).map_err(|e| format!("--connect {addr}: {e}"))?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("daemon at {addr} acknowledged shutdown");
    Ok(())
}

/// `mpest stats`: pulls the daemon-wide statistics plus the full
/// observability-registry snapshot from a live daemon.
fn cmd_stats(flags: &Flags) -> Result<(), String> {
    use mpest::net::ServeClient;
    let addr = flags.required("connect")?;
    let mut client = ServeClient::connect(addr).map_err(|e| format!("--connect {addr}: {e}"))?;
    let snapshot = client.metrics().map_err(|e| e.to_string())?;
    match parse_format(flags)? {
        Format::Json => println!("{}", snapshot.to_json()),
        Format::Text => {
            let stats = client.stats().map_err(|e| e.to_string())?;
            println!(
                "daemon at {addr}: {} request(s) served, {} cached session(s), \
                 {} logical bits, {} bytes in / {} bytes out on the wire",
                stats.queries,
                stats.sessions,
                stats.accounting.total_bits,
                stats.wire_in,
                stats.wire_out
            );
            print!("{}", snapshot.render());
        }
    }
    Ok(())
}

/// Parses a `--KEY SECS` timeout flag; `0` means no deadline.
fn parse_timeout(
    flags: &Flags,
    key: &str,
    default_secs: u64,
) -> Result<Option<std::time::Duration>, String> {
    let secs: u64 = flags.num(key, default_secs)?;
    Ok((secs > 0).then(|| std::time::Duration::from_secs(secs)))
}

/// Parses `--side alice|bob` (with a per-command default) through the
/// shared [`Role`] vocabulary.
fn parse_side(flags: &Flags, default: Party) -> Result<Party, String> {
    match flags.str("side") {
        None => Ok(default),
        Some(s) => s.parse::<Party>().map_err(|e| format!("--side: {e}")),
    }
}

/// Loads the storage-split view for `side`. With `--matrix`, only this
/// party's matrix comes off disk; the peer is known by its public
/// metadata alone (`--peer-rows`, `--peer-cols`, `--peer-binary`). With
/// `--a`/`--b`, both files are read and the view keeps only `side`'s
/// half.
fn load_party_view(flags: &Flags, side: Party) -> Result<PartyView, String> {
    let view = if flags.str("matrix").is_some() {
        if flags.str("a").is_some() || flags.str("b").is_some() {
            return Err(
                "--matrix (storage-split, one half) and --a/--b (full pair) \
                 are mutually exclusive"
                    .to_string(),
            );
        }
        let own = io::read_csr(Path::new(flags.required("matrix")?))
            .map_err(|e| format!("--matrix: {e}"))?;
        let peer = PeerInfo::new(
            flags.required_num("peer-rows")?,
            flags.required_num("peer-cols")?,
            flags.str("peer-binary").is_some(),
        );
        PartyView::new(side, own, peer)
    } else {
        let (a, b) = load_pair(flags)?;
        Session::new(a, b).party_view(side)
    };
    // Surface an inner-dimension mismatch now, at the CLI boundary,
    // instead of at the first run (this also warms the derived views).
    view.warm_views().map_err(|e| e.to_string())?;
    Ok(view)
}

/// `mpest party`: host one side of remote two-party runs (blocks).
///
/// The host is **storage-split**: it holds only its own half (from
/// `--matrix`, or kept from `--a`/`--b`), never sees the peer's
/// entries, cross-checks every connection's `party-hello` handshake,
/// and ingests per-side update batches between runs.
fn cmd_party(flags: &Flags) -> Result<(), String> {
    use mpest::net::PartyHost;
    let addr = flags.str("listen").unwrap_or("127.0.0.1:7118");
    let side = parse_side(flags, Party::Bob)?;
    let view = load_party_view(flags, side)?;
    let (rows, cols) = view.own_shape();
    let host = PartyHost::spawn_split(addr, view).map_err(|e| format!("--listen {addr}: {e}"))?;
    println!(
        "mpest party: playing {side} on {} holding only the {rows}x{cols} \
         {} half (storage-split; per-side updates accepted) — initiators \
         run `mpest query PROTOCOL --party {} --side {} --matrix THEIR.mtx \
         --peer-rows {rows} --peer-cols {cols} ...`",
        host.addr(),
        side.half_label(),
        host.addr(),
        side.peer().as_str(),
    );
    host.wait();
    Ok(())
}

/// `mpest query`: run a request against a serve daemon (`--connect`) or
/// as the initiating side of a remote two-party run (`--party`).
fn cmd_query(protocol: &str, flags: &Flags) -> Result<(), String> {
    let request = parse_request(protocol, flags)?;
    let format = parse_format(flags)?;
    let seed: u64 = flags.num("seed", 42u64)?;
    match (flags.str("connect"), flags.str("party")) {
        (Some(addr), None) => {
            use mpest::net::ServeClient;
            if flags.str("matrix").is_some() {
                return Err(
                    "--matrix loads only this party's half and requires --party ADDR \
                     (a storage-split run); --connect uploads the full pair, use \
                     --a/--b there"
                        .to_string(),
                );
            }
            let (a, b) = load_pair(flags)?;
            let binarize = is_binary_request(&request) && !(a.is_binary() && b.is_binary());
            let as_binary = |m: &CsrMatrix| BitMatrix::from_csr(m).to_csr();
            let (qa, qb) = if binarize {
                eprintln!("note: binarizing integer inputs (nonzero -> 1) for {protocol}");
                (as_binary(&a), as_binary(&b))
            } else {
                (a, b)
            };
            let reply_timeout = parse_timeout(flags, "reply-timeout", 600)?;
            let io_timeout = parse_timeout(flags, "io-timeout", 30)?;
            let mut client = ServeClient::connect_with(addr, reply_timeout, io_timeout)
                .map_err(|e| e.to_string())?;
            let outcome = match flags.str("at-epoch") {
                None => client.query(&qa, &qb, &[(seed, request)]),
                Some(raw) => {
                    let at_epoch: u64 = raw.parse().map_err(|e| format!("bad --at-epoch: {e}"))?;
                    client.query_at_epoch(&qa, &qb, &[(seed, request)], at_epoch)
                }
            }
            .map_err(|e| e.to_string())?;
            let report = outcome
                .reports
                .reports
                .first()
                .ok_or("server returned no reports for a one-request query")?;
            match format {
                Format::Json => {
                    let extra = vec![
                        format!("\"seed\": {seed}"),
                        format!("\"cache_hit\": {}", outcome.reports.cache_hit),
                        format!("\"uploaded\": {}", outcome.uploaded),
                        format!("\"wire_bytes_out\": {}", outcome.bytes_out),
                        format!("\"wire_bytes_in\": {}", outcome.bytes_in),
                    ];
                    println!("{}", report_json(report, &extra));
                }
                Format::Text => {
                    print_report(report);
                    println!(
                        "  served by  {addr} (session cache {}{})",
                        if outcome.reports.cache_hit {
                            "hit"
                        } else {
                            "miss"
                        },
                        if outcome.uploaded {
                            ", pair uploaded"
                        } else {
                            ""
                        },
                    );
                    println!(
                        "  real wire  = {} bytes out, {} bytes in ({} logical payload bytes)",
                        outcome.bytes_out,
                        outcome.bytes_in,
                        report.bits().div_ceil(8),
                    );
                }
            }
            Ok(())
        }
        (None, Some(addr)) => query_split(addr, protocol, &request, format, seed, flags),
        (Some(_), Some(_)) => Err("--connect and --party are mutually exclusive".to_string()),
        (None, None) => Err("query needs --connect ADDR or --party ADDR".to_string()),
    }
}

/// Parses `--peer-fp` (decimal or `0x`-prefixed hex) into the content
/// pin a split run enforces on the host's announced fingerprint.
fn parse_peer_fp(flags: &Flags) -> Result<Option<u64>, String> {
    let Some(raw) = flags.str("peer-fp") else {
        return Ok(None);
    };
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    parsed.map(Some).map_err(|e| format!("bad --peer-fp: {e}"))
}

/// The storage-split `mpest query --party` path: this process holds
/// only `--side`'s half and plays it against a `mpest party` host,
/// opening with the `party-hello` cross-check.
fn query_split(
    addr: &str,
    protocol: &str,
    request: &EstimateRequest,
    format: Format,
    seed: u64,
    flags: &Flags,
) -> Result<(), String> {
    use mpest::net::run_with_party_view_with;
    if flags.str("at-epoch").is_some() {
        return Err(
            "--at-epoch pins a daemon session's epoch and requires --connect; \
             a two-party run always executes over the host's current pair"
                .to_string(),
        );
    }
    let side = parse_side(flags, Party::Alice)?;
    let view = load_party_view(flags, side)?;
    if is_binary_request(request) && !(view.own_binary() && view.peer().binary()) {
        return Err(format!(
            "{protocol} requires binary matrices, but this half (or the \
             announced peer) is integer-valued; a storage-split run cannot \
             binarize one side without desynchronizing the pair — binarize \
             the files first (e.g. mpest gen --kind bernoulli)"
        ));
    }
    let io_timeout = parse_timeout(flags, "io-timeout", 30)?;
    let pin = parse_peer_fp(flags)?;
    let (report, out, inn) =
        run_with_party_view_with(addr, &view, request, Seed(seed), io_timeout, pin)
            .map_err(|e| e.to_string())?;
    match format {
        Format::Json => {
            let extra = vec![
                format!("\"seed\": {seed}"),
                format!("\"side\": \"{}\"", side.as_str()),
                "\"storage_split\": true".to_string(),
                format!("\"wire_bytes_out\": {out}"),
                format!("\"wire_bytes_in\": {inn}"),
            ];
            println!("{}", report_json(&report, &extra));
        }
        Format::Text => {
            print_report(&report);
            println!(
                "  storage-split run playing {side} against {addr} \
                 (this process held only its {} half)",
                side.half_label()
            );
            println!(
                "  real wire  = {out} bytes out, {inn} bytes in ({} logical payload bytes)",
                report.bits().div_ceil(8),
            );
        }
    }
    Ok(())
}

/// Every key an update-ops line may carry.
const OP_KEYS: &[&str] = &["op", "side", "row", "col", "val", "entries"];

/// Parses `"alice"` / `"bob"`.
fn parse_update_side(raw: &str) -> Result<UpdateSide, String> {
    match raw {
        "alice" => Ok(UpdateSide::Alice),
        "bob" => Ok(UpdateSide::Bob),
        other => Err(format!(
            "unknown \"side\" {other:?} (expected \"alice\" or \"bob\")"
        )),
    }
}

/// Parses the `"entries"` string of an `append-row` op:
/// comma-separated `IDX:VAL` pairs.
fn parse_op_entries(raw: &str) -> Result<Vec<(u32, i64)>, String> {
    let mut entries = Vec::new();
    for token in raw.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let (idx, val) = token
            .split_once(':')
            .ok_or_else(|| format!("bad entry {token:?}: expected IDX:VAL"))?;
        entries.push((
            idx.trim()
                .parse()
                .map_err(|e| format!("bad entry index {:?}: {e}", idx.trim()))?,
            val.trim()
                .parse()
                .map_err(|e| format!("bad entry value {:?}: {e}", val.trim()))?,
        ));
    }
    Ok(entries)
}

/// Parses one already-decoded ops object and appends it to `batch`.
fn op_from_map(map: &HashMap<String, String>, batch: UpdateBatch) -> Result<UpdateBatch, String> {
    for key in map.keys() {
        if !OP_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "unknown op key {key:?} (expected one of {OP_KEYS:?})"
            ));
        }
    }
    let field = |key: &str| {
        map.get(key)
            .ok_or_else(|| format!("missing {key:?} key"))
            .map(String::as_str)
    };
    let num = |key: &str| -> Result<u32, String> {
        field(key)?
            .parse()
            .map_err(|e| format!("bad {key:?} value: {e}"))
    };
    let reject = |keys: &[&str], op: &str| -> Result<(), String> {
        for key in keys {
            if map.contains_key(*key) {
                return Err(format!("op {op:?} takes no {key:?} key"));
            }
        }
        Ok(())
    };
    let op = field("op")?;
    let side = parse_update_side(field("side")?)?;
    Ok(match op {
        "set" => {
            reject(&["entries"], op)?;
            let val: i64 = field("val")?
                .parse()
                .map_err(|e| format!("bad \"val\" value: {e}"))?;
            batch.set_entry(side, num("row")?, num("col")?, val)
        }
        "delete" => {
            reject(&["val", "entries"], op)?;
            batch.delete_entry(side, num("row")?, num("col")?)
        }
        "append-row" => {
            reject(&["row", "col", "val"], op)?;
            batch.append_row(side, parse_op_entries(field("entries")?)?)
        }
        other => {
            return Err(format!(
                "unknown op {other:?} (expected \"set\", \"delete\", or \"append-row\")"
            ))
        }
    })
}

/// Reads a JSONL ops file into an [`UpdateBatch`], with file:line
/// context on every malformed line.
fn load_ops(path: &Path) -> Result<UpdateBatch, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("--ops {}: {e}", path.display()))?;
    let mut batch = UpdateBatch::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let context = |e: String| format!("{}:{}: {e}", path.display(), lineno + 1);
        let map = parse_jsonl_object(trimmed).map_err(context)?;
        batch = op_from_map(&map, batch).map_err(context)?;
    }
    if batch.is_empty() {
        return Err(format!("{}: no update ops", path.display()));
    }
    Ok(batch)
}

/// `mpest update`: push a live mutation batch into a daemon's cached
/// session. The local files are the mirror: they name the remote
/// session and are re-written in sync after the daemon acknowledges.
fn cmd_update(flags: &Flags) -> Result<(), String> {
    use mpest::net::{fingerprint, ServeClient};
    let addr = flags.required("connect")?;
    let (a, b) = load_pair(flags)?;
    let batch = load_ops(Path::new(flags.required("ops")?))?;
    let out_a = PathBuf::from(flags.str("out-a").unwrap_or(flags.required("a")?));
    let out_b = PathBuf::from(flags.str("out-b").unwrap_or(flags.required("b")?));
    let io_timeout = parse_timeout(flags, "io-timeout", 30)?;
    let mut mirror = Session::new(a, b);

    let reply_timeout = parse_timeout(flags, "reply-timeout", 600)?;
    let mut client =
        ServeClient::connect_with(addr, reply_timeout, io_timeout).map_err(|e| e.to_string())?;
    let outcome = {
        let (ca, cb) = mirror.csr_halves().map_err(|e| e.to_string())?;
        client.update(ca, cb, mirror.epoch(), &batch)
    }
    .map_err(|e| e.to_string())?;
    mirror.apply_update(&batch).map_err(|e| e.to_string())?;
    let (la, lb) = {
        let (ca, cb) = mirror.csr_halves().map_err(|e| e.to_string())?;
        (fingerprint(ca), fingerprint(cb))
    };
    if (la, lb) != (outcome.fp_a, outcome.fp_b) || mirror.epoch() != outcome.epoch {
        return Err(format!(
            "local mirror diverged from the daemon after the update: \
             daemon is ({:#x}, {:#x}) at epoch {}, mirror is \
             ({la:#x}, {lb:#x}) at epoch {}",
            outcome.fp_a,
            outcome.fp_b,
            outcome.epoch,
            mirror.epoch()
        ));
    }
    println!(
        "update applied: daemon session is now ({:#x}, {:#x}) at epoch {} \
         ({} op(s))",
        outcome.fp_a,
        outcome.fp_b,
        outcome.epoch,
        batch.len()
    );

    let (ca, cb) = mirror.csr_halves().map_err(|e| e.to_string())?;
    io::write_csr(ca, &out_a).map_err(|e| format!("--out-a {}: {e}", out_a.display()))?;
    io::write_csr(cb, &out_b).map_err(|e| format!("--out-b {}: {e}", out_b.display()))?;
    println!(
        "synced mirror written to {} and {}",
        out_a.display(),
        out_b.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_object_parses_strings_numbers_bools_null() {
        let map = parse_jsonl_object(
            r#"{"protocol": "hh-binary", "phi": 0.05, "t": 3, "neg": -1.5e-2, "flag": true, "off": false, "none": null}"#,
        )
        .unwrap();
        assert_eq!(map["protocol"], "hh-binary");
        assert_eq!(map["phi"], "0.05");
        assert_eq!(map["t"], "3");
        assert_eq!(map["neg"], "-1.5e-2");
        assert_eq!(map["flag"], "true");
        assert_eq!(map["off"], "false");
        assert_eq!(map["none"], "");
        assert!(parse_jsonl_object("{}").unwrap().is_empty());
        assert!(parse_jsonl_object("  { }  ").unwrap().is_empty());
    }

    #[test]
    fn jsonl_object_decodes_string_escapes() {
        let map = parse_jsonl_object(
            r#"{"a": "q\"uote", "b": "back\\slash", "c": "tab\there", "d": "Aé"}"#,
        )
        .unwrap();
        assert_eq!(map["a"], "q\"uote");
        assert_eq!(map["b"], "back\\slash");
        assert_eq!(map["c"], "tab\there");
        assert_eq!(map["d"], "Aé");
        // \u escapes: BMP directly, non-BMP as a surrogate pair.
        let map =
            parse_jsonl_object(r#"{"bmp": "\u006c\u00e9", "emoji": "\ud83d\ude00"}"#).unwrap();
        assert_eq!(map["bmp"], "lé");
        assert_eq!(map["emoji"], "😀");
    }

    #[test]
    fn jsonl_object_rejects_malformed_input() {
        for bad in [
            "not json",
            "[1, 2]",
            r#"{"unterminated": "x"#,
            r#"{"key" "missing-colon"}"#,
            r#"{"trailing": 1} extra"#,
            r#"{"bad": inf}"#,
            r#"{"bad": nan}"#,
            r#"{"bad": +1}"#,
            r#"{"bad": 01}"#,
            r#"{"bad": 1.}"#,
            r#"{"bad": 1e}"#,
            r#"{"bad": .5}"#,
            r#"{"bad": \n}"#,
            r#"{"lone-surrogate": "\ud800"}"#,
            r#"{"lone-low-surrogate": "\udc00"}"#,
            r#"{"swapped-pair": "\ude00\ud83d"}"#,
            r#"{"signed-hex": "\u+06c"}"#,
            r#"{"short-hex": "\u06"}"#,
        ] {
            assert!(parse_jsonl_object(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn json_numbers_follow_the_rfc_grammar() {
        for good in [
            "0", "-0", "3", "42", "0.5", "-1.25", "1e3", "1E-3", "2.5e+10",
        ] {
            assert!(is_json_number(good), "rejected: {good}");
        }
        for bad in [
            "", "-", "+1", "01", "1.", ".5", "1e", "1e+", "inf", "nan", "0x1", "1_000",
        ] {
            assert!(!is_json_number(bad), "accepted: {bad}");
        }
    }

    #[test]
    fn load_requests_reports_file_and_line_context() {
        let dir = std::env::temp_dir().join(format!("mpest-jsonl-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, body: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            path
        };

        // Comments and blank lines are skipped; order is preserved.
        let good = write(
            "good.jsonl",
            "# heavy hitters then a norm\n\n{\"protocol\": \"hh-binary\", \"phi\": 0.05}\n{\"protocol\": \"l0\", \"eps\": 0.2}\n",
        );
        let requests = load_requests(&good).unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0].request.name(), "hh-binary");
        assert_eq!(requests[1].request.name(), "lp");
        assert_eq!(requests[0].epoch, None);
        assert_eq!(requests[0].line, 3);
        assert_eq!(requests[1].line, 4);

        // A malformed object points at its file and (1-based) line.
        let bad = write("bad.jsonl", "{\"protocol\": \"l0\"}\n{not json}\n");
        let err = load_requests(&bad).unwrap_err();
        assert!(err.contains("bad.jsonl:2:"), "got: {err}");

        // A well-formed object with a bad number value surfaces the
        // flag-parse error, still with line context.
        let badnum = write(
            "badnum.jsonl",
            "{\"protocol\": \"l0\", \"eps\": \"lots\"}\n",
        );
        let err = load_requests(&badnum).unwrap_err();
        assert!(
            err.contains("badnum.jsonl:1:") && err.contains("bad --eps"),
            "got: {err}"
        );

        // Unknown protocol inside the file names the valid set.
        let badproto = write("badproto.jsonl", "{\"protocol\": \"l7\"}\n");
        let err = load_requests(&badproto).unwrap_err();
        assert!(
            err.contains("badproto.jsonl:1:") && err.contains("valid protocols"),
            "got: {err}"
        );

        // A required flag missing for the chosen protocol.
        let missing = write("missing.jsonl", "{\"protocol\": \"at-least-t\"}\n");
        let err = load_requests(&missing).unwrap_err();
        assert!(err.contains("missing --t"), "got: {err}");

        // Epoch pins: a valid pin round-trips, malformed values get a
        // typed error with file:line context.
        let pinned = write(
            "pinned.jsonl",
            "{\"protocol\": \"l0\", \"eps\": 0.2, \"epoch\": 3}\n",
        );
        let requests = load_requests(&pinned).unwrap();
        assert_eq!(requests[0].epoch, Some(3));
        for (name, body) in [
            ("negepoch.jsonl", "{\"protocol\": \"l0\", \"epoch\": -1}\n"),
            (
                "fracepoch.jsonl",
                "{\"protocol\": \"l0\", \"epoch\": 1.5}\n",
            ),
            (
                "strepoch.jsonl",
                "{\"protocol\": \"l0\", \"epoch\": \"latest\"}\n",
            ),
            (
                "nullepoch.jsonl",
                "{\"protocol\": \"l0\", \"epoch\": null}\n",
            ),
        ] {
            let err = load_requests(&write(name, body)).unwrap_err();
            assert!(
                err.contains(&format!("{name}:1:")) && err.contains("bad \"epoch\" value"),
                "got: {err}"
            );
        }

        // All-comment and empty files are "no requests", and a missing
        // file reports the I/O failure.
        let empty = write("empty.jsonl", "# nothing\n\n");
        assert!(load_requests(&empty).unwrap_err().contains("no requests"));
        let gone = dir.join("does-not-exist.jsonl");
        assert!(load_requests(&gone).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_protocols_list_the_catalog() {
        let flags = Flags(HashMap::new());
        let err = parse_request("l7", &flags).unwrap_err();
        for req in EstimateRequest::catalog() {
            assert!(
                err.contains(req.name()),
                "error does not name {}: {err}",
                req.name()
            );
        }
        assert!(err.contains("aliases"), "got: {err}");

        // Canonical names and CLI aliases both resolve.
        assert_eq!(canonical_protocol("l0").unwrap(), "lp");
        assert_eq!(canonical_protocol("lp").unwrap(), "lp");
        assert_eq!(canonical_protocol("trivial").unwrap(), "trivial-csr");
        assert_eq!(canonical_protocol("at-least-t").unwrap(), "at-least-t-join");
        assert_eq!(canonical_protocol("hh-binary").unwrap(), "hh-binary");
        assert!(canonical_protocol("nope")
            .unwrap_err()
            .contains("valid protocols"));
    }

    /// A mistyped or removed flag fails before any work (a typo must
    /// not silently run with the default) and names the flag.
    #[test]
    fn unknown_flags_are_rejected_before_any_work() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            dispatch(&args("serve --io-mode blocking")).unwrap_err(),
            "unknown flag --io-mode for serve"
        );
        assert_eq!(
            dispatch(&args("run l0 --sede 7")).unwrap_err(),
            "unknown flag --sede for run"
        );
        assert_eq!(
            dispatch(&args("party --updatable --a a.mtx --b b.mtx")).unwrap_err(),
            "unknown flag --updatable for party"
        );
        assert_eq!(
            dispatch(&args(
                "update --party 127.0.0.1:9 --a a.mtx --b b.mtx --ops o.jsonl"
            ))
            .unwrap_err(),
            "unknown flag --party for update"
        );
        // Every accepted flag is one USAGE documents.
        for subcommand in [
            "gen", "exact", "run", "batch", "verify", "serve", "stats", "shutdown", "party",
            "query", "update",
        ] {
            for flag in known_flags(subcommand).unwrap().split_whitespace() {
                assert!(
                    USAGE.contains(&format!("--{flag} ")) || USAGE.contains(&format!("--{flag}]")),
                    "--{flag} of {subcommand} is missing from USAGE"
                );
            }
        }
    }

    #[test]
    fn request_from_map_rejects_unknown_and_per_request_seed_keys() {
        let line = |s: &str| parse_jsonl_object(s).unwrap();
        assert!(matches!(
            request_from_map(line(r#"{"protocol": "l0", "eps": 0.25}"#)),
            Ok((EstimateRequest::LpNorm { .. }, None))
        ));
        assert!(matches!(
            request_from_map(line(r#"{"protocol": "l0", "eps": 0.25, "epoch": 2}"#)),
            Ok((EstimateRequest::LpNorm { .. }, Some(2)))
        ));
        let err = request_from_map(line(
            r#"{"protocol": "hh-binary", "phi": 0.05, "hheps": 0.005}"#,
        ))
        .unwrap_err();
        assert!(err.contains("unknown request key \"hheps\""), "got: {err}");
        let err = request_from_map(line(r#"{"protocol": "l0", "seed": 7}"#)).unwrap_err();
        assert!(err.contains("per-request \"seed\""), "got: {err}");
        let err = request_from_map(line(r#"{"eps": 0.2}"#)).unwrap_err();
        assert!(err.contains("protocol"), "got: {err}");
    }

    #[test]
    fn p_zero_parses_to_the_zero_norm() {
        let p_of = |protocol: &str, p: &str| {
            let flags = Flags(HashMap::from([("p".to_string(), p.to_string())]));
            match parse_request(protocol, &flags).unwrap() {
                EstimateRequest::LpNorm { p, .. } | EstimateRequest::LpBaseline { p, .. } => p,
                other => panic!("{protocol} parsed to {}", other.name()),
            }
        };
        for protocol in ["lp", "lp-baseline"] {
            assert_eq!(p_of(protocol, "0"), PNorm::Zero, "{protocol}");
            assert_eq!(p_of(protocol, "1.5"), PNorm::P(1.5), "{protocol}");
        }
        let line = parse_jsonl_object(r#"{"protocol": "lp", "p": 0}"#).unwrap();
        assert!(matches!(
            request_from_map(line),
            Ok((EstimateRequest::LpNorm { p: PNorm::Zero, .. }, None))
        ));
    }

    #[test]
    fn update_ops_files_parse_with_typed_line_errors() {
        let dir = std::env::temp_dir().join(format!("mpest-ops-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, body: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            path
        };

        // All three op kinds parse; comments and blanks are skipped.
        let good = write(
            "good.jsonl",
            "# a mixed batch\n\
             {\"op\": \"set\", \"side\": \"alice\", \"row\": 1, \"col\": 2, \"val\": 7}\n\
             {\"op\": \"delete\", \"side\": \"bob\", \"row\": 0, \"col\": 0}\n\
             {\"op\": \"append-row\", \"side\": \"alice\", \"entries\": \"0:1, 3:2\"}\n",
        );
        let batch = load_ops(&good).unwrap();
        assert_eq!(batch.len(), 3);

        // Malformed lines carry file:line context and a typed message.
        for (name, body, needle) in [
            (
                "badop.jsonl",
                "{\"op\": \"upsert\", \"side\": \"alice\", \"row\": 1, \"col\": 2, \"val\": 7}\n",
                "unknown op \"upsert\"",
            ),
            (
                "badside.jsonl",
                "{\"op\": \"set\", \"side\": \"carol\", \"row\": 1, \"col\": 2, \"val\": 7}\n",
                "unknown \"side\" \"carol\"",
            ),
            (
                "badrow.jsonl",
                "{\"op\": \"set\", \"side\": \"alice\", \"row\": -1, \"col\": 2, \"val\": 7}\n",
                "bad \"row\" value",
            ),
            (
                "extrakey.jsonl",
                "{\"op\": \"delete\", \"side\": \"bob\", \"row\": 0, \"col\": 0, \"val\": 1}\n",
                "op \"delete\" takes no \"val\"",
            ),
            (
                "badentries.jsonl",
                "{\"op\": \"append-row\", \"side\": \"bob\", \"entries\": \"0=1\"}\n",
                "expected IDX:VAL",
            ),
            (
                "unknownkey.jsonl",
                "{\"op\": \"set\", \"side\": \"alice\", \"row\": 1, \"col\": 2, \"val\": 7, \"epoch\": 1}\n",
                "unknown op key \"epoch\"",
            ),
        ] {
            let err = load_ops(&write(name, body)).unwrap_err();
            assert!(
                err.contains(&format!("{name}:1:")) && err.contains(needle),
                "got: {err}"
            );
        }

        // Empty batches are rejected.
        let empty = write("empty.jsonl", "# nothing\n");
        assert!(load_ops(&empty).unwrap_err().contains("no update ops"));

        let _ = std::fs::remove_dir_all(&dir);
    }
}
