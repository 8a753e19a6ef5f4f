//! Regenerates every table/figure of the reproduction (T1, F1–F14).
//!
//! Usage:
//!   experiments                 # run everything (a few minutes)
//!   experiments --quick         # shrunken sweeps (smoke run)
//!   experiments --only f1,f5    # a subset (use `--only none` for none)
//!   experiments --json PATH     # also write machine-readable tables
//!   experiments --batch-bench PATH
//!                               # also run the batch-engine throughput
//!                               # trajectory, write it to PATH
//!                               # (BENCH_batch.json), and exit nonzero
//!                               # if batch output diverges from the
//!                               # sequential seeded run
//!   experiments --exec-bench PATH
//!                               # also run the fused-vs-threaded
//!                               # executor trajectory, write it to PATH
//!                               # (BENCH_exec.json), and exit nonzero
//!                               # if the backends diverge bit-for-bit
//!   experiments --accuracy-bench PATH
//!                               # also run the Monte-Carlo
//!                               # statistical-guarantee sweep, write
//!                               # its trajectory to PATH
//!                               # (BENCH_accuracy.json), and exit
//!                               # nonzero if any protocol violates its
//!                               # (ε, δ) contract
//!   experiments --serve-bench PATH
//!                               # also run the serving trajectory —
//!                               # all 14 protocols over a loopback
//!                               # socket plus serve-daemon throughput —
//!                               # write it to PATH (BENCH_serve.json),
//!                               # and exit nonzero on any remote-vs-
//!                               # local divergence or if real wire
//!                               # bytes fall below logical bits/8
//!   experiments --kernels-bench PATH
//!                               # also run the sketch-kernel
//!                               # trajectory — fast kernels vs the
//!                               # scalar reference end-to-end, fused
//!                               # multi-seed passes vs per-seed
//!                               # builds — write it to PATH
//!                               # (BENCH_kernels.json), and exit
//!                               # nonzero if a fast path diverges from
//!                               # scalar bit-for-bit or fails its
//!                               # speedup gate
//!   experiments --obs-bench PATH
//!                               # also run the observability-overhead
//!                               # trajectory — the serve mix with the
//!                               # metrics registry off/on/traced —
//!                               # write it to PATH (BENCH_obs.json),
//!                               # and exit nonzero if the enabled tier
//!                               # costs more than 3% qps, a disabled
//!                               # handle is measurably hot, or the
//!                               # emitted spans break their contract
//!   experiments --stream-bench PATH
//!                               # also run the streaming trajectory —
//!                               # live-update ingest, incremental vs
//!                               # rebuild, queries under update load,
//!                               # and the drift-verification sweep —
//!                               # write it to PATH (BENCH_stream.json),
//!                               # and exit nonzero on any divergence,
//!                               # contract violation, or if the
//!                               # incremental path fails to beat a
//!                               # rebuild

use mpest_bench::experiments::{run, IDS};
use mpest_bench::report::{save_json, Table};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut only: Option<Vec<String>> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut batch_path: Option<PathBuf> = None;
    let mut exec_path: Option<PathBuf> = None;
    let mut accuracy_path: Option<PathBuf> = None;
    let mut serve_path: Option<PathBuf> = None;
    let mut obs_path: Option<PathBuf> = None;
    let mut stream_path: Option<PathBuf> = None;
    let mut kernels_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--only" => {
                i += 1;
                let ids = args.get(i).expect("--only needs a comma-separated list");
                only = Some(ids.split(',').map(|s| s.trim().to_lowercase()).collect());
            }
            "--json" => {
                i += 1;
                json_path = Some(PathBuf::from(args.get(i).expect("--json needs a path")));
            }
            "--batch-bench" => {
                i += 1;
                batch_path = Some(PathBuf::from(
                    args.get(i).expect("--batch-bench needs a path"),
                ));
            }
            "--exec-bench" => {
                i += 1;
                exec_path = Some(PathBuf::from(
                    args.get(i).expect("--exec-bench needs a path"),
                ));
            }
            "--accuracy-bench" => {
                i += 1;
                accuracy_path = Some(PathBuf::from(
                    args.get(i).expect("--accuracy-bench needs a path"),
                ));
            }
            "--serve-bench" => {
                i += 1;
                serve_path = Some(PathBuf::from(
                    args.get(i).expect("--serve-bench needs a path"),
                ));
            }
            "--obs-bench" => {
                i += 1;
                obs_path = Some(PathBuf::from(
                    args.get(i).expect("--obs-bench needs a path"),
                ));
            }
            "--stream-bench" => {
                i += 1;
                stream_path = Some(PathBuf::from(
                    args.get(i).expect("--stream-bench needs a path"),
                ));
            }
            "--kernels-bench" => {
                i += 1;
                kernels_path = Some(PathBuf::from(
                    args.get(i).expect("--kernels-bench needs a path"),
                ));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: experiments [--quick] [--only t1,f1,...] [--json PATH] [--batch-bench PATH] [--exec-bench PATH] [--accuracy-bench PATH] [--serve-bench PATH] [--obs-bench PATH] [--stream-bench PATH] [--kernels-bench PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }

    // Every requested id must be known (or the explicit sentinel
    // "none"), so a typo can't silently run zero experiments.
    if let Some(ids) = &only {
        for id in ids {
            if id != "none" && !IDS.contains(&id.as_str()) {
                eprintln!("unknown experiment id {id:?}; known ids: {IDS:?} (or \"none\")");
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<&str> = match &only {
        Some(ids) => IDS
            .iter()
            .copied()
            .filter(|id| ids.iter().any(|want| want == id))
            .collect(),
        None => IDS.to_vec(),
    };
    if selected.is_empty()
        && batch_path.is_none()
        && exec_path.is_none()
        && accuracy_path.is_none()
        && serve_path.is_none()
        && obs_path.is_none()
        && stream_path.is_none()
        && kernels_path.is_none()
    {
        eprintln!("no experiments selected; known ids: {IDS:?}");
        std::process::exit(2);
    }

    println!("# mpest experiments — Woodruff–Zhang PODS'18 reproduction");
    println!(
        "# mode: {}; experiments: {}\n",
        if quick { "quick" } else { "full" },
        selected.join(", ")
    );

    let mut tables: Vec<Table> = Vec::new();
    for id in selected {
        let start = std::time::Instant::now();
        let table = run(id, quick).expect("known id");
        let secs = start.elapsed().as_secs_f64();
        print!("{}", table.to_markdown());
        println!("_({id} completed in {secs:.1}s)_\n");
        tables.push(table);
    }

    if let Some(path) = json_path {
        save_json(&tables, &path).expect("write json");
        println!("# tables written to {}", path.display());
    }

    if let Some(path) = batch_path {
        println!("# batch-engine throughput trajectory ({} mode)", {
            if quick {
                "quick"
            } else {
                "full"
            }
        });
        let bench = mpest_bench::batch::run(quick);
        print!("{}", bench.summary());
        bench.save_json(&path).expect("write batch bench json");
        println!("# batch trajectory written to {}", path.display());
        if !bench.all_match {
            eprintln!("FAIL: batch output diverged from the sequential seeded run");
            std::process::exit(1);
        }
    }

    if let Some(path) = exec_path {
        println!("# executor trajectory: fused vs threaded ({} mode)", {
            if quick {
                "quick"
            } else {
                "full"
            }
        });
        let bench = mpest_bench::exec::run(quick);
        print!("{}", bench.summary());
        bench.save_json(&path).expect("write exec bench json");
        println!("# executor trajectory written to {}", path.display());
        if !bench.all_match {
            eprintln!("FAIL: fused and threaded executors diverged bit-for-bit");
            std::process::exit(1);
        }
    }

    if let Some(path) = serve_path {
        println!(
            "# serving trajectory: remote sockets vs in-process ({} mode)",
            {
                if quick {
                    "quick"
                } else {
                    "full"
                }
            }
        );
        let bench = mpest_bench::serve::run(quick);
        print!("{}", bench.summary());
        bench.save_json(&path).expect("write serve bench json");
        println!("# serving trajectory written to {}", path.display());
        if !bench.all_match {
            eprintln!(
                "FAIL: remote execution diverged from the fused in-process run \
                 (or wire bytes fell below logical bits/8)"
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = obs_path {
        println!("# observability-overhead trajectory ({} mode)", {
            if quick {
                "quick"
            } else {
                "full"
            }
        });
        let bench = mpest_bench::obs::run(quick);
        print!("{}", bench.summary());
        bench.save_json(&path).expect("write obs bench json");
        println!("# observability trajectory written to {}", path.display());
        if !bench.all_ok {
            eprintln!(
                "FAIL: observability gate — enabled tier cost >3% qps, a disabled \
                 handle was measurably hot, or a span broke its phase contract"
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = stream_path {
        println!(
            "# streaming trajectory: live updates, drifted contracts ({} mode)",
            {
                if quick {
                    "quick"
                } else {
                    "full"
                }
            }
        );
        let bench = mpest_bench::stream::run(quick);
        print!("{}", bench.summary());
        bench.save_json(&path).expect("write stream bench json");
        println!("# streaming trajectory written to {}", path.display());
        if !bench.all_pass {
            eprintln!(
                "FAIL: streaming layer diverged (incremental != rebuild, daemon != mirror, \
                 a drifted contract was violated, or incremental failed to beat rebuild)"
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = kernels_path {
        println!("# sketch-kernel trajectory: fast vs scalar ({} mode)", {
            if quick {
                "quick"
            } else {
                "full"
            }
        });
        let bench = mpest_bench::kernels::run(quick);
        print!("{}", bench.summary());
        bench.save_json(&path).expect("write kernels bench json");
        println!("# kernel trajectory written to {}", path.display());
        if !bench.all_pass() {
            eprintln!(
                "FAIL: a fast kernel diverged from the scalar reference, \
                 or a speedup gate (single-query >=2x, multi-seed >=3x) failed"
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = accuracy_path {
        println!("# statistical-guarantee trajectory ({} mode)", {
            if quick {
                "quick"
            } else {
                "full"
            }
        });
        let bench = mpest_bench::accuracy::run(quick);
        print!("{}", bench.summary());
        bench.save_json(&path).expect("write accuracy bench json");
        println!("# accuracy trajectory written to {}", path.display());
        if !bench.all_pass() {
            eprintln!("FAIL: a protocol violated its statistical-guarantee contract");
            std::process::exit(1);
        }
    }
}
