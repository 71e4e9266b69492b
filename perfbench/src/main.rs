//! Host-time benchmark of the NUMA-GPU simulator.
//!
//! ```text
//! perfbench --workload <full-serial|full-threaded8|sweep-quick>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload, checks the simulator's outputs, and
//! prints a table of metrics (value, unit, sample count) followed by one
//! JSON result line. `--trace 0` reports the end-to-end metrics from
//! untraced runs; `--trace 1` interleaves traced runs with the untraced ones
//! and reports the per-layer metrics, writing its spans as a Chrome trace
//! under `.perfbench/traces/`.
//! The exit code is 0 only when every run and every check succeeded.
//! See `README.md` beside this package for the workloads and metrics.

mod full;
mod harness;
mod metrics;
mod stats;
mod sweep;
mod trace;

use full::{FullWorkload, Job};
use harness::{peak_rss_mib, Checks, Opts};
use metrics::{Sheet, END_TO_END, PER_LAYER};
use numa_gpu_testkit::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["full-serial", "full-threaded8", "sweep-quick"];

/// Held-out swaps: any seed other than 0 replaces the named job with a
/// same-archetype catalog job of comparable full-scale length.
/// `Lonestar-SSSP` (hot/cold, 4.1 s at 4 sockets) and `Rodinia-Euler3D`
/// (8 sockets, 2.8 s) have no such partner and always run: the other
/// hot/cold jobs take 0.1 s or over 12 s, the other read-write irregular
/// jobs 0.5 s or 25 s.
const HELD_OUT: [(&str, &str); 1] = [("Rodinia-Backprop", "Rodinia-Kmeans")];

fn pick(name: &'static str, seed: u64) -> &'static str {
    match HELD_OUT.iter().find(|(named, _)| *named == name) {
        Some((_, held_out)) if seed != 0 => held_out,
        _ => name,
    }
}

fn full_serial(seed: u64) -> FullWorkload {
    FullWorkload {
        jobs: vec![
            Job {
                workload: pick("Rodinia-Backprop", seed),
                sockets: 4,
            },
            Job {
                workload: pick("Lonestar-SSSP", seed),
                sockets: 4,
            },
        ],
        threads: 1,
    }
}

fn full_threaded8(seed: u64, nproc: usize) -> FullWorkload {
    FullWorkload {
        jobs: vec![Job {
            workload: pick("Rodinia-Euler3D", seed),
            sockets: 8,
        }],
        threads: nproc.min(8) as u16,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let opts = Opts {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: root.join(format!("run-{}", std::process::id())),
    };
    let mut ck = Checks::default();
    let mut sheet = Sheet::default();
    let mut tracer = Tracer::new(opts.trace);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        opts.nproc
    );

    let outcome = std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("work dir: {e}"))
        .and_then(|()| match args.workload.as_str() {
            "full-serial" => full::run(
                &full_serial(args.seed),
                &opts,
                &mut ck,
                &mut sheet,
                &mut tracer,
            ),
            "full-threaded8" => full::run(
                &full_threaded8(args.seed, opts.nproc),
                &opts,
                &mut ck,
                &mut sheet,
                &mut tracer,
            ),
            _ => sweep::run(&opts, &mut ck, &mut sheet, &mut tracer),
        });
    let _ = std::fs::remove_dir_all(&opts.work);
    if let Some(mib) = peak_rss_mib() {
        sheet.set("peak_rss_mb", mib, 1);
    }
    let catalogue: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    match outcome {
        Ok(lines) => {
            lines.iter().for_each(|l| println!("{l}"));
            let missing = sheet.missing(catalogue);
            ck.check(missing.is_empty(), || {
                format!("metrics not measured: {}", missing.join(", "))
            });
        }
        // `Checks::op` already counted a failed operation; any other error
        // that stopped the run counts here.
        Err(e) if ck.failed > 0 => eprintln!("perfbench: stopped: {e}"),
        Err(e) => ck.check(false, || e),
    }
    if opts.trace {
        let path = root
            .join("traces")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(root.join("traces"))
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace().to_string()));
        match written {
            Ok(()) => println!("trace: {} spans in {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let correct = ck.failed == 0;
    print!("{}", sheet.table(&END_TO_END));
    println!(
        "  {:<36} {:>18.6} {:<13} n={}",
        "failed_frac",
        ck.failed as f64 / ck.attempted.max(1) as f64,
        "failed/attempt",
        ck.attempted
    );
    print!("{}", sheet.table(&PER_LAYER));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(ck.attempted)),
        ("failed", Json::UInt(ck.failed)),
        ("metrics", sheet.json(catalogue)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
