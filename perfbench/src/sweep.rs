//! The quick-scale sweep: the Figure 11 job set run through the caching
//! `Runner`, cold into a fresh on-disk store and then warm from it.
//!
//! Per-job fixed costs (system construction, pool fan-out, store writes and
//! reads) dominate here, and the full-scale queue pathology is absent, so
//! this is the control a queue change should barely move.

use crate::harness::{
    check_reports, check_warm, digest, dir_bytes, encoding, encodings, execute, guarded,
    permutation, record_rounds, Checks, CodecSamples, Counts, Opts, Round, CODEC_SAMPLES,
    TRACE_ROUNDS,
};
use crate::metrics::Sheet;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use numa_gpu_bench::{configs, JobKey, Runner, SimPlan, StoreKey};
use numa_gpu_core::{NumaGpuSystem, SimReport};
use numa_gpu_types::SystemConfig;
use numa_gpu_workloads::{catalog, Scale, WORKLOAD_NAMES};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups before the timed phase.
const SETUP_REPS: usize = 5;
/// Set-ups after each cold repetition, so that the samples behind
/// `setup_s` (their median) spread over the whole run.
const SETUP_PER_REP: usize = 1;
/// Warm re-serves of the whole plan after each cold repetition;
/// `bench.warm_s` is the median of all of them.
const WARM_PER_REP: usize = 3;

/// The Figure 11 configurations: one GPU, NUMA-aware 2/4/8 sockets and the
/// hypothetical 2/4/8x-scaled GPU.
fn variants() -> Vec<(String, SystemConfig)> {
    let mut v = vec![("single".to_string(), configs::single())];
    for n in [2u8, 4, 8] {
        v.push((format!("aware{n}"), configs::numa_aware(n)));
    }
    for n in [2u8, 4, 8] {
        v.push((format!("hypo{n}"), configs::hypothetical(n)));
    }
    v
}

/// Builds the sweep plan: every catalog workload (in a seed-determined
/// order) crossed with every variant.
fn plan(seed: u64, tracer: &mut Tracer, parent: Option<SpanId>) -> (SimPlan, f64) {
    let (wls, gen_s) = tracer.time("workloads::catalog", parent, None, || {
        catalog(&Scale::quick())
    });
    let order = permutation(wls.len(), seed);
    let wls: Vec<_> = order.into_iter().map(|i| wls[i].clone()).collect();
    (SimPlan::cross(&variants(), &wls), gen_s)
}

fn runner(opts: &Opts) -> Runner {
    Runner::new(Scale::quick()).jobs(opts.nproc)
}

fn open(opts: &Opts, dir: &Path) -> Result<Runner, String> {
    runner(opts)
        .cache_dir(dir)
        .map_err(|e| format!("store: {e}"))
}

/// One set-up: the catalog generated and the plan built, a runner opened
/// on a fresh store in `dir`, and a warm-up execute of one workload's seven
/// jobs through it (always the first Table 2 workload, whatever the seed).
/// Returns the plan and the host seconds the set-up took.
fn set_up(opts: &Opts, dir: &Path, ck: &mut Checks) -> Result<(SimPlan, f64), String> {
    let mut off = Tracer::new(false);
    let start = Instant::now();
    let sweep = plan(opts.seed, &mut off, None).0;
    let runner = ck.op(open(opts, dir), "Runner::cache_dir")?;
    let mut warm_up = sweep.clone();
    warm_up.retain(|key| key.workload == WORKLOAD_NAMES[0]);
    let (runner, _) = execute(
        runner,
        &warm_up,
        "Runner::execute (warm-up)",
        &mut off,
        None,
    );
    ck.op(runner, "warm-up Runner::execute")?;
    Ok((sweep, start.elapsed().as_secs_f64()))
}

/// Constructs and runs every job of `plan` directly, one after another on
/// this thread, with profiling on, and checks each report against `cold`.
/// Returns the reports' counts, the host seconds of each
/// `NumaGpuSystem::new`, and the summed seconds of `NumaGpuSystem::run`.
fn serial_pass(
    plan: &SimPlan,
    cold: &[String],
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    ck: &mut Checks,
) -> Result<(Counts, Vec<f64>, f64), String> {
    let mut counts = Counts::default();
    let (mut new_s, mut run_s) = (Vec::new(), 0.0);
    for (j, job) in plan.jobs().iter().enumerate() {
        let mut cfg = job.cfg.clone();
        cfg.obs.profile = true;
        let (sys, t) = tracer.time("NumaGpuSystem::new", parent, Some(j), || {
            guarded(|| NumaGpuSystem::new(cfg).map_err(|e| e.to_string()))
        });
        new_s.push(t);
        let mut sys = ck.op(sys, "NumaGpuSystem::new")?;
        let (report, t) = tracer.time("NumaGpuSystem::run", parent, Some(j), || {
            guarded(|| sys.run(&job.workload).map_err(|e| e.to_string()))
        });
        run_s += t;
        let report = ck.op(report, &job.key.display())?;
        ck.check(encoding(&report) == cold[j], || {
            format!("{}: serial report differs from cold", job.key.display())
        });
        counts
            .add(&report)
            .ok_or("profiled report carries no profile")?;
    }
    Ok((counts, new_s, run_s))
}

/// Runs the sweep, recording end-to-end metrics on `sheet` and, with
/// `opts.trace`, the per-layer ones from traced rounds.
pub fn run(
    opts: &Opts,
    ck: &mut Checks,
    sheet: &mut Sheet,
    tracer: &mut Tracer,
) -> Result<Vec<String>, String> {
    let mut off = Tracer::new(false);
    let mut setup = Vec::new();
    let mut sweep = SimPlan::new();
    let setup_dir = |k: usize| opts.work.join(format!("setup-{k}"));
    for k in 0..SETUP_REPS {
        let (built, secs) = set_up(opts, &setup_dir(k), ck)?;
        sweep = built;
        setup.push(secs);
    }

    // Timed phase: cold executions into a fresh store, until at least
    // `opts.seconds` are measured; the last may run past it. Every repetition must reproduce the first one's reports. Warm
    // re-serves from each repetition's store follow it, so their samples
    // spread over the whole run. A traced run follows each cold execute
    // with a traced one and a traced serial pass (see `Round`), for at
    // least `TRACE_ROUNDS` repetitions.
    let top = tracer.open("traced-pass", None);
    let (mut cold_s, mut warm, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut new_s, mut core_run, mut counts) = (Vec::new(), Vec::new(), Counts::default());
    let mut cold: Vec<String> = Vec::new();
    let mut store_dir = opts.work.join("cold-0");
    let mut bench_runs = 0;
    let mut round_lines = Vec::new();
    let start = Instant::now();
    loop {
        let _ = std::fs::remove_dir_all(&store_dir);
        store_dir = opts.work.join(format!("cold-{}", cold_s.len()));
        let (runner, secs) = execute(
            open(opts, &store_dir)?,
            &sweep,
            "Runner::execute",
            &mut off,
            None,
        );
        let runner = ck.op(runner, "cold Runner::execute")?;
        ck.check(runner.runs() == sweep.len() as u64, || {
            format!("cold execute ran {} of {} jobs", runner.runs(), sweep.len())
        });
        if cold.is_empty() {
            cold = encodings(&runner, &sweep)
                .into_iter()
                .collect::<Option<_>>()
                .ok_or("cold execute left jobs without a report")?;
        } else {
            check_reports(&runner, &sweep, &cold, "cold repetition", ck);
        }
        cold_s.push(secs);
        if opts.trace {
            let span = tracer.open(&format!("round-{}", rounds.len()), top);
            let traced_dir = opts.work.join("traced");
            let _ = std::fs::remove_dir_all(&traced_dir);
            let (runner, traced) = execute(
                open(opts, &traced_dir)?.profile(),
                &sweep,
                "Runner::execute",
                tracer,
                span,
            );
            let runner = ck.op(runner, "traced Runner::execute")?;
            check_reports(&runner, &sweep, &cold, "traced execute", ck);
            bench_runs = runner.runs();
            let pass = tracer.open("serial-pass", span);
            let (c, nw, run) = serial_pass(&sweep, &cold, tracer, pass, ck)?;
            tracer.close(pass);
            tracer.close(span);
            rounds.push(Round {
                untraced: secs,
                traced,
                serial: run + nw.iter().sum::<f64>(),
                parallel: traced,
            });
            counts = c;
            core_run.push(run);
            new_s.extend(nw);
        }
        for _ in 0..WARM_PER_REP {
            let (runner, secs) = execute(
                open(opts, &store_dir)?,
                &sweep,
                "Runner::execute (warm)",
                &mut off,
                None,
            );
            let runner = ck.op(runner, "warm Runner::execute")?;
            check_warm(&runner, &sweep, &cold, ck);
            warm.push(secs);
        }
        for _ in 0..SETUP_PER_REP {
            setup.push(set_up(opts, &setup_dir(setup.len()), ck)?.1);
        }
        let enough = !opts.trace || rounds.len() >= TRACE_ROUNDS;
        if enough && start.elapsed() >= opts.seconds {
            break;
        }
    }
    sheet.median("setup_s", &setup);
    sheet.median("run_s", &cold_s);
    sheet.median("bench.warm_s", &warm);

    if opts.trace {
        let (_, gen_s) = plan(opts.seed, tracer, top);
        let (warm, _) = execute(
            open(opts, &store_dir)?,
            &sweep,
            "Runner::execute (warm)",
            tracer,
            top,
        );
        let warm = ck.op(warm, "traced warm Runner::execute")?;
        check_warm(&warm, &sweep, &cold, ck);

        let n = sweep.len();
        let core_run = stats::median(&core_run);
        counts.record(sheet);
        sheet.set("workloads.gen_s", gen_s, 1);
        sheet.median("core.new_s", &new_s);
        sheet.set("core.run_s", core_run, rounds.len());
        sheet.set(
            "core.ns_per_event",
            stats::ns_per_event(core_run, counts.events_popped),
            rounds.len(),
        );
        // Every job already runs at quick scale, so it is its own
        // quick-scale twin and the ratio is 1 by construction.
        sheet.set("core.event_cost_scale_ratio", 1.0, n);
        round_lines = record_rounds(&rounds, counts.window_barriers, sheet);
        sheet.set("bench.runs", bench_runs as f64, 1);
        sheet.set(
            "bench.warm_hit_ratio",
            warm.warm_hits() as f64 / n as f64,
            n,
        );
        sheet.set("bench.store_bytes", dir_bytes(&store_dir) as f64, n);

        let reports: Vec<(StoreKey, Arc<SimReport>)> = sweep
            .jobs()
            .iter()
            .filter_map(|job| {
                let report = warm.cached(&job.key)?;
                Some((StoreKey::new(&job.key, &job.cfg, &Scale::quick()), report))
            })
            .collect();
        let pairs: Vec<(StoreKey, &SimReport)> =
            reports.iter().map(|(k, r)| (k.clone(), &**r)).collect();
        let side = opts.work.join("side");
        CodecSamples::take(&pairs, &side, CODEC_SAMPLES, tracer, top, ck)?.record(sheet);
    } else {
        let (runner, _) = execute(
            runner(opts).profile(),
            &sweep,
            "Runner::execute",
            &mut off,
            None,
        );
        let runner = ck.op(runner, "profiled Runner::execute")?;
        check_reports(&runner, &sweep, &cold, "profiled execute", ck);
        for job in sweep.jobs() {
            let report = runner
                .cached(&job.key)
                .ok_or("profiled execute lost a job")?;
            counts
                .add(&report)
                .ok_or("profiled report carries no profile")?;
        }
    }
    tracer.close(top);
    sheet.set(
        "warp_ops_per_s",
        counts.warp_ops_issued as f64 / stats::median(&cold_s),
        cold_s.len(),
    );

    // Per-job digests in key order, so every seed prints the same list.
    let mut lines: Vec<(JobKey, String)> = sweep
        .jobs()
        .iter()
        .zip(&cold)
        .map(|(job, enc)| {
            let line = format!(
                "job {:<7} {:<26} digest={}",
                job.key.label,
                job.key.workload,
                digest(enc)
            );
            (job.key.clone(), line)
        })
        .collect();
    lines.sort();
    round_lines.extend(lines.into_iter().map(|(_, l)| l));
    Ok(round_lines)
}
