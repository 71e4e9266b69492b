//! The full-scale workloads: a few long simulations timed call by call.
//!
//! `full-serial` runs NUMA-aware 4-socket jobs on one host thread, where
//! the event queue does most of the work. `full-threaded8` runs one
//! 8-socket job with the window executor on `min(nproc, 8)` threads and
//! checks it against a serial reference run of the same job.

use crate::harness::{
    check_warm, digest, encoding, execute, guarded, permutation, record_rounds, Checks,
    CodecSamples, Counts, Opts, Round, CODEC_SAMPLES, TRACE_ROUNDS,
};
use crate::metrics::Sheet;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use numa_gpu_bench::{configs, JobKey, Runner, SimPlan, StoreKey};
use numa_gpu_core::{NumaGpuSystem, SimReport};
use numa_gpu_runtime::Workload;
use numa_gpu_types::SystemConfig;
use numa_gpu_workloads::{by_name, Scale};
use std::time::Instant;

/// Set-ups before the timed phase.
const SETUP_REPS: usize = 10;
/// Set-ups after each timed repetition, so that the samples behind
/// `setup_s` (their median) spread over the whole run.
const SETUP_PER_REP: usize = 4;
/// Quick-scale twin runs per job in a traced run.
const QUICK_REPS: usize = 5;

/// One job: a catalog workload on a NUMA-aware machine of `sockets`.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub workload: &'static str,
    pub sockets: u8,
}

impl Job {
    /// Short id used in the printed table, e.g. `backprop4`.
    pub fn id(&self) -> String {
        let base = self.workload.rsplit('-').next().unwrap_or(self.workload);
        format!("{}{}", base.to_ascii_lowercase(), self.sockets)
    }

    fn label(&self) -> String {
        format!("aware{}", self.sockets)
    }

    fn cfg(&self, threads: u16, profile: bool) -> SystemConfig {
        let mut cfg = configs::numa_aware(self.sockets);
        cfg.sim_threads = threads;
        cfg.obs.profile = profile;
        cfg
    }
}

/// A full-scale workload: its jobs and the thread count of its timed runs.
#[derive(Debug, Clone)]
pub struct FullWorkload {
    pub jobs: Vec<Job>,
    /// `sim_threads` of the timed runs. Every profiled run, serial or
    /// parallel, must reproduce their reports byte for byte.
    pub threads: u16,
}

/// Full-scale workload generation, with host time spent in `by_name`.
fn generate(
    job: &Job,
    scale: &Scale,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    j: usize,
) -> Result<(Workload, f64), String> {
    let (wl, secs) = tracer.time("workloads::by_name", parent, Some(j), || {
        by_name(job.workload, scale)
    });
    Ok((
        wl.ok_or_else(|| format!("unknown workload {}", job.workload))?,
        secs,
    ))
}

/// Constructs a system and runs `wl` on it; returns the report with the
/// host seconds of `NumaGpuSystem::new` and of `NumaGpuSystem::run`.
fn simulate(
    cfg: SystemConfig,
    wl: &Workload,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    j: usize,
) -> Result<(SimReport, f64, f64), String> {
    let (sys, new_s) = tracer.time("NumaGpuSystem::new", parent, Some(j), || {
        guarded(|| NumaGpuSystem::new(cfg).map_err(|e| e.to_string()))
    });
    let mut sys = sys?;
    let (report, run_s) = tracer.time("NumaGpuSystem::run", parent, Some(j), || {
        guarded(|| sys.run(wl).map_err(|e| e.to_string()))
    });
    Ok((report?, new_s, run_s))
}

/// One set-up: each job generated at both scales, its system constructed,
/// and its quick-scale twin run as a warm-up. Returns the full-scale
/// workloads and the host seconds the set-up took.
fn set_up(w: &FullWorkload, ck: &mut Checks) -> Result<(Vec<Workload>, f64), String> {
    let mut off = Tracer::new(false);
    let start = Instant::now();
    let mut wls = Vec::new();
    for (j, job) in w.jobs.iter().enumerate() {
        let (wl, _) = generate(job, &Scale::full(), &mut off, None, j)?;
        let (twin, _) = generate(job, &Scale::quick(), &mut off, None, j)?;
        let sys =
            guarded(|| NumaGpuSystem::new(job.cfg(w.threads, false)).map_err(|e| e.to_string()));
        ck.op(sys, "NumaGpuSystem::new")?;
        let warm = simulate(job.cfg(w.threads, false), &twin, &mut off, None, j);
        ck.op(warm, &format!("quick twin of {}", job.id()))?;
        wls.push(wl);
    }
    Ok((wls, start.elapsed().as_secs_f64()))
}

/// A profiled run of `job` at `threads`, checked against the timed runs'
/// report; returns the report with its `new` and `run` host seconds.
#[allow(clippy::too_many_arguments)]
fn profiled(
    job: &Job,
    j: usize,
    threads: u16,
    wl: &Workload,
    reference: &str,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    ck: &mut Checks,
) -> Result<(SimReport, f64, f64), String> {
    let res = simulate(job.cfg(threads, true), wl, tracer, parent, j);
    let (report, new_s, run_s) = ck.op(res, &format!("profiled run of {}", job.id()))?;
    ck.check(encoding(&report) == reference, || {
        format!(
            "{}: profiled run at {threads} thread(s) differs from the timed runs",
            job.id()
        )
    });
    Ok((report, new_s, run_s))
}

fn events_popped(report: &SimReport) -> u64 {
    report
        .profile
        .as_ref()
        .and_then(|p| p.get("engine", "events_popped"))
        .unwrap_or(0)
}

/// Runs `w`, recording end-to-end metrics on `sheet` and, with
/// `opts.trace`, the per-layer ones from traced rounds.
pub fn run(
    w: &FullWorkload,
    opts: &Opts,
    ck: &mut Checks,
    sheet: &mut Sheet,
    tracer: &mut Tracer,
) -> Result<Vec<String>, String> {
    let mut off = Tracer::new(false);
    let n = w.jobs.len();
    let full = Scale::full();
    let mut setup = Vec::new();
    let mut wls = Vec::new();
    for _ in 0..SETUP_REPS {
        let (generated, secs) = set_up(w, ck)?;
        wls = generated;
        setup.push(secs);
    }

    // Timed phase: repeat the jobs until at least `opts.seconds` are
    // measured; the last repetition may run past it. Every
    // repetition must reproduce the first one's reports. A traced run
    // follows each job's timed run with a traced run at the same thread
    // count and one at the other (see `Round`), for at least
    // `TRACE_ROUNDS` repetitions.
    let top = tracer.open("traced-pass", None);
    let order = permutation(n, opts.seed);
    let mut reference: Vec<Option<String>> = vec![None; n];
    let mut reports: Vec<Option<SimReport>> = vec![None; n];
    let mut job_s = vec![Vec::new(); n];
    let mut traced_job_s = vec![Vec::new(); n];
    let (mut run_s, mut rounds, mut new_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts = Counts::default();
    let mut events = vec![0; n];
    let start = Instant::now();
    loop {
        let span = tracer.open(&format!("round-{}", rounds.len()), top);
        let mut round = Round::default();
        for &j in &order {
            let job = &w.jobs[j];
            let res = simulate(job.cfg(w.threads, false), &wls[j], &mut off, None, j);
            let (report, _, secs) = ck.op(res, &format!("run of {}", job.id()))?;
            round.untraced += secs;
            job_s[j].push(secs);
            let enc = encoding(&report);
            reports[j] = Some(report);
            let want = reference[j].get_or_insert_with(|| enc.clone());
            ck.check(*want == enc, || {
                format!("{} changed between repetitions", job.id())
            });
            if !opts.trace {
                continue;
            }
            let parent = tracer.open(&job.id(), span);
            let other = if w.threads == 1 {
                opts.nproc.min(job.sockets as usize) as u16
            } else {
                1
            };
            let mut sides = Vec::new();
            for threads in [w.threads, other] {
                let (report, nw, secs) =
                    profiled(job, j, threads, &wls[j], &enc, tracer, parent, ck)?;
                new_s.push(nw);
                sides.push((report, secs));
            }
            tracer.close(parent);
            // The timed thread count first, then the other one.
            let serial = if w.threads == 1 { 0 } else { 1 };
            if rounds.is_empty() {
                counts
                    .add(&sides[serial].0)
                    .ok_or("report carries no profile")?;
                events[j] = events_popped(&sides[serial].0);
            }
            traced_job_s[j].push(sides[0].1);
            round.traced += sides[0].1;
            round.serial += sides[serial].1;
            round.parallel += sides[1 - serial].1;
        }
        tracer.close(span);
        run_s.push(round.untraced);
        if opts.trace {
            rounds.push(round);
        }
        for _ in 0..SETUP_PER_REP {
            setup.push(set_up(w, ck)?.1);
        }
        let enough = !opts.trace || rounds.len() >= TRACE_ROUNDS;
        if enough && start.elapsed() >= opts.seconds {
            break;
        }
    }
    sheet.median("setup_s", &setup);
    sheet.median("run_s", &run_s);
    let reference: Vec<String> = reference.into_iter().flatten().collect();
    let reports: Vec<SimReport> = reports.into_iter().flatten().collect();

    // Untraced, a profiled serial run of each job gives the simulated
    // counts and is the reference the timed runs must match; traced, the
    // rounds already gave both.
    if !opts.trace {
        for (j, job) in w.jobs.iter().enumerate() {
            let (report, _, _) = profiled(job, j, 1, &wls[j], &reference[j], &mut off, None, ck)?;
            counts.add(&report).ok_or("report carries no profile")?;
            events[j] = events_popped(&report);
        }
    }
    sheet.set(
        "warp_ops_per_s",
        counts.warp_ops_issued as f64 / stats::median(&run_s),
        run_s.len(),
    );

    let mut lines = Vec::new();
    let (mut gen_s, mut ratios) = (0.0, Vec::new());
    for (j, job) in w.jobs.iter().enumerate() {
        let untraced = stats::median(&job_s[j]);
        let mut line = format!(
            "job {:<10} {:<26} digest={} run_s={untraced:.4} ns/event={:.1}",
            job.id(),
            job.workload,
            digest(&reference[j]),
            stats::ns_per_event(untraced, events[j]),
        );
        if opts.trace {
            // The same job at quick scale: the per-event cost it scales from.
            let parent = tracer.open(&job.id(), top);
            gen_s += generate(job, &full, tracer, parent, j)?.1;
            let (twin, g) = generate(job, &Scale::quick(), tracer, parent, j)?;
            gen_s += g;
            let mut twin_ns = Vec::new();
            for _ in 0..QUICK_REPS {
                let res = simulate(job.cfg(w.threads, true), &twin, tracer, parent, j);
                let (r, _, s) = ck.op(res, "quick twin")?;
                twin_ns.push(stats::ns_per_event(s, events_popped(&r)));
            }
            tracer.close(parent);
            let traced = stats::median(&traced_job_s[j]);
            let (f, q) = (
                stats::ns_per_event(traced, events[j]),
                stats::median(&twin_ns),
            );
            ratios.push(stats::event_cost_scale_ratio(f, q));
            line.push_str(&format!(
                " | traced: run_s={traced:.4} ns/event={f:.1} quick_ns/event={q:.1} scale_ratio={:.2}",
                ratios[j]
            ));
        }
        lines.push(line);
    }

    if opts.trace {
        let traced: Vec<f64> = rounds.iter().map(|r: &Round| r.traced).collect();
        let core_run = stats::median(&traced);
        counts.record(sheet);
        sheet.set("workloads.gen_s", gen_s, 2 * n);
        sheet.median("core.new_s", &new_s);
        sheet.set("core.run_s", core_run, rounds.len());
        sheet.set(
            "core.ns_per_event",
            stats::ns_per_event(core_run, counts.events_popped),
            rounds.len(),
        );
        sheet.median("core.event_cost_scale_ratio", &ratios);
        lines.extend(record_rounds(&rounds, counts.window_barriers, sheet));

        // Store and codec calls on the workload's reports, then one warm
        // re-serve of its jobs by a fresh `Runner` from the store they
        // were saved into.
        let mut plan = SimPlan::new();
        for (job, wl) in w.jobs.iter().zip(&wls) {
            plan.job(&job.label(), job.cfg(w.threads, false), wl);
        }
        let pairs: Vec<(StoreKey, &SimReport)> = w
            .jobs
            .iter()
            .zip(&reports)
            .map(|(job, report)| {
                let key = JobKey::new(job.label(), job.workload, false);
                (StoreKey::new(&key, &job.cfg(1, false), &full), report)
            })
            .collect();
        let side = opts.work.join("side");
        CodecSamples::take(&pairs, &side, CODEC_SAMPLES, tracer, top, ck)?.record(sheet);
        let runner = Runner::new(full)
            .cache_dir(&side)
            .map_err(|e| format!("store: {e}"))?;
        let (runner, warm_s) = execute(runner, &plan, "Runner::execute (warm)", tracer, top);
        let runner = ck.op(runner, "warm Runner::execute")?;
        check_warm(&runner, &plan, &reference, ck);
        sheet.set("bench.warm_s", warm_s, 1);
        sheet.set("bench.runs", runner.runs() as f64, 1);
        sheet.set(
            "bench.warm_hit_ratio",
            runner.warm_hits() as f64 / n as f64,
            n,
        );
        sheet.set(
            "bench.store_bytes",
            crate::harness::dir_bytes(&side) as f64,
            n,
        );
    }
    tracer.close(top);
    Ok(lines)
}
