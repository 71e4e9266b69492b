//! Pieces shared by the workload modules: correctness bookkeeping, report
//! digests, `Runner` calls and their checks, simulated-work counts, paired
//! traced rounds, store and codec sampling, and process measurements.

use crate::metrics::Sheet;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use numa_gpu_bench::codec::{decode_report, encode_report};
use numa_gpu_bench::store::fnv1a64;
use numa_gpu_bench::{DiskStore, Runner, SimPlan, StoreKey};
use numa_gpu_core::SimReport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

/// Command-line options shared by every workload.
#[derive(Debug)]
pub struct Opts {
    /// Workload seed; 0 runs the named jobs, any other value the held-out
    /// ones (and a seed-dependent job order).
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether to interleave traced runs and print the per-layer metrics.
    pub trace: bool,
    /// Host threads available to the process (`nproc`).
    pub nproc: usize,
    /// Scratch directory for this invocation (stores, side stores).
    pub work: std::path::PathBuf,
}

/// Counts attempted operations and failures. An operation is a simulation
/// run, a `Runner::execute` or a correctness comparison; a failure is a
/// simulation error, a panic or a failed comparison.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one comparison; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records one fallible operation and passes its value through; the
    /// error is counted and returned so the caller can stop.
    pub fn op<T>(&mut self, res: Result<T, String>, what: &str) -> Result<T, String> {
        self.attempted += 1;
        res.map_err(|e| {
            self.failed += 1;
            format!("{what}: {e}")
        })
    }
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        Err(format!("panicked: {msg}"))
    })
}

/// The lossless codec encoding of `report` with its profile stripped: the
/// byte form two runs of the same job must agree on.
pub fn encoding(report: &SimReport) -> String {
    let mut plain = report.clone();
    plain.profile = None;
    encode_report(&plain)
        .map(|doc| doc.to_string())
        .unwrap_or_else(|e| format!("unencodable: {e}"))
}

/// FNV-1a digest of a report encoding, printed per job so two commits can
/// be compared exactly.
pub fn digest(encoding: &str) -> String {
    format!("{:016x}", fnv1a64(encoding.as_bytes()))
}

/// Times `Runner::execute` of `plan` on `runner`.
pub fn execute(
    mut runner: Runner,
    plan: &SimPlan,
    name: &str,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> (Result<Runner, String>, f64) {
    tracer.time(name, parent, None, || {
        guarded(|| {
            runner.execute(plan.clone());
            Ok(runner)
        })
    })
}

/// Every job's report encoding from `runner`, in plan order.
pub fn encodings(runner: &Runner, plan: &SimPlan) -> Vec<Option<String>> {
    plan.jobs()
        .iter()
        .map(|job| runner.cached(&job.key).map(|r| encoding(&r)))
        .collect()
}

/// Checks every report `runner` holds against `reference`, in plan order.
pub fn check_reports(
    runner: &Runner,
    plan: &SimPlan,
    reference: &[String],
    what: &str,
    ck: &mut Checks,
) {
    let got = encodings(runner, plan);
    let mismatched = got
        .iter()
        .zip(reference)
        .filter(|(g, r)| g.as_deref() != Some(r.as_str()))
        .count();
    ck.check(mismatched == 0 && got.len() == reference.len(), || {
        format!("{what}: {mismatched} report(s) differ from the reference")
    });
}

/// Checks a warm re-serve: nothing simulated, every job a store hit,
/// nothing quarantined, every report byte-identical to the cold one.
pub fn check_warm(runner: &Runner, plan: &SimPlan, cold: &[String], ck: &mut Checks) {
    let jobs = plan.len() as u64;
    ck.check(runner.runs() == 0 && runner.warm_hits() == jobs, || {
        format!(
            "warm re-serve ran {} and hit {} of {jobs}",
            runner.runs(),
            runner.warm_hits()
        )
    });
    let quarantined = runner.store_stats().map_or(0, |s| s.quarantined);
    ck.check(quarantined == 0, || {
        format!("store quarantined {quarantined} entries")
    });
    check_reports(runner, plan, cold, "warm re-serve", ck);
}

/// Host seconds of one round of a traced run. A round runs the timed work
/// untraced, then traced, then traced at the other thread count, back to
/// back, so the per-layer ratios compare runs taken moments apart.
#[derive(Debug, Default, Clone, Copy)]
pub struct Round {
    /// The timed work, untraced.
    pub untraced: f64,
    /// The same work with profiling on and spans recorded.
    pub traced: f64,
    /// The serial side of the thread-speedup pair (traced).
    pub serial: f64,
    /// The parallel side of the thread-speedup pair (traced).
    pub parallel: f64,
}

/// Minimum rounds in a traced run: the paired metrics are medians over
/// rounds.
pub const TRACE_ROUNDS: usize = 3;

/// Records the paired per-layer timings: each is the median over `rounds`
/// of a value taken within one round, so host drift between rounds does
/// not enter the ratios. Returns one printable line per round.
pub fn record_rounds(rounds: &[Round], window_barriers: u64, sheet: &mut Sheet) -> Vec<String> {
    let median = |f: fn(&Round, u64) -> f64| {
        let xs: Vec<f64> = rounds.iter().map(|r| f(r, window_barriers)).collect();
        stats::median(&xs)
    };
    let k = rounds.len();
    sheet.set("exec.serial_run_s", median(|r, _| r.serial), k);
    sheet.set(
        "exec.thread_speedup",
        median(|r, _| stats::thread_speedup(r.serial, r.parallel)),
        k,
    );
    sheet.set(
        "exec.us_per_window",
        median(|r, w| r.parallel * 1e6 / w.max(1) as f64),
        k,
    );
    sheet.set(
        "obs.trace_overhead_frac",
        median(|r, _| stats::trace_overhead(r.traced, r.untraced)),
        k,
    );
    rounds
        .iter()
        .enumerate()
        .map(|(i, r)| {
            format!(
                "round {i} untraced_s={:.4} traced_s={:.4} serial_s={:.4} parallel_s={:.4} thread_speedup={:.3} trace_overhead={:.3}",
                r.untraced,
                r.traced,
                r.serial,
                r.parallel,
                stats::thread_speedup(r.serial, r.parallel),
                stats::trace_overhead(r.traced, r.untraced)
            )
        })
        .collect()
}

/// Simulated work summed over a set of profiled reports.
#[derive(Debug, Default)]
pub struct Counts {
    sim_cycles: u64,
    pub events_popped: u64,
    queue_peak_len: u64,
    pub window_barriers: u64,
    cross_msgs_merged: u64,
    pub warp_ops_issued: u64,
    mshr_stall_parks: u64,
    l1_accesses: u64,
    l2_accesses: u64,
    l2_hits: u64,
    l2_lookups: u64,
    dram_bytes: u64,
    page_lookups: u64,
    noc_requests: u64,
    link_bytes: u64,
    lane_turns: u64,
    remote_read_sum: f64,
    reports: u64,
}

impl Counts {
    /// Adds one report; `None` if it carries no profile.
    pub fn add(&mut self, r: &SimReport) -> Option<()> {
        let p = r.profile.as_ref()?;
        let get = |scope: &str, counter: &str| p.get(scope, counter);
        self.sim_cycles += r.total_cycles;
        self.events_popped += get("engine", "events_popped")?;
        self.queue_peak_len = self.queue_peak_len.max(get("engine", "queue_peak_len")?);
        self.window_barriers += get("engine", "window_barriers")?;
        self.cross_msgs_merged += get("engine", "cross_msgs_merged")?;
        self.warp_ops_issued += get("sm", "warp_ops_issued")?;
        self.mshr_stall_parks += get("sm", "mshr_stall_parks")?;
        self.l1_accesses += get("cache", "l1_accesses")?;
        self.l2_accesses += get("cache", "l2_accesses")?;
        for s in &r.sockets {
            let hits = s.l2.local_hits.get() + s.l2.remote_hits.get();
            self.l2_hits += hits;
            self.l2_lookups += hits + s.l2.local_misses.get() + s.l2.remote_misses.get();
        }
        self.dram_bytes += get("mem", "dram_bytes")?;
        self.page_lookups += get("mem", "page_lookups")?;
        self.noc_requests += get("interconnect", "noc_requests")?;
        self.link_bytes +=
            get("interconnect", "link_egress_bytes")? + get("interconnect", "link_ingress_bytes")?;
        self.lane_turns += get("interconnect", "lane_turns")?;
        self.remote_read_sum += r.remote_read_fraction;
        self.reports += 1;
        Some(())
    }

    /// Records every simulated count on `sheet` under its layer name.
    pub fn record(&self, sheet: &mut Sheet) {
        let n = self.reports as usize;
        let counts = [
            ("core.sim_cycles", self.sim_cycles),
            ("engine.events_popped", self.events_popped),
            ("engine.queue_peak_len", self.queue_peak_len),
            ("engine.window_barriers", self.window_barriers),
            ("engine.cross_msgs_merged", self.cross_msgs_merged),
            ("sm.warp_ops_issued", self.warp_ops_issued),
            ("sm.mshr_stall_parks", self.mshr_stall_parks),
            ("cache.l1_accesses", self.l1_accesses),
            ("cache.l2_accesses", self.l2_accesses),
            ("mem.dram_bytes", self.dram_bytes),
            ("mem.page_lookups", self.page_lookups),
            ("interconnect.noc_requests", self.noc_requests),
            ("interconnect.link_bytes", self.link_bytes),
            ("interconnect.lane_turns", self.lane_turns),
        ];
        for (name, v) in counts {
            sheet.set(name, v as f64, n);
        }
        sheet.set(
            "cache.l2_hit_ratio",
            crate::stats::hit_ratio(self.l2_hits, self.l2_lookups),
            n,
        );
        sheet.set(
            "interconnect.remote_read_fraction",
            self.remote_read_sum / self.reports.max(1) as f64,
            n,
        );
    }
}

/// Host-time samples, in microseconds, of the store and codec calls.
#[derive(Debug, Default)]
pub struct CodecSamples {
    save: Vec<f64>,
    load: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    to_json: Vec<f64>,
}

impl CodecSamples {
    /// Times `DiskStore::save`/`load`, `encode_report`/`decode_report`
    /// and `SimReport::to_json` on each report, cycling over `reports`
    /// until at least `min_samples` of each are taken, and checks that
    /// every round trip returns the report unchanged.
    pub fn take(
        reports: &[(StoreKey, &SimReport)],
        side: &Path,
        min_samples: usize,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        ck: &mut Checks,
    ) -> Result<CodecSamples, String> {
        let mut store = DiskStore::open(side).map_err(|e| format!("side store: {e}"))?;
        let mut s = CodecSamples::default();
        let us = |secs: f64| secs * 1e6;
        let mut i = 0;
        while s.save.len() < min_samples.max(reports.len()) {
            let job = i % reports.len();
            let (key, report) = &reports[job];
            i += 1;
            let (saved, t) = tracer.time("DiskStore::save", parent, Some(job), || {
                store.save(key, report)
            });
            ck.op(saved.map_err(|e| e.to_string()), "DiskStore::save")?;
            s.save.push(us(t));
            let (loaded, t) = tracer.time("DiskStore::load", parent, Some(job), || store.load(key));
            s.load.push(us(t));
            ck.check(loaded.as_ref() == Some(*report), || {
                format!("store round trip changed job {job}")
            });
            let (doc, t) = tracer.time("codec::encode_report", parent, Some(job), || {
                encode_report(report)
            });
            s.encode.push(us(t));
            let doc = ck.op(doc.map_err(|e| e.to_string()), "codec::encode_report")?;
            let (back, t) = tracer.time("codec::decode_report", parent, Some(job), || {
                decode_report(&doc)
            });
            s.decode.push(us(t));
            ck.check(back.as_ref().ok() == Some(*report), || {
                format!("codec round trip changed job {job}")
            });
            let (_, t) = tracer.time("SimReport::to_json", parent, Some(job), || {
                report.to_json().to_string()
            });
            s.to_json.push(us(t));
        }
        Ok(s)
    }

    /// Records the p50/p90 of each sample set on `sheet`.
    pub fn record(&self, sheet: &mut Sheet) {
        sheet.percentiles("bench.store_save_us", &self.save);
        sheet.percentiles("bench.store_load_us", &self.load);
        sheet.percentiles("bench.codec_encode_us", &self.encode);
        sheet.percentiles("bench.codec_decode_us", &self.decode);
        sheet.percentiles("bench.to_json_us", &self.to_json);
    }
}

/// Samples per store/codec percentile: enough for ten beyond the p90.
pub const CODEC_SAMPLES: usize = 100;

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// A seed-determined permutation of `0..n`: the identity for seed 0, a
/// Fisher–Yates shuffle driven by an xorshift stream otherwise.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == 0 {
        return order;
    }
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        order.swap(i, (x % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_identity_at_seed_zero_and_a_permutation_otherwise() {
        assert_eq!(permutation(5, 0), vec![0, 1, 2, 3, 4]);
        for seed in 1..20 {
            let mut p = permutation(41, seed);
            assert_eq!(p, permutation(41, seed), "same seed, same order");
            p.sort_unstable();
            assert_eq!(p, (0..41).collect::<Vec<_>>());
        }
        assert_ne!(permutation(41, 1), permutation(41, 2));
    }

    #[test]
    fn guarded_turns_panics_into_errors() {
        assert_eq!(guarded(|| Ok::<_, String>(1)), Ok(1));
        let err = guarded::<()>(|| panic!("boom")).unwrap_err();
        assert!(err.contains("boom"), "{err}");
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut ck = Checks::default();
        ck.check(true, String::new);
        ck.check(false, || "expected".into());
        assert!(ck.op(Err::<(), _>("x".into()), "op").is_err());
        assert_eq!((ck.attempted, ck.failed), (3, 2));
    }

    #[test]
    fn paired_rounds_cancel_drift_between_rounds() {
        // The host slows 2x and then 4x between rounds; every ratio taken
        // within a round stays put.
        let rounds: Vec<Round> = [1.0, 2.0, 4.0]
            .iter()
            .map(|&slow| Round {
                untraced: 1.0 * slow,
                traced: 1.1 * slow,
                serial: 3.0 * slow,
                parallel: 2.0 * slow,
            })
            .collect();
        let mut sheet = Sheet::default();
        assert_eq!(record_rounds(&rounds, 1000, &mut sheet).len(), 3);
        let get = |name| sheet.get(name).unwrap();
        assert!((get("exec.thread_speedup") - 1.5).abs() < 1e-12);
        assert!((get("obs.trace_overhead_frac") - 0.1).abs() < 1e-12);
        assert_eq!(get("exec.serial_run_s"), 6.0);
        assert_eq!(get("exec.us_per_window"), 4000.0);
    }
}
