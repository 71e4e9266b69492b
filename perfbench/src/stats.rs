//! Sample statistics and the derived metrics the benchmark reports.
//!
//! Every derivation is a small pure function so the unit tests below can
//! pin it; the workload modules `full.rs` and `sweep.rs` only time calls and
//! feed the results through here.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so a p90 needs 100 samples and a p50 needs 20.
pub const MIN_TAIL: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); `NaN` for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of `xs`, or `None` unless at
/// least [`MIN_TAIL`] samples lie beyond the selected rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_TAIL {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Host nanoseconds per simulated event.
pub fn ns_per_event(run_s: f64, events: u64) -> f64 {
    run_s * 1e9 / events.max(1) as f64
}

/// Per-event cost at full scale over the same job's cost at quick scale.
/// A flat cost model gives 1; the queue pathology shows as a large ratio.
pub fn event_cost_scale_ratio(full_ns_per_event: f64, quick_ns_per_event: f64) -> f64 {
    full_ns_per_event / quick_ns_per_event
}

/// Serial-reference time over the parallel time of the same work (> 1
/// means the parallel executor wins).
pub fn thread_speedup(serial_s: f64, parallel_s: f64) -> f64 {
    serial_s / parallel_s
}

/// The cost of tracing: traced time over the untraced time of the same
/// work, minus one.
pub fn trace_overhead(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s
}

/// Hits over accesses; 0 when nothing was accessed.
pub fn hit_ratio(hits: u64, accesses: u64) -> f64 {
    if accesses == 0 {
        0.0
    } else {
        hits as f64 / accesses as f64
    }
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        // 99 samples leave only nine beyond the p90 rank (90).
        assert_eq!(percentile(&xs[..99], 90.0), None);
        // A p50 needs 20 samples: rank 10 of 20 leaves ten beyond.
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=287).map(f64::from).collect();
        xs.reverse();
        // ceil(0.9 * 287) = 259.
        assert_eq!(percentile(&xs, 90.0), Some(259.0));
        assert_eq!(percentile(&xs, 50.0), Some(144.0));
    }

    #[test]
    fn per_event_cost_and_its_scale_ratio() {
        // 5.875 s over 2,129,618 events is ~2,759 ns per event.
        let full = ns_per_event(5.875, 2_129_618);
        assert!((full - 2758.7).abs() < 0.1, "{full}");
        let quick = ns_per_event(0.013, 36_927);
        assert!((quick - 352.0).abs() < 0.1, "{quick}");
        let ratio = event_cost_scale_ratio(full, quick);
        assert!((ratio - full / quick).abs() < 1e-12);
        assert!(ratio > 7.0 && ratio < 8.0, "{ratio}");
        // A zero event count does not divide by zero.
        assert_eq!(ns_per_event(1.0, 0), 1e9);
    }

    #[test]
    fn thread_speedup_below_one_means_threads_lose() {
        assert_eq!(thread_speedup(2.8, 5.6), 0.5);
        assert_eq!(thread_speedup(3.0, 1.5), 2.0);
    }

    #[test]
    fn trace_overhead_is_the_relative_extra_time() {
        assert!((trace_overhead(1.05, 1.0) - 0.05).abs() < 1e-12);
        assert!(trace_overhead(0.9, 1.0) < 0.0);
    }

    #[test]
    fn l2_hit_ratio_is_hits_over_accesses() {
        assert_eq!(hit_ratio(3, 4), 0.75);
        assert_eq!(hit_ratio(0, 0), 0.0);
    }

    #[test]
    fn name_and_unit_grammar() {
        for ok in [
            "setup_s",
            "core.run_s",
            "bench.store_save_us.p90",
            "1x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "ms", "1/s", "warp_instr/s", "%", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
