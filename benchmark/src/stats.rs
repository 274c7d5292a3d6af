//! Order statistics, the `STATS` reply parser and the process readers
//! the passes sample (CPU time, peak RSS, load average).

use std::fs;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `pct` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The candidate tail percentiles, ascending, in hundredths of a percent
/// (integers, so the sample arithmetic below is exact).
const TAILS: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest candidate percentile that still has at least ten samples
/// beyond it (choosing-metrics §1), or `None` below 20 samples.
pub fn supported_tail(samples: usize) -> Option<f64> {
    let samples = samples as u64;
    TAILS
        .iter()
        .rev()
        .find(|&&tail| samples - (samples * tail).div_ceil(10_000) >= 10)
        .map(|&tail| tail as f64 / 100.0)
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Counters of one `STATS` reply
/// (`OK coalesced=3 negative_hits=1 ... cache_len=5 epoch=7`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub coalesced: u64,
    pub negative_hits: u64,
    pub negative_inserts: u64,
    pub computes: u64,
    pub cache_len: u64,
    pub epoch: u64,
}

/// Parses a `STATS` reply line; unknown fields are ignored so a server
/// that grows counters keeps working, missing ones are an error.
pub fn parse_stats(reply: &str) -> Result<ServerStats, String> {
    let body = reply.strip_prefix("OK ").ok_or_else(|| format!("not an OK reply: {reply:?}"))?;
    let field = |name: &str| -> Result<u64, String> {
        body.split_ascii_whitespace()
            .find_map(|token| token.strip_prefix(name)?.strip_prefix('='))
            .ok_or_else(|| format!("STATS reply lacks {name}: {reply:?}"))?
            .parse()
            .map_err(|_| format!("STATS field {name} is not a count: {reply:?}"))
    };
    Ok(ServerStats {
        coalesced: field("coalesced")?,
        negative_hits: field("negative_hits")?,
        negative_inserts: field("negative_inserts")?,
        computes: field("computes")?,
        cache_len: field("cache_len")?,
        epoch: field("epoch")?,
    })
}

/// CPU nanoseconds this process has consumed, all threads, user and
/// system (`CLOCK_PROCESS_CPUTIME_ID`). `/proc/self/stat` counts in 10 ms
/// ticks, too coarse for the windows the load pass compares.
pub fn process_cpu_ns() -> u64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which is valid for that write and laid out as the C struct is on
    // the 64-bit Linux targets this benchmark builds for (asserted below).
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    time.sec as u64 * 1_000_000_000 + time.nsec as u64
}

const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// FNV-1a, the reply fingerprint: fixed for all runs and platforms, so
/// the counts pass and the load pass can compare replies by 8 bytes.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(160_000), Some(99.99));
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn parses_the_servers_stats_line() {
        let line = "OK coalesced=3 negative_hits=1 negative_inserts=2 computes=7 ticks=9 \
                    cache_len=5 epoch=4";
        assert_eq!(
            parse_stats(line).unwrap(),
            ServerStats {
                coalesced: 3,
                negative_hits: 1,
                negative_inserts: 2,
                computes: 7,
                cache_len: 5,
                epoch: 4
            }
        );
        // The proto module's own formatter stays the reference.
        let m = skycache_core::ServiceMetrics { computes: 11, ..Default::default() };
        let live = skycache_serve::proto::stats_reply(&m, 6, 8);
        let parsed = parse_stats(&live).unwrap();
        assert_eq!((parsed.computes, parsed.cache_len, parsed.epoch), (11, 6, 8));
        assert!(parse_stats("ERR nope").is_err());
        assert!(parse_stats("OK coalesced=x").is_err());
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.5);
        let before = process_cpu_ns();
        std::hint::black_box((0..200_000u64).sum::<u64>());
        assert!(process_cpu_ns() > before);
        assert!(loadavg_1m() >= 0.0);
    }
}
