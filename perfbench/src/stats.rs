//! Order statistics, fingerprints, and the seeded draws the input
//! generators use.

use mcs_harness::stream::splitmix64;

/// Nearest-rank quantile of `sorted` (ascending) at `q ∈ [0, 1]`;
/// 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The sample distribution of one latency series, for the provenance
/// lines.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            count: sorted.len(),
            min: sorted.first().copied().unwrap_or(0.0),
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.5),
            p75: quantile(&sorted, 0.75),
            p90: quantile(&sorted, 0.9),
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }

    /// Samples strictly above the p90 value.
    pub fn beyond_p90(samples: &[f64]) -> usize {
        let p90 = Summary::of(samples).p90;
        samples.iter().filter(|&&s| s > p90).count()
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0 (a layer
/// the workload never reaches reads 0, not NaN).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Folds `words` into the running fingerprint `fingerprint`: FNV-1a
/// (the digest the cluster wire format checksums frames with) over the
/// little-endian bytes of both.
pub fn fold(fingerprint: u64, words: &[u64]) -> u64 {
    let bytes: Vec<u8> = std::iter::once(fingerprint)
        .chain(words.iter().copied())
        .flat_map(u64::to_le_bytes)
        .collect();
    mcs_cluster::wire::fnv1a64(&bytes)
}

/// SplitMix64 of a seed and two indices.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(seed, a), b)
}

/// A unit draw in `[0, 1)` keyed on `(seed, a, b)`.
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix(seed, a, b) >> 11) as f64 / (1u64 << 53) as f64
}

/// `count` distinct indices of `0..len`, drawn by a partial
/// Fisher–Yates shuffle keyed on `(seed, key)`.
pub fn sample_indices(seed: u64, key: u64, len: usize, count: usize) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..len).collect();
    let count = count.min(len);
    for i in 0..count {
        let j = i + (mix(seed, key, i as u64) % (len - i) as u64) as usize;
        indices.swap(i, j);
    }
    indices.truncate(count);
    indices
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reads clock `clock` (a `clockid_t`), in ns.
fn clock_ns(clock: i32) -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the kernel only writes it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "CPU clock {clock} is unreadable");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A reading of this process's CPU clock: the CPU time of all its
/// threads. Every thread of the benchmark runs on one CPU, so over a
/// stretch of work it equals the wall time that work took, less the
/// time the host took that CPU away (steal by the hypervisor, other
/// processes): the part of a wall-clock reading that drifts with the
/// host's load rather than with the program.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(u64);

impl CpuInstant {
    pub fn now() -> CpuInstant {
        CpuInstant(clock_ns(CLOCK_PROCESS_CPUTIME_ID))
    }

    /// CPU nanoseconds since `self`.
    pub fn elapsed_ns(self) -> u64 {
        CpuInstant::now().0.saturating_sub(self.0)
    }

    /// CPU nanoseconds from `earlier` to `self`.
    pub fn since(self, earlier: CpuInstant) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

/// What [`probe_ns`] reads on a host of reference speed; end-to-end
/// times are scaled to that host (see `Run::host_factor`).
pub const PROBE_REFERENCE_NS: f64 = PROBE_REFERENCE_MS * 1e6;
const PROBE_REFERENCE_MS: f64 = 2.0;

/// Host-speed probe: CPU time of fixed bench-owned work, on this
/// thread's CPU clock (so no other thread's work is counted). The work,
/// unpredictable branches and loads over a 16 KiB table, slows down with
/// the load of a shared host the way the clearing code does; nothing of
/// the program under test runs in it, so no change to the program moves
/// it.
pub fn probe_ns() -> u64 {
    let start = clock_ns(CLOCK_THREAD_CPUTIME_ID);
    let mut table = [0u32; 4096];
    let mut x = 0x9E37_79B9u32;
    let mut acc = 0u64;
    for i in 0..250_000u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let j = (x & 4095) as usize;
        if table[j] & 1 == 0 {
            table[j] = table[j].wrapping_add(x);
        } else {
            acc += u64::from(table[j] ^ i);
        }
    }
    std::hint::black_box(acc);
    clock_ns(CLOCK_THREAD_CPUTIME_ID) - start
}
