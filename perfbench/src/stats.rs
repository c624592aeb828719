//! Small numeric helpers: nearest-rank quantiles, an exact digest, the
//! process's peak resident memory, and the host clocks.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0.0..=1.0`) of `values` by nearest rank; 0 when
/// empty. Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `num / den`, or 0 when `den` is 0 (keeps reported ratios finite).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over a byte stream: an exact fingerprint of simulated results,
/// so two repetitions agree only if every folded value agrees.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one integer into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The fingerprint so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`), or
/// `None` where that clock is unavailable.
///
/// Unlike the wall clock it leaves out the time the thread waited to
/// run, on this kernel's run queue or on the hypervisor's (steal time).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Option<Duration> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the layout of the
    // C struct on 64-bit Linux, and the C library the standard library
    // links provides `clock_gettime`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}

/// On-CPU time of the calling thread; unavailable on this platform.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Option<Duration> {
    None
}

/// Host time of one stretch of a run, on both host clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTime {
    /// Wall-clock time.
    pub wall: Duration,
    /// The running thread's on-CPU time (the wall time where the thread
    /// CPU clock is unavailable).
    pub cpu: Duration,
}

/// A point on both host clocks.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu: Option<Duration>,
}

impl Mark {
    /// The current point.
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: thread_cpu(),
        }
    }

    /// Host time from `earlier` to this point.
    pub fn since(&self, earlier: &Mark) -> HostTime {
        let wall = self.wall.saturating_duration_since(earlier.wall);
        let cpu = match (earlier.cpu, self.cpu) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => wall,
        };
        HostTime { wall, cpu }
    }

    /// Host time from this point to now.
    pub fn elapsed(&self) -> HostTime {
        Mark::now().since(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn digest_separates_order() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn thread_cpu_time_advances_with_work_and_not_with_sleep() {
        let spin = Mark::now();
        let mut x = 0u64;
        while spin.elapsed().wall < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = spin.elapsed();
        assert!(busy.cpu > Duration::from_millis(5), "{busy:?}");
        let nap = Mark::now();
        std::thread::sleep(Duration::from_millis(50));
        let idle = nap.elapsed();
        if thread_cpu().is_some() {
            assert!(idle.cpu < Duration::from_millis(10), "{idle:?}");
        }
    }
}
