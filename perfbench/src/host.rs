//! What the host was doing while the benchmark ran: CPU clocks, steal
//! time, load average, peak memory and the data directory's filesystem.
//! A noisy run must be explainable from its own record.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) and
    // the clock ids are the POSIX constants, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User+system CPU time of the whole process (server and generator).
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User+system CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Hand freed heap memory back to the kernel, so a dropped deployment
/// does not inflate the peak RSS of the next one.
pub fn release_free_memory() {
    // SAFETY: glibc's malloc_trim only walks the allocator's own free
    // lists; it takes no pointers from the caller.
    unsafe {
        malloc_trim(0);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate `/proc/stat` CPU counters: (total ticks, steal ticks).
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (total, fields.get(7).copied().unwrap_or(0))
}

fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The filesystem type `path` lives on, from the longest matching mount
/// point in `/proc/mounts`.
pub fn filesystem(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// `/proc/stat` sampled every [`STEAL_PERIOD`] while a phase runs: how
/// much CPU the hypervisor took from this guest, and when.
pub struct StealLog(Vec<(Instant, (u64, u64))>);

pub const STEAL_PERIOD: Duration = Duration::from_millis(50);

impl StealLog {
    /// Steal as a % of all CPU ticks between two instants, taken from the
    /// samples that bracket them.
    pub fn steal_pct(&self, from: Instant, to: Instant) -> f64 {
        let s = &self.0;
        if s.len() < 2 {
            return 0.0;
        }
        let a = s.iter().rposition(|(t, _)| *t <= from).unwrap_or(0);
        let b = s
            .iter()
            .position(|(t, _)| *t >= to)
            .unwrap_or(s.len() - 1)
            .max(a + 1);
        let b = b.min(s.len() - 1);
        let (total, steal) = (
            s[b].1 .0.saturating_sub(s[a].1 .0),
            s[b].1 .1.saturating_sub(s[a].1 .1),
        );
        if total == 0 {
            0.0
        } else {
            100.0 * steal as f64 / total as f64
        }
    }

    /// Steal % over the whole log.
    pub fn overall_pct(&self) -> f64 {
        match (self.0.first(), self.0.last()) {
            (Some(a), Some(b)) => self.steal_pct(a.0, b.0),
            _ => 0.0,
        }
    }
}

/// Run `f` while a sampler thread logs `/proc/stat`.
pub fn with_steal_log<R: Send>(f: impl FnOnce() -> R + Send) -> (R, StealLog) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut log = vec![(Instant::now(), cpu_ticks())];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(STEAL_PERIOD);
                log.push((Instant::now(), cpu_ticks()));
            }
            log
        });
        let r = f();
        stop.store(true, Ordering::Relaxed);
        let mut log = sampler.join().expect("steal sampler panicked");
        log.push((Instant::now(), cpu_ticks()));
        (r, StealLog(log))
    })
}

/// Host counters sampled at the start of a run.
pub struct HostWatch {
    ticks: (u64, u64),
    load_start: f64,
}

impl HostWatch {
    pub fn start() -> HostWatch {
        HostWatch {
            ticks: cpu_ticks(),
            load_start: loadavg1(),
        }
    }

    /// `(steal % of all CPU ticks, loadavg at start, loadavg now)`.
    pub fn finish(&self) -> (f64, f64, f64) {
        let (total, steal) = cpu_ticks();
        let dt = total.saturating_sub(self.ticks.0).max(1);
        let steal_pct = 100.0 * steal.saturating_sub(self.ticks.1) as f64 / dt as f64;
        (steal_pct, self.load_start, loadavg1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
    }

    #[test]
    fn steal_log_brackets_the_asked_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // steal ticks: 0 -> 0 -> 10 -> 10 over 100 total ticks per step
        let log = StealLog(vec![
            (at(0), (0, 0)),
            (at(50), (100, 0)),
            (at(100), (200, 10)),
            (at(150), (300, 10)),
        ]);
        assert_eq!(log.steal_pct(at(0), at(50)), 0.0);
        assert_eq!(log.steal_pct(at(60), at(90)), 10.0);
        assert_eq!(log.steal_pct(at(0), at(150)), 100.0 * 10.0 / 300.0);
        assert_eq!(log.overall_pct(), 100.0 * 10.0 / 300.0);
        let ((), real) = with_steal_log(|| std::thread::sleep(Duration::from_millis(120)));
        assert!(real.0.len() >= 3);
        assert!(real.overall_pct() >= 0.0);
    }

    #[test]
    fn host_probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        assert_ne!(filesystem(Path::new(".")), "");
        let (steal, l0, l1) = HostWatch::start().finish();
        assert!(steal >= 0.0 && l0 >= 0.0 && l1 >= 0.0);
    }
}
