//! The benchmark's clock, and the provenance of a result: the host's
//! CPUs and caches, the compiler, the commit, and the process's peak
//! resident memory.

use std::fs;
use std::path::Path;

/// CPUs this process may run on (the count `nproc` prints), from the
/// affinity list in `/proc/self/status`; 0 when unreadable.
pub fn nproc() -> usize {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0 };
    status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:")).map_or(0, |list| {
        list.trim()
            .split(',')
            .filter_map(|range| {
                let mut ends = range.split('-').map(|n| n.trim().parse::<usize>().ok());
                let lo = ends.next()??;
                let hi = ends.next().map_or(Some(lo), |hi| hi)?;
                Some(hi + 1 - lo)
            })
            .sum()
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks below assume 64-bit Linux's `struct timespec` and clock ids");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime` from the C library the standard library
    /// already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// The CPU clock of thread `tid` of this process, as Linux's
/// `MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)` builds it: the id
/// `CLOCK_THREAD_CPUTIME_ID` stands for, but for any thread.
fn thread_clock(tid: i32) -> i32 {
    (!tid << 3) | 6
}

/// CPU seconds thread `tid` of this process has run so far, `None` once
/// the thread has exited.
fn thread_cpu_secs(tid: i32) -> Option<f64> {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call (the layout above is the 64-bit Linux one, enforced by the
    // `compile_error!` guard), and `clock_gettime` writes only to it.
    let rc = unsafe { clock_gettime(thread_clock(tid), &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds of every thread of this process at one instant.
struct ThreadTimes(Vec<(i32, f64)>);

impl ThreadTimes {
    fn now() -> ThreadTimes {
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return ThreadTimes(Vec::new()) };
        ThreadTimes(
            tasks
                .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<i32>().ok())
                .filter_map(|tid| Some((tid, thread_cpu_secs(tid)?)))
                .collect(),
        )
    }

    /// CPU seconds thread `tid` had run at this instant; 0 for a thread
    /// that did not exist yet.
    fn of(&self, tid: i32) -> f64 {
        self.0.iter().find(|&&(t, _)| t == tid).map_or(0.0, |&(_, secs)| secs)
    }
}

/// Times a region by the CPU time of the busiest thread of the process:
/// the largest CPU time any one thread ran from [`Stopwatch::start`] to
/// [`Stopwatch::secs`].
///
/// This is the benchmark's clock for every end-to-end time. For a region
/// on one thread it is the wall time the region takes when nothing else
/// holds the CPU. On two threads it still charges a change that
/// serialises the work (the busiest thread does more), which the
/// process's summed CPU time would credit; it does not see a thread
/// waiting for another. Unlike the wall clock it leaves out the time the
/// hypervisor of a shared host runs other guests on this machine's
/// virtual CPUs (steal time) and the time other processes hold them: on
/// a 2-vCPU virtual machine, in a run from which the host stole 28 s of
/// CPU time a `search-400x32` pass took 6.4–8.3 s by the wall clock
/// against 4.3–4.5 s in a run with little steal, while CPU time per pass
/// moved by a few per cent. Threads idle in the pool block and run no
/// CPU time.
pub struct Stopwatch(ThreadTimes);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(ThreadTimes::now())
    }

    /// The busiest thread's CPU seconds since [`Stopwatch::start`]. A
    /// thread started since then counts all its CPU time; one that has
    /// exited counts none (the pool's workers live as long as the
    /// process).
    pub fn secs(&self) -> f64 {
        ThreadTimes::now().0.iter().map(|&(tid, now)| now - self.0.of(tid)).fold(0.0, f64::max)
    }
}

/// Seconds the hypervisor ran other guests on this machine's CPUs so
/// far, summed over the CPUs (the `steal` column of `/proc/stat`, in
/// clock ticks of 1/100 s); 0 when unreadable.
pub fn steal_secs() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/stat") else { return 0.0 };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a sysfs cache size such as `2048K` or `32M` into bytes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, scale) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// Data/unified cache sizes of CPU 0 by level, from
/// `/sys/devices/system/cpu/cpu0/cache`: `(level, bytes)`.
fn caches() -> Vec<(u32, u64)> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = fs::read_dir(dir) else { return Vec::new() };
    let mut out: Vec<(u32, u64)> = entries
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .filter_map(|e| {
            let read = |f: &str| fs::read_to_string(e.path().join(f)).ok();
            if read("type")?.trim() == "Instruction" {
                return None;
            }
            Some((read("level")?.trim().parse().ok()?, parse_size(&read("size")?)?))
        })
        .collect();
    out.sort_unstable();
    out
}

/// L2 size in bytes, 0 when unknown.
pub fn l2_bytes() -> u64 {
    caches().iter().find(|(level, _)| *level == 2).map_or(0, |&(_, b)| b)
}

/// Last-level cache size in bytes, 0 when unknown.
pub fn llc_bytes() -> u64 {
    caches().last().map_or(0, |&(_, b)| b)
}

/// The commit of the checkout the benchmark was built in, read from its
/// `.git` directory without searching parent directories; `unknown` in
/// a checkout that is not a git repository.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else { return "unknown".to_string() };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string()),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// This thread's id, from the `/proc/thread-self` link
    /// (`<pid>/task/<tid>`).
    fn own_tid() -> i32 {
        let link = fs::read_link("/proc/thread-self").expect("Linux has /proc/thread-self");
        let tid = link.file_name().and_then(|n| n.to_str()).expect("the link ends in the tid");
        tid.parse().expect("a tid is a number")
    }

    #[test]
    fn the_stopwatch_reads_at_least_the_cpu_time_of_the_timing_thread() {
        let tid = own_tid();
        let sw = Stopwatch::start();
        let start = thread_cpu_secs(tid).expect("this thread is alive");
        let mut x = 1u64;
        while thread_cpu_secs(tid).expect("this thread is alive") - start < 0.05 {
            for _ in 0..10_000 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
            }
        }
        // This thread ran 0.05 s since the stopwatch started; other test
        // threads may have run more, never less than the busiest.
        let secs = sw.secs();
        assert!(secs >= 0.05, "{secs}");
    }

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
