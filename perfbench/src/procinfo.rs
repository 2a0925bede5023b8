//! Process-level resource readings (Linux `/proc/self`).

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which is
/// 100 per second on every architecture Linux supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used so far,
/// threads that already exited included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name is parenthesised and may contain spaces; fields
    // after it start at `state` (field 3), so utime/stime (fields 14/15)
    // are the 12th and 13th tokens.
    let after = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("numeric tick count in /proc/self/stat") as f64
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Current resident set size of the process, in MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .expect("VmRSS in /proc/self/status");
    kib as f64 / 1024.0
}

/// Samples [`rss_mb`] every [`RSS_PERIOD`] on a thread of its own until
/// stopped.
pub struct RssSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

/// Interval between resident-set samples.
pub const RSS_PERIOD: std::time::Duration = std::time::Duration::from_millis(20);

impl RssSampler {
    /// Starts sampling.
    pub fn start() -> RssSampler {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let thread = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut samples = vec![rss_mb()];
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    std::thread::sleep(RSS_PERIOD);
                    samples.push(rss_mb());
                }
                samples
            })
        };
        RssSampler { stop, thread }
    }

    /// Stops sampling and returns the median and the largest resident
    /// set seen, in MiB.
    pub fn stop(self) -> (f64, f64) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let samples = self.thread.join().expect("rss sampler panicked");
        let max = samples.iter().copied().fold(0.0, f64::max);
        (crate::stats::median(&samples), max)
    }
}

/// Host-wide CPU time counters from `/proc/stat`: `(steal, total)` in
/// ticks. Steal is time the hypervisor gave this machine's CPUs to
/// someone else, the main source of run-to-run noise on a shared host.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .filter_map(|n| n.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}
