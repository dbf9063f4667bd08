//! `/proc` readers: CPU time and peak resident memory of a process,
//! observed from outside (the benchmark never instruments the daemons).

use std::sync::OnceLock;

/// CPU time of one process (all its threads), seconds.
///
/// `user` and `sys` come from `/proc/<pid>/stat`, which the kernel fills
/// by sampling at the clock tick: whoever runs when the tick fires is
/// charged the whole 10 ms. For a daemon that wakes for microseconds at
/// a time that is a noisy estimate (±8 % over a ten-second window at
/// 15 % utilisation). `exec` is the scheduler's own nanosecond-exact
/// run time (`se.sum_exec_runtime` in `/proc/<pid>/task/*/sched`), used
/// wherever the kernel exposes it; the tick counters then only supply
/// the user/system split.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    /// Seconds in user mode (tick-sampled).
    pub user: f64,
    /// Seconds in kernel mode (tick-sampled).
    pub sys: f64,
    /// Exact on-CPU seconds, when `/proc/<pid>/task/*/sched` is readable.
    pub exec: Option<f64>,
}

impl CpuTime {
    /// On-CPU seconds: exact where available, else `user + sys`.
    pub fn total(self) -> f64 {
        self.exec.unwrap_or(self.user + self.sys)
    }

    /// Component-wise `self - earlier`.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
            exec: self.exec.zip(earlier.exec).map(|(now, then)| now - then),
        }
    }

    /// Component-wise sum (the two daemons of the pair).
    pub fn plus(self, other: CpuTime) -> CpuTime {
        CpuTime {
            user: self.user + other.user,
            sys: self.sys + other.sys,
            exec: self.exec.zip(other.exec).map(|(a, b)| a + b),
        }
    }
}

/// Parses `se.sum_exec_runtime` (milliseconds) out of a task's `sched`
/// file; returns seconds.
pub fn parse_sched_exec_s(sched: &str) -> Option<f64> {
    let line = sched
        .lines()
        .find(|l| l.starts_with("se.sum_exec_runtime"))?;
    let ms: f64 = line.rsplit(':').next()?.trim().parse().ok()?;
    Some(ms / 1e3)
}

/// Exact on-CPU seconds of the calling thread so far.
pub fn thread_exec_s() -> Option<f64> {
    parse_sched_exec_s(&std::fs::read_to_string("/proc/thread-self/sched").ok()?)
}

/// Exact on-CPU seconds of the live threads of process `pid`. A thread
/// that has exited no longer counts, so this suits the single-threaded
/// daemons; in-process workers report their own [`thread_exec_s`].
fn process_exec_s(pid: u32) -> Option<f64> {
    let mut total = 0.0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let sched = std::fs::read_to_string(task.ok()?.path().join("sched")).ok()?;
        total += parse_sched_exec_s(&sched)?;
    }
    Some(total)
}

/// Kernel clock ticks per second for the `utime`/`stime` fields.
/// `USER_HZ` is 100 on every Linux ABI; `getconf CLK_TCK` is asked once
/// so a system that differs is measured correctly rather than silently
/// off by a factor.
pub fn clock_ticks_per_sec() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// Parses the contents of `/proc/<pid>/stat` into CPU time. The `comm`
/// field may contain spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat_cpu(stat: &str, ticks_per_sec: f64) -> Option<CpuTime> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After `comm`: state is field 3, so utime (14) and stime (15) are
    // the 12th and 13th whitespace-separated tokens.
    let mut fields = after_comm.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user: utime / ticks_per_sec,
        sys: stime / ticks_per_sec,
        exec: None,
    })
}

/// Parses `VmHWM` (peak resident set, kB) out of `/proc/<pid>/status`
/// and returns megabytes (10⁶ bytes would hide the kernel's unit; these
/// are MiB of 1024 kB, reported as "MB" like `ps` and `top` do).
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time consumed so far by process `pid`.
pub fn cpu_of(pid: u32) -> Result<CpuTime, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let ticks = parse_stat_cpu(&text, clock_ticks_per_sec())
        .ok_or_else(|| format!("{path}: unparseable"))?;
    Ok(CpuTime {
        exec: process_exec_s(pid),
        ..ticks
    })
}

/// CPU time consumed so far by this process.
pub fn cpu_of_self() -> Result<CpuTime, String> {
    cpu_of(std::process::id())
}

/// Peak resident set of process `pid`, MB.
pub fn peak_rss_mb_of(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_status_hwm_mb(&text).ok_or_else(|| format!("{path}: no VmHWM"))
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb_of_self() -> Result<f64, String> {
    peak_rss_mb_of(std::process::id())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(canon) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    parse_mount_fs(&mounts, &canon.to_string_lossy()).unwrap_or_else(|| "unknown".to_string())
}

/// The `/proc/mounts` lookup behind [`filesystem_of`].
pub fn parse_mount_fs(mounts: &str, path: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            let covers = path == mount
                || mount == "/"
                || path
                    .strip_prefix(mount)
                    .is_some_and(|rest| rest.starts_with('/'));
            covers.then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        let stat = "4242 (apna (border) x) S 1 4242 4242 0 -1 4194304 311 0 0 0 \
                    250 50 0 0 20 0 3 0 123456 1000000 200 18446744073709551615 0 0 0";
        let cpu = parse_stat_cpu(stat, 100.0).unwrap();
        assert_eq!((cpu.user, cpu.sys, cpu.exec), (2.5, 0.5, None));
        assert_eq!(cpu.total(), 3.0);
        let later = CpuTime {
            user: 3.0,
            sys: 0.75,
            exec: Some(4.0),
        };
        assert_eq!((later.since(cpu).user, later.since(cpu).sys), (0.5, 0.25));
        // Exact time wins when both ends have it; otherwise the ticks do.
        assert_eq!(later.since(cpu).total(), 0.75);
        let earlier = CpuTime {
            exec: Some(3.875),
            ..cpu
        };
        assert_eq!(later.since(earlier).total(), 0.125);
        assert_eq!(later.plus(earlier).exec, Some(7.875));
        assert_eq!(later.plus(cpu).exec, None);
        assert!(parse_stat_cpu("1 (x) S 1 2", 100.0).is_none());
        assert!(parse_stat_cpu("garbage", 100.0).is_none());
    }

    #[test]
    fn sched_exec_runtime() {
        let sched = "apna-border (77, #threads: 1)\n-----\nse.exec_start      :   3515372.519283\n\
                     se.sum_exec_runtime                          :           266.459906\nnr_switches : 535\n";
        let secs = parse_sched_exec_s(sched).unwrap();
        assert!((secs - 0.266_459_906).abs() < 1e-12, "{secs}");
        assert_eq!(parse_sched_exec_s("nr_switches : 535\n"), None);
        assert_eq!(parse_sched_exec_s("se.sum_exec_runtime : soon\n"), None);
    }

    #[test]
    fn status_hwm() {
        let status =
            "Name:\tapna-border\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(5.0));
        assert_eq!(parse_status_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_of_self().unwrap().total() >= 0.0);
        assert!(peak_rss_mb_of_self().unwrap() > 0.0);
        assert!(clock_ticks_per_sec() > 0.0);
    }

    #[test]
    fn mount_lookup_prefers_longest_prefix() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(parse_mount_fs(mounts, "/tmp/x/y").as_deref(), Some("tmpfs"));
        assert_eq!(parse_mount_fs(mounts, "/tmpfoo/x").as_deref(), Some("ext4"));
        assert_eq!(
            parse_mount_fs(mounts, "/root/repo").as_deref(),
            Some("ext4")
        );
        assert_eq!(parse_mount_fs("", "/x"), None);
    }
}
