//! The run's environment: its scratch directory, the fingerprint printed
//! with every run, and peak memory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A fresh directory under `.perfbench_scratch/` in the working directory
/// (the checkout root), removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(tag: &str) -> io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".perfbench_scratch")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = fs::remove_dir(parent);
        }
    }
}

/// The git commit of the working directory, when it is a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let sha = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(reference) => read(reference).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        }),
    });
    sha.unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map(|(_, kind)| kind)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// CPU time this process has used so far, all threads (exited ones too),
/// user + system, in seconds: `utime + stime` of `/proc/self/stat`.
pub fn process_cpu_s() -> io::Result<f64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    // The command name may hold spaces; the fields after it do not.
    let after_comm = &stat[stat.rfind(')').map_or(0, |i| i + 1)..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after
    // the command name (state is field 3).
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / CLOCK_TICKS_PER_S),
        _ => Err(io::Error::other("unexpected /proc/self/stat layout")),
    }
}

/// The kernel's `USER_HZ`, the unit of `/proc/*/stat` CPU times: 100 on
/// every Linux architecture the benchmark targets.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time the calling thread has used so far, in seconds, from
/// `/proc/thread-self/schedstat` (nanoseconds on the CPU); 0 if unreadable.
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// Returns the allocator's free memory to the operating system (glibc's
/// `malloc_trim`); a no-op on other C libraries.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only walks the allocator's own free lists.
        unsafe {
            malloc_trim(0);
        }
    }
}
