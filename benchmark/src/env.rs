//! The machine the numbers were taken on, and the scratch directory the
//! cache directories live in.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Process CPU time (user + system, all threads).
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and nothing else; `Timespec` has that layout on 64-bit Linux
    // (two 64-bit fields), and `ts` lives across the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

pub fn git_commit() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}

/// The run's scratch directory; removed on drop.
pub struct Scratch {
    root: PathBuf,
    pub fs_type: String,
}

const SCRATCH_PREFIX: &str = "edgecache-benchmark-";

impl Scratch {
    /// Creates the scratch directory on tmpfs. Write-back to a shared block
    /// device moved identical runs by 17 %, tmpfs by 3 %, so anything but
    /// tmpfs is a fallback announced loudly in the output.
    pub fn create(fallback: &Path) -> std::io::Result<Self> {
        let name = format!("{SCRATCH_PREFIX}{}", std::process::id());
        let shm = Path::new("/dev/shm");
        sweep_stale(shm);
        let root = shm.join(&name);
        let root = match fs::create_dir_all(&root) {
            Ok(()) => root,
            Err(_) => {
                sweep_stale(fallback);
                let root = fallback.join(&name);
                fs::create_dir_all(&root)?;
                root
            }
        };
        let fs_type = fs_type(&root);
        Ok(Self { root, fs_type })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Removes scratch directories left by runs of this benchmark that were
/// killed before they could clean up (their process id no longer exists).
fn sweep_stale(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix(SCRATCH_PREFIX)) else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}
