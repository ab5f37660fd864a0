//! The benchmark process itself: CPU affinity, resident memory, and the
//! source stamp.
//!
//! Every workload runs confined to one CPU. The DES runs each simulated
//! process on its own OS thread and hands duty to exactly one of them per
//! event, so an unconfined run times the kernel's cross-core wake-up, not
//! the program (see README: 11.8–17.6 s unpinned against 3.8–3.9 s pinned
//! for the same 32-node Barnes-Hut run).

use std::path::Path;
use std::process::Command;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16; // 1024 CPUs, the kernel's default cpu_set_t

/// A CPU affinity mask.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CpuSet([u64; MASK_WORDS]);

impl CpuSet {
    /// The CPUs the calling thread may run on.
    pub fn current() -> Result<CpuSet, String> {
        let mut set = CpuSet([0; MASK_WORDS]);
        // SAFETY: the mask pointer is valid for `size_of_val(&set.0)` bytes,
        // which is the size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
        }
        Ok(set)
    }

    /// Confine the calling thread (and every thread it spawns afterwards)
    /// to this set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: as in `current`; the kernel only reads the mask.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
        }
        Ok(())
    }

    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; MASK_WORDS]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The highest-numbered CPU in the set (CPU 0 takes most interrupts).
    pub fn last(&self) -> Option<usize> {
        (0..MASK_WORDS * 64).rev().find(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
    }
}

/// The affinity a workload process runs under.
pub struct Pinning {
    /// What the process was allowed before pinning.
    pub allowed: CpuSet,
    /// The one CPU it is confined to.
    pub cpu: usize,
}

/// Confine this process to one of its allowed CPUs. Must run before any
/// thread is spawned: threads inherit the mask at creation.
pub fn pin() -> Result<Pinning, String> {
    let allowed = CpuSet::current()?;
    let cpu = allowed.last().ok_or("empty affinity mask")?;
    let one = CpuSet::only(cpu);
    one.apply()?;
    if CpuSet::current()? != one {
        return Err("affinity mask did not take".into());
    }
    Ok(Pinning { allowed, cpu })
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process now, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// The source the numbers were measured on: the git tree hash of `HEAD`
/// plus whether the working tree differs from it. (A commit hash would be
/// stale by construction — artifacts are written before the commit that
/// carries them exists.) `None` outside a git checkout.
pub fn tree_stamp(repo: &Path) -> Option<String> {
    if !repo.join(".git").exists() {
        return None;
    }
    let git = |args: &[&str]| {
        let out = Command::new("git").arg("-C").arg(repo).args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let tree = git(&["rev-parse", "HEAD^{tree}"])?;
    let dirty = !git(&["status", "--porcelain"])?.is_empty();
    Some(format!("{tree}{}", if dirty { "+dirty" } else { "" }))
}
