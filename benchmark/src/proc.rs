//! Spawning the measured program and reading what the kernel charged it.

use std::ffi::{c_int, c_long};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux (`man 2 getrusage`): two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Keeps the calling thread — and every process it spawns meanwhile —
/// on one CPU until dropped.
///
/// Each vCPU of the reference box has its own speed state (see
/// `calib`), so the calibration kernel only speaks for the measured
/// program if both run on the same one.  All measured invocations are
/// single-threaded, so one CPU costs them nothing.
pub struct Pinned {
    restore: CpuSet,
}

impl Pinned {
    /// Pins to the lowest CPU the thread may use; `None` (with nothing
    /// changed) where the kernel refuses.
    pub fn new() -> Option<Pinned> {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `allowed` is a valid, writable cpu_set_t of `size`
        // bytes; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return None;
        }
        let word = allowed.iter().position(|&w| w != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << allowed[word].trailing_zeros();
        // SAFETY: `one` is a valid cpu_set_t of `size` bytes naming a CPU
        // the thread was already allowed on.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(Pinned { restore: allowed })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `restore` is the mask sched_getaffinity returned.
        // A failure leaves the thread pinned, which is harmless.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.restore) };
    }
}

/// One finished child process.
pub struct Exit {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Exited normally with status 0.
    pub ok: bool,
    pub stdout: String,
}

/// Runs `cmd` to completion, capturing stdout (stderr passes through).
pub fn run(cmd: &mut Command) -> std::io::Result<Exit> {
    let started = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)?;
    let mut status: c_int = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `status` and `usage` are valid for writes of their types
    // (`Rusage` mirrors the kernel's layout above), and the pid is a
    // child of this process that nothing else waits for — `child.wait()`
    // is never called, so the pid cannot have been reaped and reused.
    let reaped = unsafe { wait4(child.id() as c_int, &mut status, 0, usage.as_mut_ptr()) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // SAFETY: wait4 succeeded, so it filled the whole struct (and the
    // memory was zero-initialised to begin with).
    let usage = unsafe { usage.assume_init() };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Exit {
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        // WIFEXITED && WEXITSTATUS == 0: a normal exit has a zero low
        // byte-and-a-half (signal bits), and status 0 zeroes the rest.
        ok: status == 0,
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_to_one_cpu_and_restores() {
        let allowed = || {
            let mut set: CpuSet = [0; 16];
            // SAFETY: as in `Pinned::new`.
            assert_eq!(unsafe { sched_getaffinity(0, 128, &mut set) }, 0);
            set.iter().map(|w| w.count_ones()).sum::<u32>()
        };
        let before = allowed();
        {
            let _pin = Pinned::new().expect("pinning to an allowed CPU works");
            assert_eq!(allowed(), 1);
        }
        assert_eq!(allowed(), before);
    }

    #[test]
    fn reports_exit_status_output_and_usage() {
        let ok = run(Command::new("sh").args(["-c", "echo hi"])).unwrap();
        assert!(ok.ok);
        assert_eq!(ok.stdout, "hi\n");
        assert!(ok.wall_s > 0.0 && ok.peak_rss_mb > 0.1);
        let bad = run(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert!(!bad.ok);
    }
}
