//! What the benchmark reads about its own process and machine, all from
//! `/proc` (the benchmark only claims to run on Linux).

use std::path::{Path, PathBuf};

/// CPU seconds (user + system, every thread, exited ones included)
/// this process has used, at the clock's nanosecond resolution.
///
/// `/proc/self/stat` has the same number in 10 ms ticks, which is too
/// coarse for a one-second round; `std` has no call for it.
pub fn cpu_seconds() -> f64 {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing; `ts` is a live, exclusively borrowed
    // value laid out as Linux's `timespec` (two C longs), and the clock
    // id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Milliseconds a fixed, single-threaded, allocation- and cache-heavy
/// kernel of the benchmark's own takes right now: 60 000 inserts of
/// small vectors into a `BTreeMap`, then 120 000 range look-ups.
///
/// It calls nothing of the program, so its time moves only with the
/// machine. On this VM a register-only loop never varies, while this
/// kernel — like the engine's own map- and allocation-heavy paths —
/// drifts by up to 40 % over minutes with whatever shares the host's
/// caches.
pub fn calibration_ms() -> f64 {
    let started = std::time::Instant::now();
    let mut x = 88_172_645_463_325_252_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map = std::collections::BTreeMap::new();
    for i in 0..60_000_u64 {
        map.insert(next(), vec![i; 3]);
    }
    let mut acc = 0;
    for _ in 0..120_000 {
        if let Some((k, v)) = map.range(next()..).next() {
            acc ^= k ^ v[0];
        }
    }
    std::hint::black_box(acc);
    drop(map);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where run artefacts go (trace files, run records, store
/// directories): `$HRDM_BENCH_OUT`, or `target/` beside the manifest
/// this binary was built from.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var_os("HRDM_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// A directory that did not exist before and is removed when dropped.
pub struct FreshDir(PathBuf);

impl FreshDir {
    /// Create `<out>/tmp/<pid>-<tag>` empty.
    pub fn create(tag: &str) -> FreshDir {
        let path = out_dir()
            .join("tmp")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a fresh store directory");
        FreshDir(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for FreshDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
