//! Process-level probes: CPU clocks, peak RSS and the machine fingerprint.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn personality(persona: u64) -> i32;
}

/// `personality(2)` flag that turns address-space layout randomisation off.
const ADDR_NO_RANDOMIZE: i32 = 0x0040000;

/// Is address-space layout randomisation off for this process?
#[must_use]
pub fn aslr_off() -> bool {
    // SAFETY: 0xffffffff only queries the persona; the call has no other
    // effect and takes no pointers.
    let cur = unsafe { personality(0xffff_ffff) };
    cur != -1 && cur & ADDR_NO_RANDOMIZE != 0
}

/// Re-execute this program with address-space layout randomisation off.
///
/// With it on, the simulator and the postmortem analyses ran either ~35 %
/// faster or slower from one process to the next, whole runs long: the
/// layout a process happens to get decides it. Returns (and the run goes
/// on randomised) only if the persona cannot be changed or `exec` fails.
pub fn reexec_without_aslr() {
    use std::os::unix::process::CommandExt;
    if aslr_off() {
        return;
    }
    // SAFETY: querying and then setting the persona flags takes no
    // pointers; it only changes how the next `exec` lays out memory.
    let ok = unsafe {
        let cur = personality(0xffff_ffff);
        cur != -1 && personality((cur | ADDR_NO_RANDOMIZE) as u32 as u64) != -1
    };
    if !ok {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = Command::new(exe).args(std::env::args_os().skip(1)).exec();
    eprintln!("perfbench: re-exec without ASLR failed ({err}); running randomised");
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on the
    // 64-bit Linux targets this benchmark builds for), and the clock ids
    // are the fixed Linux constants, so the call writes only into `ts`.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by every thread of this process, in seconds.
#[must_use]
pub fn process_cpu_s() -> f64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID) as f64 * 1e-9
}

/// CPU time consumed so far by the calling thread, in nanoseconds.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (VmHWM), in MB (10^6 bytes).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status.success().then_some(())?;
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_string)
}

/// FNV-1a over every file under `crates/` (sorted paths), identifying the
/// code measured when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Machine and code fingerprint, as `(key, value)` pairs.
#[must_use]
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".into(), |(_, v)| v.trim().to_string());
    let l3 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map_or("unknown".into(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let commit = if std::path::Path::new(".git").exists() {
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    vec![
        ("cpu_model", model),
        ("nproc", nproc.to_string()),
        ("l3", l3),
        (
            "rustc",
            first_line("rustc", &["-V"]).unwrap_or("unknown".into()),
        ),
        ("commit", commit.unwrap_or("none".into())),
        ("aslr", if aslr_off() { "off" } else { "on" }.into()),
        ("source_digest", source_digest()),
    ]
}
