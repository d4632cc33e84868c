//! `perfbench-launch PLAN SECONDS MIN_ROUNDS OUT_DIR` — runs commands as
//! child processes and measures each one end to end.
//!
//! `PLAN` holds one command per line, its arguments separated by tabs. The
//! launcher runs the lines round-robin (one round = every line once), one
//! process at a time: a closed loop with a single client. It starts no new
//! round once `SECONDS` have passed, but always completes `MIN_ROUNDS`.
//!
//! For every invocation it prints one line to stdout:
//! `line wall_ns maxrss_kb exit_code same_output reference_ns`. Wall time
//! runs from spawn to reap; the peak resident set comes from the child's
//! own `rusage`. The first stdout of each line is saved as
//! `OUT_DIR/out-<line>.txt`; `same_output` is 1 when a repeat printed
//! exactly the same bytes.
//!
//! `reference_ns` says how fast the CPU ran around the invocation: the mean
//! time of a fixed loop, run once right before the child starts and once
//! right after it is reaped. On a shared virtual machine each CPU speeds up
//! and slows down by more than half as neighbours come and go on its core,
//! so the launcher pins itself, and with it every child, to the CPU it
//! starts on; the loop then reads the same CPU the child ran on.
//!
//! The child writes its stdout to a file, not a pipe: a pipe wakes the
//! reader on every line a command prints, and on a shared virtual machine
//! those thousands of cross-process wake-ups made run-to-run times of the
//! line-per-window `track` command swing by a third.
//!
//! The launcher exists so that the measured child is forked from a small
//! process: Linux carries a parent's resident high-water mark across
//! `execve`, so a child spawned from `run.py` (Python) would report at least
//! the interpreter's footprint as its peak RSS.

use std::fs::File;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench-launch reads `struct rusage` as laid out on 64-bit Linux");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage([i64; 18]);

impl Rusage {
    fn maxrss_kib(&self) -> i64 {
        self.0[4]
    }
}

/// glibc's `cpu_set_t`: a bit mask of 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins this process, and so every child it starts, to the CPU it runs on.
fn pin_to_current_cpu() -> std::io::Result<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    let mut mask = CpuSet([0; 16]);
    *mask
        .0
        .get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other(format!("CPU {cpu} beyond the mask")))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live `cpu_set_t` of the size passed; pid 0 is
    // this process.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// A fixed piece of work that uses nothing of the measured program:
/// floating-point sines and integer hashing over random reads and writes of
/// a 256 KiB buffer. Returns its wall time.
fn reference_loop(buf: &mut [f64; 1 << 15]) -> Duration {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for i in 0..200_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = (x as usize) & (buf.len() - 1);
        buf[k] = (buf[k] + f64::from(i) * 1e-3).sin();
        acc += buf[k.wrapping_mul(7) & (buf.len() - 1)];
    }
    std::hint::black_box(acc);
    t0.elapsed()
}

const EINTR: i32 = 4;

/// Reaps `pid`, returning its raw wait status and resource usage.
fn reap(pid: u32) -> std::io::Result<(i32, Rusage)> {
    let pid = i32::try_from(pid).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`int` and 64-bit Linux `struct rusage`); the
        // pid is our own unreaped child, reaped exactly once here.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

fn main() {
    if let Err(message) = run() {
        eprintln!("perfbench-launch: {message}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [plan, seconds, min_rounds, out_dir] = args.as_slice() else {
        return Err("usage: perfbench-launch PLAN SECONDS MIN_ROUNDS OUT_DIR".into());
    };
    let text = std::fs::read_to_string(plan).map_err(|e| format!("cannot read {plan}: {e}"))?;
    let commands: Vec<Vec<&str>> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split('\t').collect())
        .collect();
    if commands.is_empty() {
        return Err(format!("{plan} holds no command"));
    }
    let seconds: f64 = seconds.parse().map_err(|_| "SECONDS wants a number")?;
    let min_rounds: usize = min_rounds
        .parse()
        .map_err(|_| "MIN_ROUNDS wants an integer")?;
    let budget = Duration::from_secs_f64(seconds);
    let mut first: Vec<Option<Vec<u8>>> = vec![None; commands.len()];
    let capture = format!("{out_dir}/stdout.txt");
    if let Err(e) = pin_to_current_cpu() {
        eprintln!("perfbench-launch: not pinned to a CPU ({e}); reference times are looser");
    }
    let mut buf = Box::new([0.0f64; 1 << 15]);
    reference_loop(&mut buf);

    let started = Instant::now();
    let mut round = 0;
    while round < min_rounds || started.elapsed() < budget {
        for (line, argv) in commands.iter().enumerate() {
            let stdout = File::create(&capture).map_err(|e| format!("creating {capture}: {e}"))?;
            let before = reference_loop(&mut buf);
            let t0 = Instant::now();
            let child = Command::new(argv[0])
                .args(&argv[1..])
                .stdin(Stdio::null())
                .stdout(stdout)
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", argv[0]))?;
            let (status, usage) = reap(child.id()).map_err(|e| format!("wait4: {e}"))?;
            let wall = t0.elapsed();
            let reference = (before + reference_loop(&mut buf)) / 2;
            let out = std::fs::read(&capture).map_err(|e| format!("reading {capture}: {e}"))?;
            let code = if status & 0x7f == 0 {
                (status >> 8) & 0xff
            } else {
                128 + (status & 0x7f)
            };
            let same = match &first[line] {
                Some(previous) => *previous == out,
                None => {
                    let path = format!("{out_dir}/out-{line}.txt");
                    std::fs::write(&path, &out).map_err(|e| format!("writing {path}: {e}"))?;
                    first[line] = Some(out);
                    true
                }
            };
            println!(
                "{line} {} {} {code} {} {}",
                wall.as_nanos(),
                usage.maxrss_kib(),
                u8::from(same),
                reference.as_nanos()
            );
        }
        round += 1;
    }
    Ok(())
}
