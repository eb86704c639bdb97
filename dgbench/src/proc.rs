//! Child processes under test: the serving fleet, fresh-process commands,
//! and their peak resident memory.

use dg_serve::client::http_request;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The path of binary `name` under test, which is built into the same
/// target directory as this executable; an error if it was not built.
pub fn binary(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build the workspace binaries first",
            path.display()
        ))
    }
}

/// A spawned server and the address it reported binding.
#[derive(Debug)]
pub struct Spawned {
    pub child: Child,
    pub addr: SocketAddr,
}

/// Spawns `name` and reads its `listening on <addr>` banner.
fn spawn_server(name: &str, args: &[String]) -> Result<Spawned, String> {
    let mut child = Command::new(binary(name)?)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let mut line = String::new();
    let read = child
        .stdout
        .take()
        .map(|out| BufReader::new(out).read_line(&mut line));
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok());
    match (read, addr) {
        (Some(Ok(_)), Some(addr)) => Ok(Spawned { child, addr }),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("{name} printed no listening banner (got {line:?})"))
        }
    }
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The benchmark topology: two disk-cached `dg-serve` shards behind one
/// `dg-router`, every pool sized to `workers` threads.
#[derive(Debug)]
pub struct Fleet {
    pub router: Spawned,
    pub shards: Vec<Spawned>,
    dir: PathBuf,
}

impl Fleet {
    /// Starts the shards over fresh cache directories under `dir`, then
    /// the router, and waits until `/healthz` answers through the router.
    pub fn spawn(dir: &Path, workers: usize) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(dir);
        let workers = workers.to_string();
        let mut shards = Vec::new();
        for i in 0..2 {
            let cache = dir.join(format!("shard{i}"));
            std::fs::create_dir_all(&cache)
                .map_err(|e| format!("mkdir {}: {e}", cache.display()))?;
            let args = [
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers,
                "--queue",
                "256",
                "--cache-dir",
                &cache.display().to_string(),
            ]
            .map(str::to_owned);
            match spawn_server("dg-serve", &args) {
                Ok(s) => shards.push(s),
                Err(e) => {
                    stop_all(&mut shards);
                    return Err(e);
                }
            }
        }
        let mut args = [
            "--addr",
            "127.0.0.1:0",
            "--workers",
            &workers,
            "--queue",
            "256",
        ]
        .map(str::to_owned)
        .to_vec();
        for s in &shards {
            args.push("--shard".to_owned());
            args.push(s.addr.to_string());
        }
        let router = match spawn_server("dg-router", &args) {
            Ok(r) => r,
            Err(e) => {
                stop_all(&mut shards);
                return Err(e);
            }
        };
        let fleet = Fleet {
            router,
            shards,
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let up = http_request(fleet.router.addr, "GET", "/healthz", None)
                .is_ok_and(|r| r.status == 200);
            if up {
                return Ok(fleet);
            }
            if Instant::now() > deadline {
                return Err("fleet did not become healthy within 10 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Sum of the fleet processes' peak resident sets, in MiB.
    #[allow(clippy::cast_precision_loss)]
    pub fn peak_rss_mb(&self) -> f64 {
        std::iter::once(&self.router)
            .chain(&self.shards)
            .filter_map(|s| vm_hwm_kb(s.child.id()))
            .sum::<u64>() as f64
            / 1024.0
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        stop_all(std::slice::from_mut(&mut self.router));
        stop_all(&mut self.shards);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stop_all(servers: &mut [Spawned]) {
    for s in servers.iter_mut() {
        let _ = s.child.kill();
    }
    for s in servers.iter_mut() {
        let _ = s.child.wait();
    }
}

/// What a fresh-process command left behind.
#[derive(Debug)]
pub struct Finished {
    /// Whether it exited with status 0.
    pub ok: bool,
    /// Its standard output.
    pub stdout: Vec<u8>,
    /// Its peak resident set, in KiB.
    pub max_rss_kb: u64,
    /// Spawn to exit.
    pub wall: Duration,
}

/// Runs `program` with `args` to completion in a fresh process.
pub fn run_fresh(program: &Path, args: &[&str]) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let mut stdout = Vec::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_end(&mut stdout)
            .map_err(|e| format!("read {} output: {e}", program.display()))?;
    }
    let (ok, max_rss_kb) = reap(&child)?;
    Ok(Finished {
        ok,
        stdout,
        max_rss_kb,
        wall: start.elapsed(),
    })
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as the 64-bit Linux ABI lays it out.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `child` with `wait4`, which also reports the child's own
/// peak resident set (std's `wait` discards it). Returns whether it
/// exited with status 0, and its peak RSS in KiB.
fn reap(child: &Child) -> Result<(bool, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_owned())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable locals of the types
    // wait4(2) fills (`int` and the LP64 `struct rusage`); `pid` names a
    // child of this process that nothing else waits for.
    let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    if got != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    // WIFEXITED(status) && WEXITSTATUS(status) == 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((ok, u64::try_from(usage.maxrss).unwrap_or(0)))
}
