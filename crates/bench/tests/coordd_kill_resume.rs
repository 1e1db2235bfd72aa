//! Process-level kill-and-resume: SIGKILL the real `haccs-coordd` daemon
//! mid-federation and prove the snapshot it left on disk restores.
//!
//! This is the OS-process twin of the in-process socket test in
//! `tests/coordinator_resume.rs`: three `haccs-client` processes dial a
//! `haccs-coordd` checkpointing every round, the daemon is killed with
//! SIGKILL once the round-3 manifest lands, and a fresh daemon started
//! with `--resume` on the round-2 manifest (plus three fresh clients) —
//! the newest tick that cannot have been in-flight when the kill hit —
//! must restore it and finish the run cleanly.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const COORDD: &str = env!("CARGO_BIN_EXE_haccs-coordd");
const CLIENT: &str = env!("CARGO_BIN_EXE_haccs-client");

const CLIENTS: usize = 3;
const K: usize = 2;
const SEED: u64 = 7;
const STEP_TIMEOUT: Duration = Duration::from_secs(120);

/// Holds a coordd child plus a thread draining its stdout; the first
/// `listening on ADDR` line is delivered over a channel so the test can
/// point clients at the daemon's ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
    output: std::thread::JoinHandle<String>,
}

fn spawn_coordd(extra: &[&str]) -> Daemon {
    let mut cmd = Command::new(COORDD);
    cmd.args([
        "--clients",
        &CLIENTS.to_string(),
        "--k",
        &K.to_string(),
        "--seed",
        &SEED.to_string(),
        "--listen",
        "127.0.0.1:0",
        "--metrics",
        "127.0.0.1:0",
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn haccs-coordd");

    let stdout = child.stdout.take().expect("coordd stdout piped");
    let (tx, rx) = mpsc::channel();
    let output = std::thread::spawn(move || {
        let mut all = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.unwrap_or_default();
            if let Some(rest) = line.strip_prefix("listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default().to_string();
                tx.send(addr).ok();
            }
            all.push_str(&line);
            all.push('\n');
        }
        all
    });
    let addr = rx.recv_timeout(STEP_TIMEOUT).expect("coordd never announced its listener address");
    Daemon { child, addr, output }
}

fn spawn_clients(addr: &str) -> Vec<Child> {
    (0..CLIENTS)
        .map(|id| {
            Command::new(CLIENT)
                .args([
                    "--id",
                    &id.to_string(),
                    "--clients",
                    &CLIENTS.to_string(),
                    "--k",
                    &K.to_string(),
                    "--seed",
                    &SEED.to_string(),
                    "--connect",
                    addr,
                ])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn haccs-client")
        })
        .collect()
}

fn reap(mut procs: Vec<Child>) {
    for p in &mut procs {
        p.kill().ok();
        p.wait().ok();
    }
}

fn snapshot_path(dir: &Path, round: usize) -> PathBuf {
    dir.join(format!("manifest-{round:06}.snap"))
}

fn wait_for(path: &Path) {
    let t0 = Instant::now();
    while !path.exists() {
        assert!(t0.elapsed() < STEP_TIMEOUT, "timed out waiting for {path:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Waits for the child to exit on its own, failing the test (and killing
/// the child) if it outlives the step timeout.
fn wait_guarded(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let t0 = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if t0.elapsed() > STEP_TIMEOUT {
            child.kill().ok();
            child.wait().ok();
            panic!("{what} hung past {STEP_TIMEOUT:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn sigkilled_coordd_leaves_a_snapshot_a_fresh_daemon_resumes() {
    let dir = std::env::temp_dir().join(format!("haccs-coordd-kill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let dir_arg = dir.to_str().unwrap().to_string();

    // phase 1: a daemon checkpointing every round, on a run far longer
    // than it will be allowed to live
    let mut daemon =
        spawn_coordd(&["--rounds", "10000", "--snapshot-dir", &dir_arg, "--snapshot-every", "1"]);
    let clients = spawn_clients(&daemon.addr);

    // once round 3's checkpoint is on disk, round 2's is fully committed:
    // SIGKILL cannot catch it half-written
    wait_for(&snapshot_path(&dir, 3));
    daemon.child.kill().expect("SIGKILL coordd");
    daemon.child.wait().expect("reap coordd");
    daemon.output.join().ok();
    reap(clients); // their connections died with the daemon

    let snap = snapshot_path(&dir, 2);
    assert!(snap.exists(), "kill left no restorable snapshot at {snap:?}");

    // phase 2: a fresh daemon restores the orphaned snapshot and runs the
    // short remainder with fresh client processes
    let mut daemon = spawn_coordd(&["--rounds", "4", "--resume", snap.to_str().unwrap()]);
    let clients = spawn_clients(&daemon.addr);
    let status = wait_guarded(&mut daemon.child, "resumed coordd");
    let out = daemon.output.join().expect("stdout reader");
    assert!(status.success(), "resumed coordd failed: {status:?}\n{out}");
    assert!(
        out.contains("restored snapshot") && out.contains("at round 2"),
        "daemon never acknowledged the restore:\n{out}"
    );
    assert!(out.contains("round   2:"), "round 2 was not replayed:\n{out}");
    assert!(out.contains("round   3:"), "round 3 never ran:\n{out}");
    assert!(out.contains("done: 4 rounds"), "run did not complete:\n{out}");
    reap(clients);

    std::fs::remove_dir_all(&dir).ok();
}
