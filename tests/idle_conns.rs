//! A thousand mostly-idle connections cost file descriptors, not threads
//! or CPU.
//!
//! This file holds exactly one test, so every thread and every CPU tick
//! of the test process belongs to the server under test and to the one
//! thread holding its client sockets. The test opens 1,000 connections,
//! registers each with an event loop through one `ping` round trip, and
//! then checks three things: no connection failed, the process runs at
//! most I/O threads + workers + 2 threads, and the idle fleet burns at
//! most 500 ms of process CPU over a 2 s window.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;
use vqd::server::{self, netpoll, ServerCaps, ServerConfig};

const CONNS: usize = 1_000;
const IO_THREADS: usize = 2;
const WORKERS: usize = 4;
const IDLE_WINDOW: Duration = Duration::from_secs(2);
const IDLE_CPU_MS_MAX: u64 = 500;

/// Threads alive in this process.
fn thread_count() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a `Threads:` line in /proc/self/status")
}

/// Process CPU time (utime + stime) in ms, at the usual 100 Hz tick.
fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Skip the comm field, which may itself hold spaces; utime and
    // stime are the 12th and 13th fields after it.
    let rest = stat.rsplit_once(')').expect("stat has a comm field").1;
    let fields: Vec<u64> =
        rest.split_whitespace().skip(11).take(2).map(|f| f.parse().expect("tick count")).collect();
    (fields[0] + fields[1]) * 10
}

/// One newline-framed `ping` round trip on a raw socket.
fn ping(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"{\"v\":1,\"id\":\"idle\",\"request\":{\"op\":\"ping\"}}\n")?;
    let mut reply = Vec::new();
    let mut chunk = [0u8; 256];
    while !reply.contains(&b'\n') {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.extend_from_slice(&chunk[..n]);
    }
    Ok(())
}

#[test]
fn a_thousand_idle_connections_hold_with_bounded_threads_and_flat_cpu() {
    // Both ends of every connection live in this process.
    let limit = netpoll::raise_nofile_limit(2 * CONNS as u64 + 512);
    assert!(limit >= 2 * CONNS as u64 + 64, "fd limit {limit} is too low for {CONNS} connections");
    let handle = server::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        queue_depth: 64,
        caps: ServerCaps { io_threads: IO_THREADS, ..ServerCaps::default() },
    })
    .expect("spawn server");

    let mut held = Vec::with_capacity(CONNS);
    let mut failures = Vec::new();
    for _ in 0..CONNS {
        let opened = TcpStream::connect(handle.addr()).and_then(|mut stream| {
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            ping(&mut stream).map(|()| stream)
        });
        match opened {
            Ok(stream) => held.push(stream),
            Err(e) => failures.push(e.to_string()),
        }
    }
    assert!(failures.is_empty(), "{} connect failures, first: {}", failures.len(), failures[0]);

    // With every connection parked in a poll set, the event loops sleep.
    let cpu_before = process_cpu_ms();
    std::thread::sleep(IDLE_WINDOW);
    let idle_cpu_ms = process_cpu_ms() - cpu_before;
    let threads = thread_count();
    // The 2 are the harness's main thread and this test's thread.
    let bound = (IO_THREADS + WORKERS + 2) as u64;
    assert!(
        threads <= bound,
        "{threads} threads for {CONNS} connections, bound {bound} \
         ({IO_THREADS} I/O + {WORKERS} workers + 2)"
    );
    assert!(
        idle_cpu_ms <= IDLE_CPU_MS_MAX,
        "{idle_cpu_ms} ms of CPU burned in {IDLE_WINDOW:?} while every connection was idle"
    );
    drop(held);
    let _ = handle.shutdown();
    // The kernel finishes tearing down 2,000 loopback sockets after they
    // close; let it, so that work does not land on the next test binary.
    std::thread::sleep(Duration::from_millis(500));
}
