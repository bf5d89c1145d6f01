//! End-to-end tests over real TCP sockets: a server on an ephemeral port,
//! raw byte-level clients, and the ISSUE's acceptance criteria — set then
//! get returns the value byte-identical, pipelined bursts are answered in
//! order, the semaphore refuses over-limit connections, stalled peers are
//! dropped, shutdown drains, and the request accounting obeys the server
//! conservation laws. That a start/stop loop leaks no thread is checked in
//! `thread_leak.rs`, a test binary of its own.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use edgecache_common::clock::system_clock;
use edgecache_common::ByteSize;
use edgecache_core::config::CacheConfig;
use edgecache_core::manager::CacheManager;
use edgecache_metrics::{assert_conserved, server_laws, SnapshotDiff};
use edgecache_pagestore::{CacheScope, MemoryPageStore};
use edgecache_server::server::{serve, ServerConfig, ServerHandle};
use edgecache_workload::kv::{fill_value, KeyMix, KeyMixConfig, KvOp};

fn start_server(config: ServerConfig) -> (ServerHandle, Arc<CacheManager>) {
    let clock = system_clock();
    let cache = Arc::new(
        CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::kib(4)))
            .with_store(Arc::new(MemoryPageStore::new()), ByteSize::mib(64).as_u64())
            .with_clock(clock.clone())
            .build()
            .unwrap(),
    );
    let handle = serve(Arc::clone(&cache), clock, config).unwrap();
    (handle, cache)
}

fn ephemeral() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..Default::default()
    }
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let s = TcpStream::connect(handle.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Reads until `stream` has delivered `n` bytes (responses are
/// deterministic byte strings, so tests know exactly what to expect).
fn read_exact_bytes(stream: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut buf = vec![0u8; n];
    stream.read_exact(&mut buf).unwrap();
    buf
}

/// Reads to EOF.
fn read_to_end(stream: &mut TcpStream) -> Vec<u8> {
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    buf
}

/// Reads until the buffer ends with `suffix` (responses may arrive split
/// across reads like any TCP payload).
fn read_until(stream: &mut TcpStream, suffix: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !buf.ends_with(suffix) {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "peer closed before {suffix:?} arrived");
        buf.extend_from_slice(&chunk[..n]);
    }
    buf
}

#[test]
fn set_then_get_returns_value_byte_identical() {
    let (handle, _cache) = start_server(ephemeral());
    let mut c = connect(&handle);
    // A value spanning multiple 4 KiB pages, with arbitrary binary bytes
    // including CRLF sequences.
    let value: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    let mut req = format!("set k1 42 0 {}\r\n", value.len()).into_bytes();
    req.extend_from_slice(&value);
    req.extend_from_slice(b"\r\n");
    c.write_all(&req).unwrap();
    assert_eq!(read_exact_bytes(&mut c, 8), b"STORED\r\n");

    c.write_all(b"get k1\r\n").unwrap();
    let header = format!("VALUE k1 42 {}\r\n", value.len());
    let expect_len = header.len() + value.len() + 2 + 5; // + \r\n + END\r\n
    let reply = read_exact_bytes(&mut c, expect_len);
    assert_eq!(&reply[..header.len()], header.as_bytes());
    assert_eq!(
        &reply[header.len()..header.len() + value.len()],
        &value[..],
        "payload must round-trip byte-identical"
    );
    assert_eq!(&reply[header.len() + value.len()..], b"\r\nEND\r\n");
    handle.shutdown();
}

#[test]
fn pipelined_burst_is_answered_in_order() {
    let (handle, cache) = start_server(ephemeral());
    let before = cache.metrics().snapshot();
    let mut c = connect(&handle);
    // One write: three sets (one noreply), a multi-key get, a miss, a
    // delete, and a version — the whole batch answered in request order.
    let mut req = Vec::new();
    req.extend_from_slice(b"set a 0 0 2\r\naa\r\n");
    req.extend_from_slice(b"set b 0 0 2 noreply\r\nbb\r\n");
    req.extend_from_slice(b"set c 0 0 2\r\ncc\r\n");
    req.extend_from_slice(b"get a b c\r\n");
    req.extend_from_slice(b"get nope\r\n");
    req.extend_from_slice(b"delete b\r\n");
    req.extend_from_slice(b"version\r\n");
    c.write_all(&req).unwrap();

    let expected = b"STORED\r\nSTORED\r\n\
        VALUE a 0 2\r\naa\r\nVALUE b 0 2\r\nbb\r\nVALUE c 0 2\r\ncc\r\nEND\r\n\
        END\r\nDELETED\r\n";
    let reply = read_exact_bytes(&mut c, expected.len());
    assert_eq!(
        std::str::from_utf8(&reply).unwrap(),
        std::str::from_utf8(expected).unwrap()
    );
    let version = read_exact_bytes(&mut c, "VERSION edgecache ".len());
    assert_eq!(&version, b"VERSION edgecache ");
    drop(c);
    handle.shutdown();

    // Quiesced: the server conservation laws must hold over the window.
    let diff = SnapshotDiff::between(&before, &cache.metrics().snapshot());
    assert_conserved(&diff, &server_laws()).unwrap();
    assert_eq!(diff.counter("server.requests"), 7);
    assert_eq!(diff.counter("server.noreply_acks"), 1);
    assert_eq!(diff.counter("server.get_keys"), 4);
    assert_eq!(diff.counter("server.get_hits"), 3);
    assert_eq!(diff.counter("server.get_misses"), 1);
}

#[test]
fn gets_carries_cas_and_cas_advances_on_overwrite() {
    let (handle, _cache) = start_server(ephemeral());
    let mut c = connect(&handle);
    c.write_all(b"set k 0 0 1\r\nx\r\ngets k\r\n").unwrap();
    let reply = read_until(&mut c, b"END\r\n");
    let text = String::from_utf8_lossy(&reply).to_string();
    let cas1: u64 = text
        .lines()
        .find(|l| l.starts_with("VALUE"))
        .and_then(|l| l.split(' ').nth(4))
        .and_then(|t| t.parse().ok())
        .expect("gets VALUE line carries cas");

    c.write_all(b"set k 0 0 1\r\ny\r\ngets k\r\n").unwrap();
    let reply = read_until(&mut c, b"END\r\n");
    let text = String::from_utf8_lossy(&reply).to_string();
    let cas2: u64 = text
        .lines()
        .find(|l| l.starts_with("VALUE"))
        .and_then(|l| l.split(' ').nth(4))
        .and_then(|t| t.parse().ok())
        .expect("second gets VALUE line");
    assert!(
        cas2 > cas1,
        "cas must advance on overwrite: {cas1} -> {cas2}"
    );
    handle.shutdown();
}

#[test]
fn connection_semaphore_refuses_over_limit() {
    let (handle, _cache) = start_server(ServerConfig {
        max_connections: 2,
        ..ephemeral()
    });
    let c1 = connect(&handle);
    let c2 = connect(&handle);
    // Wait for both permits to be claimed (accept loop is asynchronous).
    std::thread::sleep(Duration::from_millis(100));
    let mut c3 = connect(&handle);
    let reply = read_to_end(&mut c3);
    assert_eq!(reply, b"SERVER_ERROR too many connections\r\n");
    drop(c3);
    // Releasing a permit readmits new clients.
    drop(c1);
    std::thread::sleep(Duration::from_millis(100));
    let mut c4 = connect(&handle);
    c4.write_all(b"version\r\n").unwrap();
    let v = read_exact_bytes(&mut c4, 8);
    assert_eq!(&v, b"VERSION ");
    drop(c2);
    drop(c4);
    handle.shutdown();
}

#[test]
fn stalled_peer_with_partial_frame_is_dropped() {
    let (handle, cache) = start_server(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ephemeral()
    });
    let mut c = connect(&handle);
    // Half a command, then silence: the read deadline must reclaim the
    // thread and close the socket.
    c.write_all(b"set k 0 0 10\r\npart").unwrap();
    let rest = read_to_end(&mut c);
    assert!(
        rest.is_empty(),
        "timed-out peer gets no reply, got {rest:?}"
    );
    handle.shutdown();
    assert!(
        cache.metrics().snapshot().counter("server.timeouts") >= 1,
        "timeout must be counted"
    );
}

#[test]
fn fatal_protocol_error_answers_then_closes() {
    let (handle, _cache) = start_server(ServerConfig {
        limits: edgecache_server::ParserLimits {
            max_value_len: 64,
            ..Default::default()
        },
        ..ephemeral()
    });
    let mut c = connect(&handle);
    c.write_all(b"set k 0 0 100000\r\n").unwrap();
    let reply = read_to_end(&mut c); // reply then EOF: connection closed
    assert_eq!(reply, b"SERVER_ERROR object too large for cache\r\n");
    handle.shutdown();
}

#[test]
fn quota_scoped_tenant_is_bounded_over_the_wire() {
    let clock = system_clock();
    let cache = Arc::new(
        CacheManager::builder(CacheConfig::default().with_page_size(ByteSize::new(1024)))
            .with_store(Arc::new(MemoryPageStore::new()), ByteSize::mib(64).as_u64())
            .with_quota(CacheScope::table("t", "small"), ByteSize::new(2048))
            .with_clock(clock.clone())
            .build()
            .unwrap(),
    );
    let handle = serve(Arc::clone(&cache), clock, ephemeral()).unwrap();
    let mut c = connect(&handle);
    for i in 0..8 {
        let req = format!("set t.small:k{i} 0 0 1024\r\n{}\r\n", "x".repeat(1024));
        c.write_all(req.as_bytes()).unwrap();
        // STORED or NOT_STORED, both 8.. read the line.
        let mut one = [0u8; 64];
        let n = c.read(&mut one).unwrap();
        assert!(n > 0);
    }
    let used = cache
        .index()
        .bytes_of_scope(&CacheScope::table("t", "small"));
    assert!(used <= 2048, "tenant quota must bind remote sets: {used}");
    handle.shutdown();
}

#[test]
fn stats_surfaces_registry_counters() {
    let (handle, _cache) = start_server(ephemeral());
    let mut c = connect(&handle);
    c.write_all(b"set s 0 0 1\r\nz\r\nget s\r\nstats\r\n")
        .unwrap();
    // The stats reply is the second END in the stream (the get's END comes
    // first); read past both.
    let mut reply = read_until(&mut c, b"END\r\n");
    if !String::from_utf8_lossy(&reply).contains("STAT") {
        reply.extend_from_slice(&read_until(&mut c, b"END\r\n"));
    }
    let text = String::from_utf8_lossy(&reply).to_string();
    assert!(text.contains("STAT get_hits 1"), "{text}");
    assert!(text.contains("STAT cmd_set 1"), "{text}");
    assert!(
        text.contains("STAT server.requests"),
        "registry counters must be surfaced: {text}"
    );
    assert!(text.trim_end().ends_with("END"), "{text}");
    handle.shutdown();
}

#[test]
fn shutdown_command_honoured_only_when_allowed() {
    // Disallowed (the default): the command is refused, the server lives.
    let (handle, _cache) = start_server(ephemeral());
    let mut c = connect(&handle);
    c.write_all(b"shutdown\r\n").unwrap();
    let mut buf = [0u8; 128];
    let n = c.read(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"CLIENT_ERROR shutdown not permitted\r\n");
    assert!(!handle.stop_requested());
    handle.shutdown();

    // Allowed: OK, then the server stops accepting.
    let (handle, _cache) = start_server(ServerConfig {
        allow_shutdown_command: true,
        ..ephemeral()
    });
    let mut c = connect(&handle);
    c.write_all(b"shutdown\r\n").unwrap();
    let n = c.read(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"OK\r\n");
    handle.wait(); // returns because the command requested the stop
    assert!(handle.stop_requested());
    handle.shutdown();
}

/// One connection of the mix below: 500 seeded ops, 8 pipelined per write,
/// every response checked against its request in order (a `get` misses or
/// returns exactly `fill_value`, a `set` is answered). Returns (hits, stored).
fn drive_mix(handle: &ServerHandle, seed: u64) -> (u64, u64) {
    const LEN: usize = 512;
    let mut mix = KeyMix::new(KeyMixConfig {
        keys: 200,
        set_ratio: 0.3,
        value_len: LEN,
        seed,
        ..Default::default()
    });
    let ops: Vec<KvOp> = (0..500).map(|_| mix.next_op()).collect();
    let mut c = BufReader::new(connect(handle));
    let line = |c: &mut BufReader<TcpStream>| {
        let mut l = String::new();
        c.read_line(&mut l).unwrap();
        l.trim_end().to_string()
    };
    let (mut hits, mut stored) = (0, 0);
    for batch in ops.chunks(8) {
        let mut wire = Vec::new();
        for op in batch {
            match op {
                KvOp::Get { key } => write!(wire, "get {key}\r\n").unwrap(),
                KvOp::Set { key, .. } => {
                    write!(wire, "set {key} 0 0 {LEN}\r\n").unwrap();
                    wire.extend(fill_value(key, LEN));
                    wire.extend(b"\r\n");
                }
                KvOp::Delete { .. } => unreachable!("the mix has no deletes"),
            }
        }
        c.get_mut().write_all(&wire).unwrap();
        for op in batch {
            let reply = line(&mut c);
            match op {
                KvOp::Get { key } if reply != "END" => {
                    assert_eq!(reply, format!("VALUE {key} 0 {LEN}"));
                    let mut data = vec![0u8; LEN + 2];
                    c.read_exact(&mut data).unwrap();
                    assert!(data[..LEN] == fill_value(key, LEN)[..], "{key}: bad value");
                    assert_eq!((&data[LEN..], line(&mut c)), (&b"\r\n"[..], "END".into()));
                    hits += 1;
                }
                KvOp::Get { .. } => {}
                _ if reply == "STORED" => stored += 1,
                _ => assert_eq!(reply, "NOT_STORED", "a set's reply, in order"),
            }
        }
    }
    // Exactly one response per request: nothing follows the last one.
    c.get_ref().shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    c.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unrequested responses: {rest:?}");
    (hits, stored)
}

#[test]
fn pipelined_mix_against_live_server_conserves_and_hits() {
    let (handle, cache) = start_server(ephemeral());
    let before = cache.metrics().snapshot();
    let handle_ref = &handle;
    let per_conn: Vec<(u64, u64)> = std::thread::scope(|s| {
        let conns: Vec<_> = (0..4)
            .map(|conn| s.spawn(move || drive_mix(handle_ref, 42 + conn * 0x9e37)))
            .collect();
        conns.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert!(
        per_conn.iter().any(|c| c.0 > 0),
        "zipf reuse must produce hits"
    );
    assert!(per_conn.iter().any(|c| c.1 > 0));
    handle.shutdown();
    let diff = SnapshotDiff::between(&before, &cache.metrics().snapshot());
    assert_conserved(&diff, &server_laws()).unwrap();
    assert_eq!(diff.counter("server.requests"), 4 * 500);
}
