//! `edgecache-cli serve` as a process: it binds an ephemeral port and says
//! where, answers one pipelined batch in order, and on the protocol's
//! `shutdown` command drains and exits 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the server if the test fails before it exits on its own.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_answers_a_pipelined_batch_and_shuts_down_cleanly() {
    let dir = std::env::temp_dir().join(format!("edgecache-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_edgecache-cli"))
            .arg("serve")
            .arg(&dir)
            .args(["--addr", "127.0.0.1:0", "--capacity", "256MB"])
            .arg("--allow-shutdown")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("edgecache-cli spawns"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim_end()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("want `listening on <addr>`, got {line:?}"));

    let mut c = TcpStream::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // 32 set/get pairs in one write: 64 requests, 64 responses in order.
    let (mut batch, mut expected) = (Vec::new(), Vec::new());
    for i in 0..32 {
        let value = format!("value-{i}-").repeat(i + 1);
        let n = value.len();
        write!(batch, "set k{i} 0 0 {n}\r\n{value}\r\nget k{i}\r\n").unwrap();
        write!(expected, "STORED\r\nVALUE k{i} 0 {n}\r\n{value}\r\nEND\r\n").unwrap();
    }
    c.write_all(&batch).unwrap();
    let mut reply = vec![0u8; expected.len()];
    c.read_exact(&mut reply).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&reply),
        String::from_utf8_lossy(&expected)
    );

    c.write_all(b"shutdown\r\n").unwrap();
    let mut ok = [0u8; 4];
    c.read_exact(&mut ok).unwrap();
    assert_eq!(&ok, b"OK\r\n");
    // Draining takes milliseconds; only a hang reaches the deadline.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = server.0.try_wait().unwrap() {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "serve did not exit after shutdown"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(status.success(), "serve exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
