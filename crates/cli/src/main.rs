//! `edgecache-cli` — operator tooling for edgecache cache directories.
//!
//! ```text
//! edgecache-cli inspect <dir>
//! edgecache-cli verify  <dir> [--repair]
//! edgecache-cli top     <dir> [-n <count>]
//! edgecache-cli purge   <dir> [--file <hex-file-id>]
//! edgecache-cli trace   <dump.json>
//! edgecache-cli serve   <dir> [--addr <host:port>] [--capacity <size>]
//!                       [--quota <scope>=<size>]... [--max-conns <n>]
//!                       [--ttl <secs>] [--allow-shutdown]
//! ```
//!
//! Argument parsing is strict (see `args`): any unrecognized argument is a
//! hard error with exit code 2, for every subcommand.

use std::process::ExitCode;

use edgecache_cli::{parse_cli, CliCommand, USAGE};
use edgecache_common::ByteSize;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_cli(&argv) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let result = match cmd {
        CliCommand::Inspect { dir } => edgecache_cli::inspect(&dir).map(|r| println!("{r}")),
        CliCommand::Verify { dir, repair } => edgecache_cli::verify(&dir, repair).map(|r| {
            println!(
                "checked {} pages, {} corrupt{}",
                r.checked,
                r.corrupt,
                if r.repaired { " (deleted)" } else { "" }
            );
            if r.corrupt > 0 && !r.repaired {
                println!("re-run with --repair to delete corrupt pages");
            }
        }),
        CliCommand::Top { dir, n } => edgecache_cli::top(&dir, n).map(|entries| {
            println!("{:<18} {:>8} {:>12}", "file id", "pages", "bytes");
            for (file, pages, bytes) in entries {
                println!(
                    "{:<18} {:>8} {:>12}",
                    file.as_hex(),
                    pages,
                    ByteSize::new(bytes).to_string()
                );
            }
        }),
        CliCommand::Trace { path } => edgecache_cli::trace_summary(&path).map(|stages| {
            let us = |d: std::time::Duration| d.as_micros();
            println!(
                "{:<18} {:>7} {:>12} {:>9} {:>9} {:>9} {:>9}",
                "stage", "count", "total_us", "p50_us", "p95_us", "p99_us", "max_us"
            );
            for s in stages {
                println!(
                    "{:<18} {:>7} {:>12} {:>9} {:>9} {:>9} {:>9}",
                    s.name,
                    s.count,
                    us(s.total),
                    us(s.p50),
                    us(s.p95),
                    us(s.p99),
                    us(s.max)
                );
            }
        }),
        CliCommand::Purge { dir, file } => {
            edgecache_cli::purge(&dir, file.as_deref()).map(|n| println!("removed {n} pages"))
        }
        CliCommand::Serve(args) => edgecache_cli::start_serve(&args).map(|session| {
            // The bound address on stdout is the contract scripts rely on
            // (with --addr host:0 the port is ephemeral).
            println!("listening on {}", session.handle.local_addr());
            session.handle.wait();
            eprintln!("shutdown requested, draining");
        }),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
