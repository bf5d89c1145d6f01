//! Strict command-line parsing for `edgecache-cli`.
//!
//! Parsing lives in the library (not the binary) so it is testable, and it
//! is *strict*: every subcommand rejects arguments it does not understand
//! instead of silently ignoring them. The `purge` audit that motivated
//! this (`purge <dir> --fil <id>` must not wipe the directory) applies to
//! every subcommand — a typoed flag on `verify --repair` or `serve
//! --quota` changes what the tool destroys or admits, so an unrecognized
//! token is always an error, never a no-op.

use std::path::PathBuf;
use std::time::Duration;

use edgecache_common::ByteSize;

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Cache directory (created if absent).
    pub dir: PathBuf,
    /// Bind address.
    pub addr: String,
    /// SSD capacity of the cache directory.
    pub capacity: ByteSize,
    /// Per-scope quotas: `(dotted scope, size)`.
    pub quotas: Vec<(String, ByteSize)>,
    /// Connection semaphore size.
    pub max_conns: usize,
    /// Page TTL in seconds (zero disables expiry).
    pub ttl_secs: u64,
    /// Honour the `shutdown` protocol command.
    pub allow_shutdown: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            dir: PathBuf::new(),
            addr: "127.0.0.1:11211".to_string(),
            capacity: ByteSize::gib(1),
            quotas: Vec::new(),
            max_conns: 1024,
            ttl_secs: 0,
            allow_shutdown: false,
        }
    }
}

impl ServeArgs {
    /// The TTL as a duration, if enabled.
    pub fn ttl(&self) -> Option<Duration> {
        (self.ttl_secs > 0).then(|| Duration::from_secs(self.ttl_secs))
    }
}

/// One fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    Inspect { dir: PathBuf },
    Verify { dir: PathBuf, repair: bool },
    Top { dir: PathBuf, n: usize },
    Purge { dir: PathBuf, file: Option<String> },
    Trace { path: PathBuf },
    Serve(ServeArgs),
}

/// The usage text printed on any parse error.
pub const USAGE: &str = "usage:\n  \
    edgecache-cli inspect <dir>\n  \
    edgecache-cli verify <dir> [--repair]\n  \
    edgecache-cli top <dir> [-n <count>]\n  \
    edgecache-cli purge <dir> [--file <hex-id>]\n  \
    edgecache-cli trace <dump.json>\n  \
    edgecache-cli serve <dir> [--addr <host:port>] [--capacity <size>]\n    \
    [--quota <scope>=<size>]... [--max-conns <n>] [--ttl <secs>]\n    \
    [--allow-shutdown]";

/// Parses an invocation (everything after the program name). Errors carry
/// a human-readable message; callers print it plus [`USAGE`] and exit 2.
pub fn parse_cli(args: &[String]) -> Result<CliCommand, String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let Some(dir) = args.get(1) else {
        return Err(format!("{cmd}: missing argument"));
    };
    let dir = PathBuf::from(dir);
    let rest = &args[2..];

    match cmd.as_str() {
        "inspect" => {
            reject_extras("inspect", rest)?;
            Ok(CliCommand::Inspect { dir })
        }
        "trace" => {
            reject_extras("trace", rest)?;
            Ok(CliCommand::Trace { path: dir })
        }
        "verify" => {
            let mut repair = false;
            for a in rest {
                match a.as_str() {
                    "--repair" => repair = true,
                    other => return Err(unrecognized("verify", other)),
                }
            }
            Ok(CliCommand::Verify { dir, repair })
        }
        "top" => {
            let mut n = 10;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-n" => n = parse_value("top", "-n", it.next())?,
                    other => return Err(unrecognized("top", other)),
                }
            }
            Ok(CliCommand::Top { dir, n })
        }
        "purge" => {
            let mut file = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--file" => {
                        file = Some(
                            it.next()
                                .ok_or_else(|| "purge: --file needs a value".to_string())?
                                .clone(),
                        )
                    }
                    other => return Err(unrecognized("purge", other)),
                }
            }
            Ok(CliCommand::Purge { dir, file })
        }
        "serve" => {
            let mut serve = ServeArgs {
                dir,
                ..Default::default()
            };
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        serve.addr = it
                            .next()
                            .ok_or_else(|| "serve: --addr needs a value".to_string())?
                            .clone()
                    }
                    "--capacity" => serve.capacity = parse_value("serve", "--capacity", it.next())?,
                    "--max-conns" => {
                        serve.max_conns = parse_value("serve", "--max-conns", it.next())?
                    }
                    "--ttl" => serve.ttl_secs = parse_value("serve", "--ttl", it.next())?,
                    "--allow-shutdown" => serve.allow_shutdown = true,
                    "--quota" => {
                        let spec = it
                            .next()
                            .ok_or_else(|| "serve: --quota needs <scope>=<size>".to_string())?;
                        let (scope, size) = spec
                            .split_once('=')
                            .ok_or_else(|| format!("serve: bad quota spec `{spec}`"))?;
                        let size: ByteSize = size
                            .parse()
                            .map_err(|e| format!("serve: bad quota size in `{spec}`: {e}"))?;
                        serve.quotas.push((scope.to_string(), size));
                    }
                    other => return Err(unrecognized("serve", other)),
                }
            }
            if serve.max_conns == 0 {
                return Err("serve: --max-conns must be positive".into());
            }
            Ok(CliCommand::Serve(serve))
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn unrecognized(cmd: &str, arg: &str) -> String {
    format!("{cmd}: unrecognized argument `{arg}`")
}

/// For subcommands that take no flags at all.
fn reject_extras(cmd: &str, rest: &[String]) -> Result<(), String> {
    match rest.first() {
        Some(extra) => Err(unrecognized(cmd, extra)),
        None => Ok(()),
    }
}

fn parse_value<T: std::str::FromStr>(
    cmd: &str,
    flag: &str,
    value: Option<&String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = value.ok_or_else(|| format!("{cmd}: {flag} needs a value"))?;
    v.parse()
        .map_err(|e| format!("{cmd}: bad value for {flag} `{v}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliCommand, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn every_subcommand_parses_its_happy_path() {
        assert_eq!(
            parse(&["inspect", "/d"]).unwrap(),
            CliCommand::Inspect { dir: "/d".into() }
        );
        assert_eq!(
            parse(&["verify", "/d", "--repair"]).unwrap(),
            CliCommand::Verify {
                dir: "/d".into(),
                repair: true
            }
        );
        assert_eq!(
            parse(&["top", "/d", "-n", "3"]).unwrap(),
            CliCommand::Top {
                dir: "/d".into(),
                n: 3
            }
        );
        assert_eq!(
            parse(&["purge", "/d", "--file", "00000000000000ff"]).unwrap(),
            CliCommand::Purge {
                dir: "/d".into(),
                file: Some("00000000000000ff".into())
            }
        );
        let CliCommand::Serve(s) = parse(&[
            "serve",
            "/d",
            "--addr",
            "127.0.0.1:0",
            "--capacity",
            "256MB",
            "--quota",
            "sales.orders=64MB",
            "--max-conns",
            "16",
            "--ttl",
            "60",
            "--allow-shutdown",
        ])
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!(s.capacity, ByteSize::mib(256));
        assert_eq!(s.quotas, vec![("sales.orders".into(), ByteSize::mib(64))]);
        assert_eq!(s.max_conns, 16);
        assert_eq!(s.ttl(), Some(Duration::from_secs(60)));
        assert!(s.allow_shutdown);
    }

    /// The audit this module exists for: EVERY subcommand must reject a
    /// stray argument — no silent ignoring anywhere.
    #[test]
    fn every_subcommand_rejects_stray_arguments() {
        let cases: &[&[&str]] = &[
            &["inspect", "/d", "extra"],
            &["trace", "/d.json", "extra"],
            &["verify", "/d", "--repar"],
            &["verify", "/d", "--repair", "now"],
            &["top", "/d", "-m", "3"],
            &["top", "/d", "-n", "3", "extra"],
            &["purge", "/d", "--fil", "00ff"],
            &["purge", "/d", "stray"],
            &["serve", "/d", "--adr", "x"],
            &["serve", "/d", "--allow-shutdown", "yes"],
            &["serve", "/d", "--mem", "32MB"],
        ];
        for case in cases {
            let err = parse(case).expect_err(&format!("{case:?} must be rejected"));
            assert!(err.contains("unrecognized"), "{case:?} -> {err}");
        }
    }

    #[test]
    fn missing_values_and_bad_values_are_errors() {
        assert!(parse(&["top", "/d", "-n"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["top", "/d", "-n", "many"])
            .unwrap_err()
            .contains("bad value"));
        assert!(parse(&["purge", "/d", "--file"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&["serve", "/d", "--quota", "noequals"])
            .unwrap_err()
            .contains("bad quota spec"));
        assert!(parse(&["serve", "/d", "--quota", "s=1XB"])
            .unwrap_err()
            .contains("bad quota size"));
        assert!(parse(&["serve", "/d", "--max-conns", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&[]).unwrap_err().contains("missing subcommand"));
        assert!(parse(&["inspect"])
            .unwrap_err()
            .contains("missing argument"));
        assert!(parse(&["frobnicate", "/d"])
            .unwrap_err()
            .contains("unknown subcommand"));
    }
}
