//! The daemon under test as a child process, and line-oriented client
//! connections to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single reply may take before the run counts it as a
/// read error (a hang guard, far above every latency measured).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Linux reports process CPU time in `/proc/<pid>/stat` in units of
/// USER_HZ, which is 100 on every mainstream architecture.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// A running `tiresias serve`. Killed (SIGKILL) and reaped on drop.
pub struct Daemon {
    child: Child,
    /// The bound address (`LISTENING` line).
    pub addr: String,
    /// Spawn to the first `PONG` (includes any WAL recovery, which runs
    /// before the daemon listens).
    pub setup: Duration,
}

impl Daemon {
    /// Spawns `bin serve <args>` on an ephemeral loopback port, waits
    /// for the `LISTENING` line and a `PING`/`PONG` round trip. The
    /// daemon's stderr goes to `log`.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> io::Result<Daemon> {
        let log = std::fs::OpenOptions::new().create(true).append(true).open(log)?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;
        let addr = {
            let stdout = child.stdout.take().expect("stdout is piped");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line)?;
            match line.trim().strip_prefix("LISTENING ") {
                Some(addr) => addr.to_string(),
                None => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(io::Error::other(format!(
                        "daemon did not report its address (got `{}`)",
                        line.trim()
                    )));
                }
            }
        };
        let mut daemon = Daemon { child, addr, setup: Duration::ZERO };
        let mut probe = Conn::connect(&daemon.addr)?;
        probe.expect("PING", "PONG")?;
        daemon.setup = t0.elapsed();
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds the daemon has used so far.
    pub fn cpu_secs(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_SEC)
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection: raw writes, newline-framed reads.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a short read poll (so a reader can
    /// watch a stop flag); [`Conn::line`] still waits up to
    /// [`REPLY_TIMEOUT`].
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(Duration::from_millis(20)))?;
        let r = BufReader::with_capacity(1 << 16, w.try_clone()?);
        Ok(Conn { w, r, buf: Vec::new() })
    }

    /// Writes `bytes` in full (spinning while a non-blocking socket's
    /// buffer is full).
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.w.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Makes the socket non-blocking, so that [`Conn::line`] spins
    /// instead of sleeping in `read`.
    pub fn spin(&mut self) -> io::Result<()> {
        self.w.set_nonblocking(true)
    }

    /// The next complete line, or `None` if none arrived within the
    /// poll interval (a partial line is kept for the next call).
    pub fn poll_line(&mut self) -> io::Result<Option<String>> {
        match self.r.read_until(b'\n', &mut self.buf) {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the socket")),
            Ok(_) if self.buf.last() == Some(&b'\n') => {
                let line = String::from_utf8_lossy(&self.buf).trim_end().to_string();
                self.buf.clear();
                Ok(Some(line))
            }
            Ok(_) => Ok(None),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// The next complete line, waiting up to [`REPLY_TIMEOUT`].
    pub fn line(&mut self) -> io::Result<String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(line) = self.poll_line()? {
                return Ok(line);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply from the daemon"));
            }
        }
    }

    /// Sends one text request and returns its one-line reply.
    pub fn request(&mut self, req: &str) -> io::Result<String> {
        self.send(format!("{req}\n").as_bytes())?;
        self.line()
    }

    /// Sends `req` and requires a reply starting with `want`.
    pub fn expect(&mut self, req: &str, want: &str) -> io::Result<String> {
        let reply = self.request(req)?;
        if reply.starts_with(want) {
            Ok(reply)
        } else {
            Err(io::Error::other(format!("`{req}` answered `{reply}`, expected `{want}`")))
        }
    }
}

/// The value of `key=` in a `STATS` line.
pub fn stat<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

/// The numeric value of `key=` in a `STATS` line (`-` and absent read
/// as `None`).
pub fn stat_u64(line: &str, key: &str) -> Option<u64> {
    stat(line, key).and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fields_parse() {
        let line = "STATS records=12 late=0 ahead=0 last_closed=- open_unit=4";
        assert_eq!(stat_u64(line, "records"), Some(12));
        assert_eq!(stat_u64(line, "last_closed"), None);
        assert_eq!(stat_u64(line, "open_unit"), Some(4));
        assert_eq!(stat(line, "rec"), None);
    }
}
