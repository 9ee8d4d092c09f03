//! Open-loop load over already-connected sockets.
//!
//! One thread per connection sends each request when it is due, whether
//! or not earlier replies have arrived (requests on a connection are
//! pipelined; the daemon answers them in order), and reads replies while
//! it waits for the next due time. So a stall in the daemon delays the
//! replies but not the sends, and latency is timed from each request's
//! due time.

use crate::stats::Timing;
use gvex_serve::{write_frame, Request, Response};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The longest a set-up or check request may wait for its reply, and
/// the longest any write may block on a daemon that stopped reading.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// A connection to the daemon, used by one load thread at a time.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(CALL_TIMEOUT))?;
        Ok(Self { stream, buf: Vec::new() })
    }

    /// Sends one request and waits for its reply (set-up and checks only),
    /// for [`CALL_TIMEOUT`] at most.
    pub fn call(&mut self, req: &Request) -> std::io::Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let until = Instant::now() + CALL_TIMEOUT;
        loop {
            if let Some(frame) = self.take_frame() {
                return Response::decode(&frame)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
            }
            if !self.fill_until(until)? {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "no reply in time"));
            }
        }
    }

    /// Discards `n` late replies, waiting until `until` at most. Returns
    /// whether the connection is in step again.
    pub fn drain(&mut self, mut n: usize, until: Instant) -> bool {
        while n > 0 {
            while n > 0 && self.take_frame().is_some() {
                n -= 1;
            }
            if n > 0 && !matches!(self.fill_until(until), Ok(true)) {
                return false;
            }
        }
        true
    }

    /// Waits for data until `until`; `Ok(false)` when the time ran out
    /// first.
    fn fill_until(&mut self, until: Instant) -> std::io::Result<bool> {
        loop {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(false);
            }
            match self.fill_for(left) {
                Ok(()) => return Ok(true),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads once without blocking, yielding the CPU when nothing has
    /// arrived (`WouldBlock`).
    fn poll(&mut self) -> std::io::Result<()> {
        self.stream.set_nonblocking(true)?;
        let r = self.fill();
        self.stream.set_nonblocking(false)?;
        if matches!(&r, Err(e) if e.kind() == ErrorKind::WouldBlock) {
            std::thread::yield_now();
        }
        r
    }

    /// Reads once, blocking for `wait` at most (`WouldBlock` or `TimedOut`
    /// when nothing arrived).
    fn fill_for(&mut self, wait: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(wait))?;
        self.fill()
    }

    /// Reads whatever is available into the buffer; errors on EOF.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "daemon closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Pops one complete frame payload off the buffer.
    fn take_frame(&mut self) -> Option<Vec<u8>> {
        let len = u32::from_le_bytes(self.buf.get(..4)?.try_into().ok()?) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Some(payload)
    }
}

/// Limits of one open-loop phase on one connection.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Stop sending once the oldest unanswered request is this late: the
    /// backlog is growing and the rate is not sustainable.
    pub give_up: Duration,
    /// How long after the last due time replies may still arrive;
    /// requests unanswered by then count as failed.
    pub grace: Duration,
    /// Poll the socket between due times (yielding the CPU after every
    /// empty poll) instead of sleeping. On a virtual machine a sleeping
    /// thread leaves its vCPU idle, and waking an idle vCPU is slow and
    /// varies with the host's load, which then dominates sub-millisecond
    /// latencies. Polling keeps the vCPUs awake; it suits workloads whose
    /// requests are short, since a long request shares its core with the
    /// polling thread.
    pub poll: bool,
}

/// Result of one phase on one connection.
pub struct PhaseResult {
    /// Timing of every request sent, in schedule order.
    pub timings: Vec<Timing>,
    /// Requests scheduled but never sent because the phase gave up.
    pub unsent: usize,
    /// Requests still unanswered when the phase ended; their replies
    /// must be drained before the connection is reused.
    pub pending: usize,
    /// Whether the connection broke (every unanswered request failed).
    pub broken: bool,
}

/// Sends `frame(i)` at `start + offsets[i]` and collects replies until
/// every request is answered or the deadline passes. `on_reply` gets the
/// request's index, the raw reply payload and when it arrived.
pub fn run_phase(
    conn: &mut Conn,
    start: Instant,
    offsets: &[Duration],
    frame: &dyn Fn(usize) -> Vec<u8>,
    limits: Limits,
    on_reply: &mut dyn FnMut(usize, &[u8], Instant),
) -> PhaseResult {
    let deadline = start + offsets.last().copied().unwrap_or_default() + limits.grace;
    let mut timings: Vec<Timing> = Vec::with_capacity(offsets.len());
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut gave_up = false;
    let mut broken = false;
    loop {
        let now = Instant::now();
        if !gave_up {
            if let Some(&oldest) = inflight.front() {
                if now.saturating_duration_since(timings[oldest].due) > limits.give_up {
                    gave_up = true;
                }
            }
        }
        while !gave_up && next < offsets.len() && start + offsets[next] <= now {
            let due = start + offsets[next];
            if write_frame(&mut conn.stream, &frame(next)).is_err() {
                broken = true;
                break;
            }
            timings.push(Timing { due, sent: Instant::now(), done: None });
            inflight.push_back(next);
            next += 1;
        }
        if broken {
            break;
        }
        let sending = !gave_up && next < offsets.len();
        if !sending && inflight.is_empty() {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let wake = if sending { (start + offsets[next]).min(deadline) } else { deadline };
        let wait = wake.saturating_duration_since(now).max(Duration::from_micros(50));
        if inflight.is_empty() {
            if limits.poll {
                std::thread::yield_now();
            } else {
                std::thread::sleep(wait);
            }
            continue;
        }
        let read = if limits.poll { conn.poll() } else { conn.fill_for(wait) };
        match read {
            Ok(()) => {
                let at = Instant::now();
                while let Some(payload) = conn.take_frame() {
                    let Some(idx) = inflight.pop_front() else {
                        broken = true; // a reply nobody asked for
                        break;
                    };
                    timings[idx].done = Some(at);
                    on_reply(idx, &payload, at);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => {
                broken = true;
                break;
            }
        }
    }
    PhaseResult { timings, unsent: offsets.len() - next, pending: inflight.len(), broken }
}

/// What a closed-loop phase on one connection produced.
pub struct Closed {
    /// Replies received.
    pub done: usize,
    /// Requests still unanswered when the deadline passed; they count as
    /// failed and must be drained before the connection is reused.
    pub pending: usize,
}

/// Closed loop: keeps `depth` requests outstanding on the connection,
/// sending request `i` (`frame(i)`, until it returns `None`) as an earlier
/// one is answered, until `until`; then collects the replies still
/// outstanding until `until + grace` at most.
pub fn run_closed(
    conn: &mut Conn,
    frame: &mut dyn FnMut(usize) -> Option<Vec<u8>>,
    depth: usize,
    until: Instant,
    grace: Duration,
    on_reply: &mut dyn FnMut(usize, &[u8], Instant),
) -> std::io::Result<Closed> {
    let deadline = until + grace;
    let mut sent = 0usize;
    let mut done = 0usize;
    while sent < depth {
        let Some(f) = frame(sent) else { break };
        write_frame(&mut conn.stream, &f)?;
        sent += 1;
    }
    while done < sent && conn.fill_until(deadline)? {
        let at = Instant::now();
        while let Some(payload) = conn.take_frame() {
            on_reply(done, &payload, at);
            done += 1;
            if at < until {
                if let Some(f) = frame(sent) {
                    write_frame(&mut conn.stream, &f)?;
                    sent += 1;
                }
            }
        }
    }
    Ok(Closed { done, pending: sent - done })
}
