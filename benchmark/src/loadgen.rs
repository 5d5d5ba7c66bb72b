//! The load generator: one verified HTTP request per connection, driven in
//! a closed loop (a client sends when its previous request completed) or an
//! open loop (requests are due on a fixed schedule and timed from their due
//! time, so a stall is charged to every request it delays).

use crate::host;
use crate::verify::{Failure, ResponseCheck};
use crate::workloads::{Load, Request};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Generator threads (and so the most connections in flight): the box has
/// two processors, and the load shape is part of the benchmark.
pub const GENERATORS: usize = 2;

/// A response not finished after this long is a failure, not a sample.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What happened to one request. Times are microseconds after the request's
/// start: the moment before `connect` in a closed loop, its due time in an
/// open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index of the request in the corpus.
    pub request: usize,
    /// The instant the offsets below count from.
    pub start: Instant,
    /// `None` when the response was complete and correct.
    pub failure: Option<Failure>,
    /// How late the generator started the request (open loop; 0 in a
    /// closed loop).
    pub lag_us: u64,
    /// Connection established.
    pub connected_us: u64,
    /// Request written.
    pub sent_us: u64,
    /// First body byte after the response header (time to first row).
    pub first_byte_us: u64,
    /// Last byte: the peer closed the connection.
    pub done_us: u64,
    /// Verified answer rows.
    pub rows: u64,
    /// Bytes read off the socket, header included.
    pub bytes: u64,
    /// Bytes of the `N rows (…)` trailer line.
    pub trailer_bytes: u64,
}

/// Sends `req` on a fresh connection and verifies the response as it
/// arrives. `start` is the instant latencies count from. There is no retry
/// of any kind: a refused connect is a failed request.
pub fn send(addr: SocketAddr, index: usize, req: &Request, start: Instant) -> Sample {
    let us = |t: Instant| t.saturating_duration_since(start).as_micros() as u64;
    let mut s = Sample {
        request: index,
        start,
        failure: Some(Failure::Io),
        lag_us: us(Instant::now()),
        connected_us: 0,
        sent_us: 0,
        first_byte_us: 0,
        done_us: 0,
        rows: 0,
        bytes: 0,
        trailer_bytes: 0,
    };
    let mut check = ResponseCheck::new(&req.expect);
    let io = (|| -> std::io::Result<()> {
        let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        s.connected_us = us(Instant::now());
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let head = format!("GET {} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n", req.path);
        stream.write_all(head.as_bytes())?;
        s.sent_us = us(Instant::now());
        let mut buf = [0u8; 64 * 1024];
        loop {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            s.bytes += n as u64;
            check.feed(&buf[..n]);
            if s.first_byte_us == 0 && check.body_started() {
                s.first_byte_us = us(Instant::now());
            }
        }
    })();
    s.done_us = us(Instant::now());
    if io.is_ok() {
        match check.finish() {
            Ok(v) => {
                s.failure = None;
                s.rows = v.rows;
                s.trailer_bytes = v.trailer_bytes;
            }
            Err(f) => s.failure = Some(f),
        }
    }
    s
}

/// One measured interval.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall time from the first request's start until the last response
    /// ended.
    pub wall_s: f64,
    pub samples: Vec<Sample>,
    /// CPU the generator threads used (theirs to subtract, and to report).
    pub generator_cpu_s: f64,
    /// CPU the whole process used, generators included.
    pub process_cpu_s: f64,
    /// Machine-wide steal over the interval, percent.
    pub steal_pct: f64,
}

impl Round {
    pub fn ok(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.failure.is_none())
    }

    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.failure.is_some()).count()
    }
}

/// Where in the corpus the next request comes from. Shared by the generator
/// threads and kept across rounds, so the corpus is walked in order however
/// the threads interleave — `plan_cold`'s "never asked again before it was
/// evicted" depends on that order.
#[derive(Debug, Default)]
pub struct Cursor(AtomicUsize);

impl Cursor {
    fn next(&self, len: usize) -> usize {
        self.0.fetch_add(1, Ordering::Relaxed) % len
    }
}

/// When to stop a round.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// Measure for this long.
    Elapsed(Duration),
    /// Send this many requests (the warm-up pass, the traced run).
    Requests(usize),
}

/// Drives `corpus` at `addr` under `load` and returns every sample.
pub fn run_round(
    addr: SocketAddr,
    corpus: &[Request],
    load: Load,
    until: Until,
    cursor: &Cursor,
) -> Round {
    let (clients, gap) = match load {
        Load::Closed { clients } => (clients, None),
        Load::Open { rate } => (GENERATORS, Some(Duration::from_secs_f64(1.0 / rate))),
    };
    // Slots claimed so far: the i-th request of the round, whichever thread
    // takes it. In an open loop slot i is due at start + i × gap.
    let slot = AtomicUsize::new(0);
    let ticks0 = host::cpu_ticks();
    let cpu0 = host::process_cpu_s();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut generator_cpu_s = 0.0;
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let cpu0 = host::thread_cpu_s();
                    let mut mine = Vec::new();
                    loop {
                        let i = slot.fetch_add(1, Ordering::Relaxed);
                        let due = gap.map(|g| start + g.mul_f64(i as f64));
                        let stop = match until {
                            Until::Requests(n) => i >= n,
                            Until::Elapsed(d) => due.unwrap_or_else(Instant::now) >= start + d,
                        };
                        if stop {
                            break;
                        }
                        if let Some(due) = due {
                            std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        }
                        let index = cursor.next(corpus.len());
                        mine.push(send(
                            addr,
                            index,
                            &corpus[index],
                            due.unwrap_or_else(Instant::now),
                        ));
                    }
                    (mine, host::thread_cpu_s() - cpu0)
                })
            })
            .collect();
        for t in threads {
            let (mine, cpu) = t.join().expect("generator thread");
            samples.extend(mine);
            generator_cpu_s += cpu;
        }
    });
    Round {
        wall_s: start.elapsed().as_secs_f64(),
        samples,
        generator_cpu_s,
        process_cpu_s: host::process_cpu_s() - cpu0,
        steal_pct: host::steal_pct(ticks0, host::cpu_ticks()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::Expect;
    use crate::workloads::Spec;
    use std::io::BufRead;
    use std::net::TcpListener;

    /// A one-thread HTTP stub that answers every connection with a small
    /// page, stalling once for `stall` before answering connection number
    /// `stall_at`.
    fn stub(
        stall_at: usize,
        stall: Duration,
        connections: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for i in 0..connections {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                stream
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n",
                    )
                    .unwrap();
            }
        });
        (addr, handle)
    }

    fn page() -> Vec<Request> {
        vec![Request {
            spec: Spec::Page("/healthz"),
            path: "/healthz".into(),
            expect: Expect::Page,
        }]
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_it_delays() {
        // 20 requests due 10 ms apart on one serial server that stalls for
        // 100 ms on the fifth: the requests due during the stall wait in
        // line, and their latency — counted from when they were due — must
        // show it, even though each is answered at once when its turn comes.
        let n = 20;
        let (addr, server) = stub(4, Duration::from_millis(100), n);
        let round = run_round(
            addr,
            &page(),
            Load::Open { rate: 100.0 },
            Until::Requests(n),
            &Cursor::default(),
        );
        server.join().unwrap();
        assert_eq!(round.samples.len(), n);
        assert_eq!(round.failed(), 0);
        let slow = round.samples.iter().filter(|s| s.done_us >= 50_000).count();
        // The stalled request plus the ones queued behind it: with a 10 ms
        // gap and two generator threads, at least four more were due before
        // the stall ended.
        assert!(slow >= 4, "only {slow} requests saw the 100 ms stall");
        assert!(slow < n, "requests before the stall are unaffected");
        // Time spent in the stub after the request was really sent is short
        // for all but the stalled one: the wait is queueing, not service.
        let served_slow = round.samples.iter().filter(|s| s.done_us - s.lag_us >= 50_000).count();
        assert!(served_slow <= 2, "{served_slow} requests were slow from their own start");
        assert!(
            round.samples.iter().any(|s| s.lag_us >= 20_000),
            "the generator ran late and said so"
        );
    }

    #[test]
    fn closed_loop_walks_the_corpus_in_order_and_counts_refusals_as_failed() {
        let (addr, server) = stub(usize::MAX, Duration::ZERO, 6);
        let corpus: Vec<Request> = (0..3).flat_map(|_| page()).collect();
        let cursor = Cursor::default();
        let round =
            run_round(addr, &corpus, Load::Closed { clients: 2 }, Until::Requests(6), &cursor);
        server.join().unwrap();
        let mut seen: Vec<usize> = round.samples.iter().map(|s| s.request).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 0, 1, 1, 2, 2]);
        assert!(round
            .ok()
            .all(|s| s.first_byte_us > 0 && s.first_byte_us <= s.done_us && s.bytes > 3));
        // The stub is gone: connects are refused, nothing retries them.
        let round =
            run_round(addr, &corpus, Load::Closed { clients: 2 }, Until::Requests(4), &cursor);
        assert_eq!((round.samples.len(), round.failed()), (4, 4));
        assert!(round.samples.iter().all(|s| s.failure == Some(Failure::Io)));
    }
}
