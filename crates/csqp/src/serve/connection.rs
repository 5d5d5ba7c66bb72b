//! Per-connection protocol handling: one accepted TCP stream carries HTTP
//! requests (routed or streamed) or bare line-protocol commands.
//!
//! Connections are **persistent**: framed HTTP responses answer with
//! `Connection: keep-alive` (HTTP/1.1 default semantics; HTTP/1.0 clients
//! must opt in) and the handler loops for the next request, and the line
//! protocol answers every line until the client closes — so a client can
//! pipeline requests without reconnecting. `/query` responses stream
//! unframed (read-until-close) and therefore always close the connection,
//! exactly as before.

use super::admission::sanitize_tenant;
use super::http::{http_request_target, percent_decode, query_param, starts_like_http};
use super::state::QueryError;
use super::Server;
use csqp_obs::names;
use csqp_relation::TupleBatch;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The body type of every `/query` response.
const TEXT: &str = "text/plain; charset=utf-8";

/// The status line and headers of a streamed `/query` answer.
const QUERY_OK_HEADER: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n";

/// A streamed answer goes to the socket once this many bytes of rows have
/// accumulated (and at the first batch, and at the end).
const QUERY_FLUSH_BYTES: usize = 32 * 1024;

/// A complete framed response — status line, headers and body — as one
/// buffer, so it leaves in one write.
fn framed_response(status: &str, ctype: &str, body: &str, keep_alive: bool) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )
}

/// The longest request, header or command line read, newline included. A
/// peer that sends more without a newline gets an error and the
/// connection closes, so the read buffer never outgrows this.
const MAX_LINE: u64 = 8 * 1024;

/// What [`next_line`] found.
enum Line {
    /// A line of at most [`MAX_LINE`] bytes.
    Read,
    /// No newline within [`MAX_LINE`] bytes; the buffer holds what was
    /// read, with invalid UTF-8 replaced.
    TooLong,
    /// A line that is not UTF-8; the buffer holds it with the invalid
    /// bytes replaced.
    NotUtf8,
    /// EOF or an idle read timeout — both just mean "the client is done
    /// with this connection".
    Done,
}

/// Reads one line of at most [`MAX_LINE`] bytes into `buf`.
fn next_line(reader: &mut BufReader<&TcpStream>, buf: &mut String) -> io::Result<Line> {
    let mut bytes = std::mem::take(buf).into_bytes();
    bytes.clear();
    match reader.by_ref().take(MAX_LINE + 1).read_until(b'\n', &mut bytes) {
        Ok(0) => Ok(Line::Done),
        Ok(n) => {
            let (text, utf8) = match String::from_utf8(bytes) {
                Ok(s) => (s, true),
                Err(e) => (String::from_utf8_lossy(e.as_bytes()).into_owned(), false),
            };
            *buf = text;
            Ok(match (n as u64 > MAX_LINE, utf8) {
                (true, _) => Line::TooLong,
                (false, false) => Line::NotUtf8,
                (false, true) => Line::Read,
            })
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(Line::Done)
        }
        Err(e) => Err(e),
    }
}

/// The reply to a line [`next_line`] refused, after which the connection
/// closes: to an HTTP request line (`http`) or header (`header`), `414` /
/// `431` when it is too long and `400` when it is not UTF-8; on the line
/// protocol, an `ERR` line.
fn refusal(bad: &Line, http: bool, header: bool) -> String {
    let too_long = matches!(bad, Line::TooLong);
    let (status, body) = match (header, too_long) {
        (false, true) => ("414 URI Too Long", "request line too long\n"),
        (true, true) => ("431 Request Header Fields Too Large", "header line too long\n"),
        (false, false) => ("400 Bad Request", "request line is not UTF-8\n"),
        (true, false) => ("400 Bad Request", "header line is not UTF-8\n"),
    };
    match (http, too_long) {
        (true, _) => framed_response(status, TEXT, body, false),
        (false, true) => "ERR line too long\n".to_string(),
        (false, false) => "ERR line is not UTF-8\n".to_string(),
    }
}

impl Server {
    /// Serves one connection to completion; `Ok(true)` means shutdown was
    /// requested. Reads and writes share the one socket (no `dup`).
    /// `TCP_NODELAY`: every response leaves in deliberate writes, so Nagle
    /// could only delay a last small segment until the peer's ACK.
    pub(super) fn handle(&self, mut stream: &TcpStream) -> io::Result<bool> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        // The flight of this connection's last line-protocol query: `why`
        // explains it, not whichever query another worker planned last.
        let mut last_flight = None;
        loop {
            match next_line(&mut reader, &mut line)? {
                Line::Read => {}
                Line::Done => return Ok(false),
                bad @ (Line::TooLong | Line::NotUtf8) => {
                    self.obs.metrics.inc(names::SERVE_REQUESTS);
                    self.obs.metrics.inc(names::SERVE_ERRORS);
                    let reply = refusal(&bad, starts_like_http(&line), false);
                    stream.write_all(reply.as_bytes())?;
                    return Ok(false);
                }
            }
            let first = line.trim_end().to_string();
            if first.is_empty() {
                // Stray blank line between pipelined requests: tolerate.
                continue;
            }
            self.obs.metrics.inc(names::SERVE_REQUESTS);
            if let Some(target) = http_request_target(&first) {
                let target = target.to_string();
                // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; a
                // `Connection` header overrides either way.
                let mut keep_alive = first.ends_with("HTTP/1.1");
                // Drain the request headers, keeping the two we understand.
                let mut tenant_header: Option<String> = None;
                let mut hdr = String::new();
                loop {
                    match next_line(&mut reader, &mut hdr)? {
                        Line::Read if !hdr.trim_end().is_empty() => {}
                        Line::Read | Line::Done => break,
                        bad @ (Line::TooLong | Line::NotUtf8) => {
                            self.obs.metrics.inc(names::SERVE_ERRORS);
                            stream.write_all(refusal(&bad, true, true).as_bytes())?;
                            return Ok(false);
                        }
                    }
                    if let Some((name, value)) = hdr.trim_end().split_once(':') {
                        let value = value.trim();
                        if name.eq_ignore_ascii_case("x-tenant") {
                            tenant_header = Some(value.to_string());
                        } else if name.eq_ignore_ascii_case("connection") {
                            keep_alive = value.eq_ignore_ascii_case("keep-alive");
                        }
                    }
                }
                let (path, query_string) = match target.split_once('?') {
                    Some((p, q)) => (p, q.to_string()),
                    None => (target.as_str(), String::new()),
                };
                if path == "/query" {
                    // Streamed response: rows leave as batches arrive, with
                    // no Content-Length — the connection must close to
                    // frame the body.
                    self.handle_query_http(stream, &query_string, tenant_header)?;
                    return Ok(false);
                }
                let (status, ctype, body, shutdown) = self.route(&target);
                let keep = keep_alive && !shutdown;
                stream.write_all(framed_response(status, ctype, &body, keep).as_bytes())?;
                if shutdown {
                    return Ok(true);
                }
                if !keep {
                    return Ok(false);
                }
            } else {
                // Line protocol: answer and keep reading — a client can
                // pipeline `ping` / `query …` lines on one connection.
                let reply = self.handle_line(&first, &mut last_flight);
                stream.write_all(&reply)?;
            }
        }
    }

    /// The line protocol: `ping`, `why`, or `query <attrs,csv> <condition>`.
    /// `why` explains the connection's last query, whose id `flight` keeps.
    /// The reply is bytes: a query's rows render straight into it.
    fn handle_line(&self, line: &str, flight: &mut Option<u64>) -> Vec<u8> {
        let line = line.trim();
        if line == "ping" {
            return b"pong\n".to_vec();
        }
        if line == "why" {
            let record = flight.and_then(|id| self.flight.record(id));
            return csqp_plan::why::explain_why(record.as_ref()).into_bytes();
        }
        if let Some(rest) = line.strip_prefix("query ") {
            let Some((attrs, cond)) = rest.trim().split_once(' ') else {
                return b"ERR usage: query <attrs,csv> <condition>\n".to_vec();
            };
            let attrs: Vec<String> = attrs.split(',').map(|s| s.trim().to_string()).collect();
            let tenant = sanitize_tenant(None);
            let mut body = b"OK\n".to_vec();
            return match self.serve_query_streamed(cond, &attrs, None, &tenant, flight, &mut |b| {
                b.write_rows(&mut body);
                true
            }) {
                Ok(trailer) => {
                    body.extend_from_slice(trailer.as_bytes());
                    body
                }
                Err(e) => format!("ERR {}", e.body).into_bytes(),
            };
        }
        self.obs.metrics.inc(names::SERVE_ERRORS);
        b"ERR unknown command (try: ping | why | query <attrs,csv> <condition>)\n".to_vec()
    }

    /// Serves `/query` with an incremental response: the 200 header goes
    /// out with the first row batch (no `Content-Length` —
    /// read-until-close framing) and the summary is a trailer line. Errors
    /// before the first byte still get a proper status (`400`, or `429`
    /// when admission shed the query); a failure mid-stream is appended as
    /// an `ERR` line (the status is already on the wire).
    ///
    /// The response is built in one buffer that rows render straight
    /// into: the header and the first batch leave in one write (time to
    /// first row), the worker yields its core once if a second batch
    /// follows, then a write happens each time [`QUERY_FLUSH_BYTES`]
    /// have accumulated, and the last write carries the trailer or the
    /// `ERR` line. A failed write stops the run at that flush.
    fn handle_query_http(
        &self,
        mut stream: &TcpStream,
        query_string: &str,
        tenant_header: Option<String>,
    ) -> io::Result<()> {
        let respond_err = |mut stream: &TcpStream, status: &str, body: &str| {
            stream.write_all(framed_response(status, TEXT, body, false).as_bytes())
        };
        // The tenant rides in on the `tenant=` query param (which wins) or
        // the `X-Tenant` header; anonymous traffic pools under `anon`.
        let tenant = sanitize_tenant(
            query_param(query_string, "tenant")
                .map(|v| percent_decode(&v))
                .or(tenant_header)
                .as_deref(),
        );
        let cond = query_param(query_string, "cond").map(|v| percent_decode(&v));
        let attrs = query_param(query_string, "attrs").map(|v| percent_decode(&v));
        let (cond, attrs) = match (cond, attrs) {
            (Some(c), Some(a)) => (c, a),
            _ => {
                self.obs.metrics.inc(names::SERVE_ERRORS);
                return respond_err(
                    stream,
                    "400 Bad Request",
                    "usage: /query?cond=<urlencoded condition>&attrs=<a,b,c>[&limit=<n>]\
                     [&tenant=<id>]\n",
                );
            }
        };
        let limit = match query_param(query_string, "limit") {
            None => None,
            Some(v) => match v.parse::<u64>() {
                Ok(n) => Some(n),
                Err(_) => {
                    self.obs.metrics.inc(names::SERVE_ERRORS);
                    return respond_err(
                        stream,
                        "400 Bad Request",
                        "limit must be a non-negative integer\n",
                    );
                }
            },
        };
        let attrs: Vec<String> = attrs.split(',').map(|s| s.trim().to_string()).collect();
        let mut out = Vec::new();
        let mut wrote_header = false;
        let mut yielded = false;
        let mut io_err: Option<io::Error> = None;
        let outcome = {
            let sink = &mut |batch: TupleBatch| {
                let first = !wrote_header;
                if first {
                    out.extend_from_slice(QUERY_OK_HEADER);
                    wrote_header = true;
                } else if !yielded {
                    // The answer goes on past the write that carried its
                    // first row, which woke the reader. A reader on this
                    // worker's core would otherwise wait out the worker's
                    // time slice — up to the whole answer's render — for
                    // that row, so give up the core once before going on.
                    std::thread::yield_now();
                    yielded = true;
                }
                batch.write_rows(&mut out);
                if !first && out.len() < QUERY_FLUSH_BYTES {
                    return true;
                }
                let written = stream.write_all(&out);
                out.clear();
                match written {
                    Ok(()) => true,
                    Err(e) => {
                        io_err = Some(e);
                        false
                    }
                }
            };
            self.serve_query_streamed(&cond, &attrs, limit, &tenant, &mut None, sink)
        };
        if let Some(e) = io_err {
            return Err(e);
        }
        match outcome {
            Ok(trailer) => {
                if !wrote_header {
                    // Empty result: nothing streamed yet, the trailer is
                    // the whole body.
                    out.extend_from_slice(QUERY_OK_HEADER);
                }
                out.extend_from_slice(trailer.as_bytes());
                stream.write_all(&out)
            }
            Err(QueryError { status, body }) => {
                if wrote_header {
                    out.extend_from_slice(b"ERR ");
                    out.extend_from_slice(body.as_bytes());
                    stream.write_all(&out)
                } else {
                    respond_err(stream, status, &body)
                }
            }
        }
    }
}
