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
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The body type of every `/query` response.
const TEXT: &str = "text/plain; charset=utf-8";

/// The status line and headers of a streamed `/query` answer.
const QUERY_OK_HEADER: &str =
    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n";

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
    /// No newline within [`MAX_LINE`] bytes; the buffer holds what was read.
    TooLong,
    /// EOF or an idle read timeout — both just mean "the client is done
    /// with this connection".
    Done,
}

/// Reads one line of at most [`MAX_LINE`] bytes into `buf`.
fn next_line(reader: &mut BufReader<TcpStream>, buf: &mut String) -> io::Result<Line> {
    let mut bytes = std::mem::take(buf).into_bytes();
    bytes.clear();
    match reader.by_ref().take(MAX_LINE + 1).read_until(b'\n', &mut bytes) {
        Ok(0) => Ok(Line::Done),
        Ok(n) if n as u64 > MAX_LINE => {
            *buf = String::from_utf8_lossy(&bytes).into_owned();
            Ok(Line::TooLong)
        }
        Ok(_) => {
            *buf = String::from_utf8(bytes)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            Ok(Line::Read)
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(Line::Done)
        }
        Err(e) => Err(e),
    }
}

impl Server {
    /// Serves one connection to completion; `Ok(true)` means shutdown was
    /// requested.
    pub(super) fn handle(&self, mut stream: TcpStream) -> io::Result<bool> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut line = String::new();
        loop {
            match next_line(&mut reader, &mut line)? {
                Line::Read => {}
                Line::Done => return Ok(false),
                Line::TooLong => {
                    self.obs.metrics.inc(names::SERVE_REQUESTS);
                    self.obs.metrics.inc(names::SERVE_ERRORS);
                    let reply = if starts_like_http(&line) {
                        framed_response("414 URI Too Long", TEXT, "request line too long\n", false)
                    } else {
                        "ERR line too long\n".to_string()
                    };
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
                        Line::TooLong => {
                            self.obs.metrics.inc(names::SERVE_ERRORS);
                            let reply = framed_response(
                                "431 Request Header Fields Too Large",
                                TEXT,
                                "header line too long\n",
                                false,
                            );
                            stream.write_all(reply.as_bytes())?;
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
                    self.handle_query_http(&mut stream, &query_string, tenant_header)?;
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
                let reply = self.handle_line(&first);
                stream.write_all(reply.as_bytes())?;
            }
        }
    }

    /// The line protocol: `ping`, `why`, or `query <attrs,csv> <condition>`.
    fn handle_line(&self, line: &str) -> String {
        let line = line.trim();
        if line == "ping" {
            return "pong\n".to_string();
        }
        if line == "why" {
            return self.federation.explain_why();
        }
        if let Some(rest) = line.strip_prefix("query ") {
            let Some((attrs, cond)) = rest.trim().split_once(' ') else {
                return "ERR usage: query <attrs,csv> <condition>\n".to_string();
            };
            let attrs: Vec<String> = attrs.split(',').map(|s| s.trim().to_string()).collect();
            let tenant = sanitize_tenant(None);
            let mut body = String::new();
            return match self.serve_query_streamed(cond, &attrs, None, &tenant, &mut |chunk| {
                body.push_str(chunk);
                true
            }) {
                Ok(trailer) => format!("OK\n{body}{trailer}"),
                Err(e) => format!("ERR {}", e.body),
            };
        }
        self.obs.metrics.inc(names::SERVE_ERRORS);
        "ERR unknown command (try: ping | why | query <attrs,csv> <condition>)\n".to_string()
    }

    /// Serves `/query` with an incremental response: the 200 header goes
    /// out with the first row batch (no `Content-Length` —
    /// read-until-close framing) and the summary is a trailer line. Errors
    /// before the first byte still get a proper status (`400`, or `429`
    /// when admission shed the query); a failure mid-stream is appended as
    /// an `ERR` line (the status is already on the wire).
    ///
    /// The response is built in one buffer: the header and the first batch
    /// leave in one write (time to first row), then a write happens each
    /// time [`QUERY_FLUSH_BYTES`] have accumulated, and the last write
    /// carries the trailer or the `ERR` line. A failed write stops the run
    /// at that flush.
    fn handle_query_http(
        &self,
        stream: &mut TcpStream,
        query_string: &str,
        tenant_header: Option<String>,
    ) -> io::Result<()> {
        let respond_err = |stream: &mut TcpStream, status: &str, body: &str| {
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
        let mut out = String::new();
        let mut wrote_header = false;
        let mut io_err: Option<io::Error> = None;
        let outcome = {
            let sink = &mut |chunk: &str| {
                let first = !wrote_header;
                if first {
                    out.push_str(QUERY_OK_HEADER);
                    wrote_header = true;
                }
                out.push_str(chunk);
                if !first && out.len() < QUERY_FLUSH_BYTES {
                    return true;
                }
                let written = stream.write_all(out.as_bytes());
                out.clear();
                match written {
                    Ok(()) => true,
                    Err(e) => {
                        io_err = Some(e);
                        false
                    }
                }
            };
            self.serve_query_streamed(&cond, &attrs, limit, &tenant, sink)
        };
        if let Some(e) = io_err {
            return Err(e);
        }
        match outcome {
            Ok(trailer) => {
                if !wrote_header {
                    // Empty result: nothing streamed yet, the trailer is
                    // the whole body.
                    out.push_str(QUERY_OK_HEADER);
                }
                out.push_str(&trailer);
                stream.write_all(out.as_bytes())
            }
            Err(QueryError { status, body }) => {
                if wrote_header {
                    out.push_str("ERR ");
                    out.push_str(&body);
                    stream.write_all(out.as_bytes())
                } else {
                    respond_err(stream, status, &body)
                }
            }
        }
    }
}
