//! Minimal HTTP/1.x request-line and query-string helpers — the only
//! protocol parsing the serve listener needs, built on `std` alone.

/// The request methods the listener answers over HTTP.
const METHODS: [&str; 3] = ["GET", "POST", "HEAD"];

/// Extracts the request target from an HTTP request line (`GET /x HTTP/1.x`),
/// or `None` when the line is not HTTP (line-protocol fallback).
pub(super) fn http_request_target(line: &str) -> Option<&str> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if METHODS.contains(&method) && version.starts_with("HTTP/") {
        Some(target)
    } else {
        None
    }
}

/// Whether a first line, possibly cut short, opens like an HTTP request: a
/// known method and a space.
pub(super) fn starts_like_http(line: &str) -> bool {
    line.split_once(' ').is_some_and(|(method, _)| METHODS.contains(&method))
}

/// Finds `name=value` in a query string; returns the raw (still encoded)
/// value.
pub(super) fn query_param(query_string: &str, name: &str) -> Option<String> {
    query_string.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| v.to_string())
    })
}

/// Decodes `%XX` escapes and `+`-as-space.
pub(super) fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                        continue;
                    }
                    _ => out.push(b'%'),
                }
            }
            b'+' => out.push(b' '),
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}
