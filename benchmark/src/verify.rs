//! Answer verification that does not go through the planner.
//!
//! At set-up the expected answer of every corpus request is computed with
//! the relational operators directly over the domain's relation
//! (`select` → `project`, which deduplicates) and kept as an
//! order-independent digest. The client feeds every response through a
//! [`ResponseCheck`] as the bytes arrive; anything but a complete, correct
//! `200` is a [`Failure`].

use csqp::expr::parse::parse_condition;
use csqp::relation::{ops, Relation};
use std::collections::HashSet;
use std::sync::Arc;

/// 64-bit FNV-1a with a final avalanche, over one body line.
pub fn line_hash(line: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in line {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// Order-independent digest of a multiset of lines: a dropped or duplicated
/// row changes `count` (and `sum`), an altered one changes `sum` and `xor`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn add(&mut self, line: &[u8]) {
        let h = line_hash(line);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }
}

/// What a correct response to one request looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `/query` without a limit: exactly these rows, in any order.
    Rows(Digest),
    /// `/query?limit=n`: distinct rows out of `rows`, `min(n, |rows|)` of
    /// them.
    Limit { n: u64, rows: Arc<HashSet<u64>> },
    /// A telemetry page: `200`, framed by `Content-Length`, not empty.
    Page,
}

/// The expected rows of `cond`/`attrs` over `relation`, rendered the way
/// the server renders a row (`Row`'s `Display`), one line each.
pub fn expected_lines(relation: &Relation, cond: &str, attrs: &[&str]) -> Vec<String> {
    let cond = parse_condition(cond).expect("corpus condition parses");
    let answer = ops::project(&ops::select(relation, Some(&cond)), attrs)
        .expect("corpus attributes exist in the relation");
    answer.rows().map(|row| row.to_string()).collect()
}

/// Builds the [`Expect`] for a query request.
pub fn expect_query(relation: &Relation, cond: &str, attrs: &[&str], limit: Option<u64>) -> Expect {
    let lines = expected_lines(relation, cond, attrs);
    match limit {
        None => {
            let mut d = Digest::default();
            lines.iter().for_each(|l| d.add(l.as_bytes()));
            Expect::Rows(d)
        }
        Some(n) => Expect::Limit {
            n,
            rows: Arc::new(lines.iter().map(|l| line_hash(l.as_bytes())).collect()),
        },
    }
}

/// Why a request counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Connect, write or read error (a reset, a timeout).
    Io,
    /// Any status but `200` — a `400`, a shed `429`.
    Status(u16),
    /// The header or body ended early: no trailer line, an unterminated
    /// line, fewer bytes than `Content-Length`, an `ERR` line mid-stream.
    Truncated,
    /// A complete `200` whose rows are not the expected ones.
    WrongAnswer,
}

/// A verified response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verified {
    /// Answer rows delivered (0 for a telemetry page).
    pub rows: u64,
    /// Bytes of the `N rows (…)` trailer line (0 for a page).
    pub trailer_bytes: u64,
}

/// Incremental checker for one HTTP response read until close.
#[derive(Debug)]
pub struct ResponseCheck<'a> {
    expect: &'a Expect,
    head: Vec<u8>,
    status: Option<u16>,
    content_length: Option<u64>,
    body_bytes: u64,
    /// The unterminated tail of the body seen so far.
    partial: Vec<u8>,
    digest: Digest,
    limit_seen: Vec<u64>,
    unknown_row: bool,
    /// Rows the trailer line claims, once it arrived.
    trailer: Option<(u64, u64)>,
    /// A body line that is neither a row nor the trailer, or a line after
    /// the trailer.
    malformed: bool,
}

impl<'a> ResponseCheck<'a> {
    pub fn new(expect: &'a Expect) -> Self {
        ResponseCheck {
            expect,
            head: Vec::new(),
            status: None,
            content_length: None,
            body_bytes: 0,
            partial: Vec::new(),
            digest: Digest::default(),
            limit_seen: Vec::new(),
            unknown_row: false,
            trailer: None,
            malformed: false,
        }
    }

    /// Has the first body byte (the first byte after the header) arrived?
    pub fn body_started(&self) -> bool {
        self.body_bytes > 0
    }

    /// Feeds the next bytes off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.status.is_some() {
            return self.body(bytes);
        }
        self.head.extend_from_slice(bytes);
        let Some(end) = self.head.windows(4).position(|w| w == b"\r\n\r\n") else { return };
        let head = String::from_utf8_lossy(&self.head[..end]).into_owned();
        let mut lines = head.split("\r\n");
        // An unparsable status line reads as status 0: failed, like any
        // other non-200.
        let status = lines.next().and_then(|l| l.split(' ').nth(1)).and_then(|c| c.parse().ok());
        self.status = Some(status.unwrap_or(0));
        self.content_length = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok());
        let rest = self.head.split_off(end + 4);
        self.body(&rest);
    }

    fn body(&mut self, bytes: &[u8]) {
        self.body_bytes += bytes.len() as u64;
        if matches!(self.expect, Expect::Page) || self.status != Some(200) {
            return;
        }
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (line, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if self.partial.is_empty() {
                self.line(line);
            } else {
                self.partial.extend_from_slice(line);
                let whole = std::mem::take(&mut self.partial);
                self.line(&whole);
            }
        }
        self.partial.extend_from_slice(rest);
    }

    fn line(&mut self, line: &[u8]) {
        if self.trailer.is_some() {
            self.malformed = true;
        } else if line.first() == Some(&b'(') {
            match self.expect {
                Expect::Rows(_) => self.digest.add(line),
                Expect::Limit { rows, .. } => {
                    let h = line_hash(line);
                    self.unknown_row |= !rows.contains(&h);
                    self.limit_seen.push(h);
                }
                Expect::Page => {}
            }
        } else if let Some(n) = std::str::from_utf8(line)
            .ok()
            .and_then(|l| l.split_once(" rows ("))
            .and_then(|(n, _)| n.parse::<u64>().ok())
        {
            self.trailer = Some((n, line.len() as u64 + 1));
        } else {
            self.malformed = true;
        }
    }

    /// The verdict once the peer closed the connection.
    pub fn finish(mut self) -> Result<Verified, Failure> {
        let Some(status) = self.status else { return Err(Failure::Truncated) };
        if status != 200 {
            return Err(Failure::Status(status));
        }
        if let Expect::Page = self.expect {
            return match self.content_length {
                Some(n) if n > 0 && n == self.body_bytes => {
                    Ok(Verified { rows: 0, trailer_bytes: 0 })
                }
                _ => Err(Failure::Truncated),
            };
        }
        let (Some((claimed, trailer_bytes)), true, false) =
            (self.trailer, self.partial.is_empty(), self.malformed)
        else {
            return Err(Failure::Truncated);
        };
        let rows = match self.expect {
            Expect::Rows(want) => {
                if self.digest != *want {
                    return Err(Failure::WrongAnswer);
                }
                want.count
            }
            Expect::Limit { n, rows } => {
                let got = self.limit_seen.len() as u64;
                self.limit_seen.sort_unstable();
                self.limit_seen.dedup();
                let distinct = self.limit_seen.len() as u64 == got;
                if self.unknown_row || !distinct || got != (*n).min(rows.len() as u64) {
                    return Err(Failure::WrongAnswer);
                }
                got
            }
            Expect::Page => unreachable!("pages returned above"),
        };
        if claimed != rows {
            return Err(Failure::WrongAnswer);
        }
        Ok(Verified { rows, trailer_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp::relation::datagen;

    const HEAD: &str = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nConnection: close\r\n\r\n";

    fn check(expect: &Expect, response: &str, chunk: usize) -> Result<Verified, Failure> {
        let mut c = ResponseCheck::new(expect);
        for part in response.as_bytes().chunks(chunk) {
            c.feed(part);
        }
        c.finish()
    }

    fn fixture() -> (Vec<String>, Expect) {
        let rel = datagen::cars(3, 400);
        let cond = "make = \"BMW\" ^ price < 60000";
        let lines = expected_lines(&rel, cond, &["model", "year"]);
        assert!(lines.len() > 5, "fixture answer is not trivial");
        (lines, expect_query(&rel, cond, &["model", "year"], None))
    }

    fn response(lines: &[String], claimed: usize) -> String {
        let mut s = String::from(HEAD);
        for l in lines {
            s.push_str(l);
            s.push('\n');
        }
        s.push_str(&format!("{claimed} rows (est cost 1.00, flight #1)\n"));
        s
    }

    #[test]
    fn accepts_the_expected_rows_in_any_order_and_any_chunking() {
        let (mut lines, expect) = fixture();
        let ok = response(&lines, lines.len());
        for chunk in [1, 7, 64, 1 << 20] {
            let v = check(&expect, &ok, chunk).unwrap();
            assert_eq!(v.rows, lines.len() as u64);
            assert_eq!(v.trailer_bytes, ok.lines().last().unwrap().len() as u64 + 1);
        }
        lines.reverse();
        assert!(check(&expect, &response(&lines, lines.len()), 13).is_ok());
    }

    #[test]
    fn rejects_a_dropped_a_duplicated_and_an_altered_row() {
        let (lines, expect) = fixture();
        let dropped = &lines[1..];
        assert_eq!(
            check(&expect, &response(dropped, dropped.len()), 50),
            Err(Failure::WrongAnswer)
        );
        let mut dup = lines.clone();
        dup.push(lines[0].clone());
        assert_eq!(check(&expect, &response(&dup, dup.len()), 50), Err(Failure::WrongAnswer));
        // Duplicate one row and drop another: the count alone cannot tell.
        let mut swapped = lines.clone();
        swapped[1] = lines[0].clone();
        assert_eq!(check(&expect, &response(&swapped, lines.len()), 50), Err(Failure::WrongAnswer));
        let mut altered = lines.clone();
        altered[2] = altered[2].replace("year=19", "year=20");
        assert_ne!(altered[2], lines[2]);
        assert_eq!(check(&expect, &response(&altered, lines.len()), 50), Err(Failure::WrongAnswer));
        // Right rows, lying trailer.
        assert_eq!(
            check(&expect, &response(&lines, lines.len() + 1), 50),
            Err(Failure::WrongAnswer)
        );
    }

    #[test]
    fn error_statuses_and_short_reads_count_as_failed() {
        let (lines, expect) = fixture();
        let bad = "HTTP/1.1 400 Bad Request\r\nContent-Length: 4\r\n\r\nnope";
        assert_eq!(check(&expect, bad, 9), Err(Failure::Status(400)));
        let shed = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 5\r\n\r\nlater";
        assert_eq!(check(&expect, shed, 9), Err(Failure::Status(429)));
        assert_eq!(check(&Expect::Page, shed, 9), Err(Failure::Status(429)));
        let full = response(&lines, lines.len());
        // Cut inside the header, inside a row, and just before the trailer.
        let before_trailer = full.rfind(&format!("{} rows", lines.len())).unwrap();
        for cut in [10, HEAD.len() + 5, before_trailer, full.len() - 1] {
            assert_eq!(check(&expect, &full[..cut], 11), Err(Failure::Truncated), "cut at {cut}");
        }
        assert_eq!(check(&expect, "", 1), Err(Failure::Truncated));
        // A failure after the header is on the wire arrives as an ERR line.
        let mid = format!("{HEAD}{}\nERR execution failed: boom\n", lines[0]);
        assert_eq!(check(&expect, &mid, 11), Err(Failure::Truncated));
    }

    #[test]
    fn limit_answers_must_be_a_distinct_subset_of_the_right_size() {
        let rel = datagen::cars(3, 400);
        let cond = "make = \"BMW\" ^ price < 60000";
        let lines = expected_lines(&rel, cond, &["model", "year"]);
        let expect = expect_query(&rel, cond, &["model", "year"], Some(5));
        assert_eq!(check(&expect, &response(&lines[3..8], 5), 17).unwrap().rows, 5);
        assert_eq!(check(&expect, &response(&lines[..4], 4), 17), Err(Failure::WrongAnswer));
        assert_eq!(check(&expect, &response(&lines[..6], 6), 17), Err(Failure::WrongAnswer));
        let mut dup = lines[..5].to_vec();
        dup[4] = dup[0].clone();
        assert_eq!(check(&expect, &response(&dup, 5), 17), Err(Failure::WrongAnswer));
        let mut foreign = lines[..5].to_vec();
        foreign[0] = "(model=\"Nope-1\", year=1990)".to_string();
        assert_eq!(check(&expect, &response(&foreign, 5), 17), Err(Failure::WrongAnswer));
        // A limit above the answer size returns the whole answer.
        let all = expect_query(&rel, cond, &["model", "year"], Some(10_000));
        assert_eq!(
            check(&all, &response(&lines, lines.len()), 17).unwrap().rows,
            lines.len() as u64
        );
    }

    #[test]
    fn pages_need_a_complete_framed_body() {
        let page = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nok\n";
        assert_eq!(check(&Expect::Page, page, 5), Ok(Verified { rows: 0, trailer_bytes: 0 }));
        assert_eq!(check(&Expect::Page, &page[..page.len() - 1], 5), Err(Failure::Truncated));
        let empty = "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(check(&Expect::Page, empty, 5), Err(Failure::Truncated));
    }
}
