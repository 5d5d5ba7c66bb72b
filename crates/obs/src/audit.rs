//! The persistent audit journal: one JSONL record per completed serve
//! query, plus the summarize/diff analysis behind `csqp audit`.
//!
//! A [`crate::QueryProfile`] is deep but ephemeral — the slowlog ring holds
//! a few dozen and nothing survives process exit. The journal is the opposite
//! trade: one compact, flat record per query ([`AuditRecord`]), appended to
//! an on-disk JSONL file by [`JournalWriter`] with size-based rotation, so a
//! serve run leaves a replayable operational record behind. `csqp audit`
//! then summarizes one journal ([`summarize`]/[`render_summary`]) or diffs
//! two ([`render_diff`]): latency-distribution shift, error-rate shift, and
//! plan-scheme churn keyed by condition fingerprint — cross-run regressions
//! as a CLI one-liner.
//!
//! Records are flat JSON (string / integer / null values only) and the
//! parser is a hand-rolled tokenizer for exactly that subset — the repo is
//! dependency-free by design. `wall_us` follows the [`crate::LatencyKey`]
//! quarantine: `null` outside serve's wall clock, so journals written by
//! deterministic tests are byte-stable.

use crate::metrics::render_json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as IoWrite;
use std::path::{Path, PathBuf};

/// One completed serve query, as journaled. A compact sibling of
/// [`crate::QueryProfile`]: everything needed for cross-run comparison,
/// nothing that needs the process alive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditRecord {
    /// Serve-mode query id.
    pub id: u64,
    /// Condition fingerprint, `{:032x}`-rendered u128 — the plan-churn key.
    pub fingerprint: String,
    /// The query text as submitted.
    pub query: String,
    /// Plan-generation scheme in effect.
    pub scheme: String,
    /// `ok` or `error`.
    pub status: String,
    /// Rows returned (0 on error).
    pub rows: u64,
    /// Wall-clock latency in µs; `None` when quarantined.
    pub wall_us: Option<u64>,
    /// Virtual ticks elapsed over the query.
    pub ticks: u64,
    /// Mid-query sub-plan splices.
    pub splices: u64,
    /// Drift-band replan triggers.
    pub drift_triggers: u64,
    /// Breaker transitions (opened + half-opened + closed) during the query.
    pub breaker_events: u64,
    /// Federation members surviving the capability-index pre-filter.
    pub capindex_candidates: u64,
    /// Federation members considered before the pre-filter.
    pub capindex_total: u64,
}

impl AuditRecord {
    /// The ranking latency, mirroring [`crate::LatencyKey::value`].
    pub fn latency_value(&self) -> u64 {
        self.wall_us.unwrap_or(self.ticks)
    }

    /// Renders the record as one JSONL line (no trailing newline). Key
    /// order is pinned; this is the journal's schema.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::from("{\"id\": ");
        let _ = write!(out, "{}", self.id);
        out.push_str(", \"fingerprint\": ");
        render_json_string(&mut out, &self.fingerprint);
        out.push_str(", \"query\": ");
        render_json_string(&mut out, &self.query);
        out.push_str(", \"scheme\": ");
        render_json_string(&mut out, &self.scheme);
        out.push_str(", \"status\": ");
        render_json_string(&mut out, &self.status);
        let _ = write!(out, ", \"rows\": {}", self.rows);
        out.push_str(", \"wall_us\": ");
        match self.wall_us {
            Some(us) => {
                let _ = write!(out, "{us}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ", \"ticks\": {}, \"splices\": {}, \"drift_triggers\": {}, \"breaker_events\": {}, \
             \"capindex_candidates\": {}, \"capindex_total\": {}}}",
            self.ticks,
            self.splices,
            self.drift_triggers,
            self.breaker_events,
            self.capindex_candidates,
            self.capindex_total,
        );
        out
    }

    /// Parses one JSONL line back into a record. Unknown keys are ignored
    /// (forward compatibility); missing keys default. `Err` carries a short
    /// reason for `csqp audit`'s per-line diagnostics.
    pub fn parse(line: &str) -> Result<AuditRecord, String> {
        let mut rec = AuditRecord::default();
        for (key, value) in parse_flat_object(line)? {
            match (key.as_str(), value) {
                ("id", FlatValue::U64(v)) => rec.id = v,
                ("fingerprint", FlatValue::Str(s)) => rec.fingerprint = s,
                ("query", FlatValue::Str(s)) => rec.query = s,
                ("scheme", FlatValue::Str(s)) => rec.scheme = s,
                ("status", FlatValue::Str(s)) => rec.status = s,
                ("rows", FlatValue::U64(v)) => rec.rows = v,
                ("wall_us", FlatValue::U64(v)) => rec.wall_us = Some(v),
                ("wall_us", FlatValue::Null) => rec.wall_us = None,
                ("ticks", FlatValue::U64(v)) => rec.ticks = v,
                ("splices", FlatValue::U64(v)) => rec.splices = v,
                ("drift_triggers", FlatValue::U64(v)) => rec.drift_triggers = v,
                ("breaker_events", FlatValue::U64(v)) => rec.breaker_events = v,
                ("capindex_candidates", FlatValue::U64(v)) => rec.capindex_candidates = v,
                ("capindex_total", FlatValue::U64(v)) => rec.capindex_total = v,
                _ => {}
            }
        }
        Ok(rec)
    }
}

/// A parsed flat-JSON value: the only shapes the journal schema uses.
enum FlatValue {
    Str(String),
    U64(u64),
    Null,
}

/// Parses a one-line flat JSON object (`{"k": "v", "n": 3, "x": null}`)
/// into key/value pairs. Nested objects/arrays are out of schema and
/// rejected.
fn parse_flat_object(line: &str) -> Result<Vec<(String, FlatValue)>, String> {
    let mut pairs = Vec::new();
    let bytes: Vec<char> = line.trim().chars().collect();
    let mut i = 0usize;

    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if bytes.get(*i) != Some(&'"') {
            return Err(format!("expected string at char {i:?}"));
        }
        *i += 1;
        let mut out = String::new();
        while let Some(&c) = bytes.get(*i) {
            *i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = bytes.get(*i).copied().ok_or("truncated escape")?;
                    *i += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'u' => {
                            let hex: String =
                                bytes.get(*i..*i + 4).ok_or("truncated \\u")?.iter().collect();
                            *i += 4;
                            let cp = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u{hex}"))?;
                            out.push(char::from_u32(cp).ok_or("bad codepoint")?);
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".to_string())
    };

    skip_ws(&mut i);
    if bytes.get(i) != Some(&'{') {
        return Err("expected '{'".to_string());
    }
    i += 1;
    loop {
        skip_ws(&mut i);
        match bytes.get(i) {
            Some('}') => break,
            Some(',') => {
                i += 1;
                continue;
            }
            Some('"') => {}
            other => return Err(format!("expected key, got {other:?}")),
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if bytes.get(i) != Some(&':') {
            return Err(format!("expected ':' after key {key}"));
        }
        i += 1;
        skip_ws(&mut i);
        let value = match bytes.get(i) {
            Some('"') => FlatValue::Str(parse_string(&mut i)?),
            Some('n') => {
                if bytes.get(i..i + 4).map(|c| c.iter().collect::<String>())
                    != Some("null".to_string())
                {
                    return Err("expected null".to_string());
                }
                i += 4;
                FlatValue::Null
            }
            Some(c) if c.is_ascii_digit() => {
                let start = i;
                while bytes.get(i).is_some_and(|c| c.is_ascii_digit()) {
                    i += 1;
                }
                let digits: String = bytes[start..i].iter().collect();
                FlatValue::U64(digits.parse().map_err(|_| format!("bad number {digits}"))?)
            }
            other => return Err(format!("unsupported value start {other:?} for key {key}")),
        };
        pairs.push((key, value));
    }
    Ok(pairs)
}

/// Appends [`AuditRecord`]s to a JSONL file with size-based rotation: when
/// a record would push the active file past `max_bytes`, the file rotates
/// to `<path>.1` (overwriting the previous rotation) and a fresh file
/// starts. The bounded-size invariant — pinned by a property test — is
/// `size(path) + size(path.1) ≤ 2·max_bytes + one record`.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    max_bytes: u64,
    written: u64,
    file: File,
    /// Records appended over the writer's lifetime.
    pub records: u64,
    /// Rotations performed over the writer's lifetime.
    pub rotations: u64,
}

impl JournalWriter {
    /// Opens (appending) or creates the journal at `path`.
    pub fn open(path: impl Into<PathBuf>, max_bytes: u64) -> Result<JournalWriter, String> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open journal {}: {e}", path.display()))?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(JournalWriter {
            path,
            max_bytes: max_bytes.max(1),
            written,
            file,
            records: 0,
            rotations: 0,
        })
    }

    /// Appends one record as a single `write` call (one line, newline
    /// included — concurrent readers never observe a torn record), rotating
    /// first if the active file would exceed `max_bytes`.
    pub fn append(&mut self, record: &AuditRecord) -> Result<(), String> {
        let mut line = record.to_jsonl();
        line.push('\n');
        if self.written > 0 && self.written + line.len() as u64 > self.max_bytes {
            self.rotate()?;
        }
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("append journal {}: {e}", self.path.display()))?;
        self.written += line.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// The rotation target (`<path>.1`).
    pub fn rotated_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_owned();
        os.push(".1");
        PathBuf::from(os)
    }

    fn rotate(&mut self) -> Result<(), String> {
        std::fs::rename(&self.path, self.rotated_path())
            .map_err(|e| format!("rotate journal {}: {e}", self.path.display()))?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| format!("reopen journal {}: {e}", self.path.display()))?;
        self.written = 0;
        self.rotations += 1;
        Ok(())
    }
}

/// Reads every parseable record from a journal file (skipping blank lines;
/// unparseable lines are returned as errors alongside the good records so
/// `csqp audit` can report them without dying).
pub fn read_journal(path: &Path) -> Result<(Vec<AuditRecord>, Vec<String>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read journal {}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut errors = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match AuditRecord::parse(line) {
            Ok(r) => records.push(r),
            Err(e) => errors.push(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok((records, errors))
}

/// Aggregates over one journal, the unit `render_summary`/`render_diff`
/// work from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalSummary {
    /// Records read.
    pub records: u64,
    /// Records with `status != "ok"`.
    pub errors: u64,
    /// Σ rows returned.
    pub rows: u64,
    /// Σ splices.
    pub splices: u64,
    /// Σ drift triggers.
    pub drift_triggers: u64,
    /// Σ breaker events.
    pub breaker_events: u64,
    /// Latency p50 (nearest-rank over `latency_value`).
    pub p50: u64,
    /// Latency p99.
    pub p99: u64,
    /// Latency max.
    pub max: u64,
    /// Records per scheme.
    pub schemes: BTreeMap<String, u64>,
    /// Last scheme observed per fingerprint — the plan-churn join key.
    pub plan_by_fingerprint: BTreeMap<String, String>,
}

/// Summarizes a slice of records.
pub fn summarize(records: &[AuditRecord]) -> JournalSummary {
    let mut s = JournalSummary { records: records.len() as u64, ..Default::default() };
    let mut latencies: Vec<u64> = Vec::with_capacity(records.len());
    for r in records {
        if r.status != "ok" {
            s.errors += 1;
        }
        s.rows += r.rows;
        s.splices += r.splices;
        s.drift_triggers += r.drift_triggers;
        s.breaker_events += r.breaker_events;
        latencies.push(r.latency_value());
        *s.schemes.entry(r.scheme.clone()).or_insert(0) += 1;
        s.plan_by_fingerprint.insert(r.fingerprint.clone(), r.scheme.clone());
    }
    latencies.sort_unstable();
    let rank = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let n = latencies.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        latencies[idx]
    };
    s.p50 = rank(0.50);
    s.p99 = rank(0.99);
    s.max = latencies.last().copied().unwrap_or(0);
    s
}

/// Error rate as a fraction.
fn error_rate(s: &JournalSummary) -> f64 {
    if s.records == 0 {
        0.0
    } else {
        s.errors as f64 / s.records as f64
    }
}

/// Renders one journal's summary (the `csqp audit <journal>` output).
pub fn render_summary(label: &str, s: &JournalSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "journal {label}");
    let _ = writeln!(
        out,
        "  records {}  errors {} ({:.1}%)  rows {}",
        s.records,
        s.errors,
        error_rate(s) * 100.0,
        s.rows
    );
    let _ = writeln!(out, "  latency p50 {}  p99 {}  max {}", s.p50, s.p99, s.max);
    let _ = writeln!(
        out,
        "  splices {}  drift_triggers {}  breaker_events {}",
        s.splices, s.drift_triggers, s.breaker_events
    );
    let schemes: Vec<String> = s.schemes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let _ = writeln!(
        out,
        "  schemes {}  fingerprints {}",
        if schemes.is_empty() { "-".to_string() } else { schemes.join(" ") },
        s.plan_by_fingerprint.len()
    );
    out
}

/// Percentage-point / signed-shift helper: `+x` / `-x` / `0`.
fn signed(v: f64) -> String {
    if v > 0.0 {
        format!("+{v:.1}")
    } else {
        format!("{v:.1}")
    }
}

/// Diffs two journals (`a` = baseline, `b` = candidate): latency
/// distribution shift, error-rate shift in percentage points, scheme mix,
/// and plan-scheme churn by fingerprint. Deterministic for deterministic
/// inputs — the `csqp audit --diff` output and a CI artifact.
pub fn render_diff(a: &JournalSummary, b: &JournalSummary) -> String {
    let mut out = String::from("audit diff (a = baseline, b = candidate)\n");
    let _ = writeln!(out, "  records a {}  b {}", a.records, b.records);
    let pct = |from: u64, to: u64| -> String {
        if from == 0 {
            return "n/a".to_string();
        }
        signed((to as f64 - from as f64) / from as f64 * 100.0) + "%"
    };
    let _ = writeln!(
        out,
        "  latency p50 {} -> {} ({})  p99 {} -> {} ({})  max {} -> {}",
        a.p50,
        b.p50,
        pct(a.p50, b.p50),
        a.p99,
        b.p99,
        pct(a.p99, b.p99),
        a.max,
        b.max
    );
    let _ = writeln!(
        out,
        "  error rate {:.1}% -> {:.1}% ({} pts)",
        error_rate(a) * 100.0,
        error_rate(b) * 100.0,
        signed((error_rate(b) - error_rate(a)) * 100.0)
    );
    let _ = writeln!(
        out,
        "  splices {} -> {}  drift_triggers {} -> {}  breaker_events {} -> {}",
        a.splices,
        b.splices,
        a.drift_triggers,
        b.drift_triggers,
        a.breaker_events,
        b.breaker_events
    );
    let mut all_schemes: Vec<&String> = a.schemes.keys().chain(b.schemes.keys()).collect();
    all_schemes.sort();
    all_schemes.dedup();
    for scheme in all_schemes {
        let _ = writeln!(
            out,
            "  scheme {scheme}: {} -> {}",
            a.schemes.get(scheme).copied().unwrap_or(0),
            b.schemes.get(scheme).copied().unwrap_or(0)
        );
    }
    let mut churned = 0u64;
    let mut churn_lines = Vec::new();
    for (fp, scheme_a) in &a.plan_by_fingerprint {
        if let Some(scheme_b) = b.plan_by_fingerprint.get(fp) {
            if scheme_a != scheme_b {
                churned += 1;
                if churn_lines.len() < 10 {
                    churn_lines.push(format!("    {fp}: {scheme_a} -> {scheme_b}"));
                }
            }
        }
    }
    let only_a =
        a.plan_by_fingerprint.keys().filter(|fp| !b.plan_by_fingerprint.contains_key(*fp)).count();
    let only_b =
        b.plan_by_fingerprint.keys().filter(|fp| !a.plan_by_fingerprint.contains_key(*fp)).count();
    let _ = writeln!(
        out,
        "  plan churn: {churned} fingerprint(s) changed scheme, {only_a} only in a, {only_b} only in b"
    );
    for line in churn_lines {
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, fp: &str, scheme: &str, status: &str, ticks: u64) -> AuditRecord {
        AuditRecord {
            id,
            fingerprint: fp.to_string(),
            query: format!("q{id}"),
            scheme: scheme.to_string(),
            status: status.to_string(),
            rows: id,
            ticks,
            ..Default::default()
        }
    }

    #[test]
    fn jsonl_roundtrips() {
        let mut r = rec(7, "00ab", "GenCompact", "ok", 42);
        r.wall_us = Some(812);
        r.splices = 1;
        r.capindex_candidates = 2;
        r.capindex_total = 3;
        r.query = "cond with \"quotes\" and \\slash".to_string();
        let line = r.to_jsonl();
        assert!(!line.contains('\n'), "one record is one line");
        assert_eq!(AuditRecord::parse(&line).unwrap(), r);
        // Quarantined wall clock renders and parses as null.
        let q = rec(1, "ff", "GenModular", "error", 9);
        let line = q.to_jsonl();
        assert!(line.contains("\"wall_us\": null"));
        assert_eq!(AuditRecord::parse(&line).unwrap(), q);
    }

    #[test]
    fn parse_rejects_garbage_and_skips_unknown_keys() {
        assert!(AuditRecord::parse("not json").is_err());
        assert!(AuditRecord::parse("{\"id\": [1]}").is_err(), "nested values out of schema");
        let fwd = AuditRecord::parse("{\"id\": 3, \"future_key\": \"x\"}").unwrap();
        assert_eq!(fwd.id, 3);
    }

    #[test]
    fn writer_appends_and_rotates_with_bounded_size() {
        let dir = std::env::temp_dir().join(format!("csqp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rotate.jsonl");
        let _ = std::fs::remove_file(&path);
        let max = 600u64;
        let mut w = JournalWriter::open(&path, max).unwrap();
        let rotated = w.rotated_path();
        let _ = std::fs::remove_file(&rotated);
        let mut line_len = 0u64;
        for i in 0..40u64 {
            let r = rec(i, "abcd", "GenCompact", "ok", i);
            line_len = line_len.max(r.to_jsonl().len() as u64 + 1);
            w.append(&r).unwrap();
            let active = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let old = std::fs::metadata(&rotated).map(|m| m.len()).unwrap_or(0);
            assert!(
                active + old <= 2 * max + line_len,
                "bounded-size invariant violated: {active} + {old} > 2*{max} + {line_len}"
            );
        }
        assert!(w.rotations >= 1, "forty records through a 600-byte cap must rotate");
        assert_eq!(w.records, 40);
        // Every surviving line still parses.
        let (recs, errs) = read_journal(&path).unwrap();
        assert!(errs.is_empty(), "{errs:?}");
        assert!(!recs.is_empty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }

    #[test]
    fn reopened_journal_keeps_appending() {
        let dir = std::env::temp_dir().join(format!("csqp_journal_re_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("re.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::open(&path, 1 << 20).unwrap();
            w.append(&rec(1, "aa", "GenCompact", "ok", 5)).unwrap();
        }
        {
            let mut w = JournalWriter::open(&path, 1 << 20).unwrap();
            w.append(&rec(2, "bb", "GenCompact", "ok", 6)).unwrap();
        }
        let (recs, _) = read_journal(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, 1);
        assert_eq!(recs[1].id, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn summarize_computes_quantiles_and_scheme_mix() {
        let records: Vec<AuditRecord> = (1..=100u64)
            .map(|i| {
                let mut r = rec(i, &format!("fp{i}"), "GenCompact", "ok", i);
                if i > 98 {
                    r.status = "error".to_string();
                }
                r
            })
            .collect();
        let s = summarize(&records);
        assert_eq!(s.records, 100);
        assert_eq!(s.errors, 2);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p99, 99);
        assert_eq!(s.max, 100);
        assert_eq!(s.schemes["GenCompact"], 100);
        assert_eq!(s.plan_by_fingerprint.len(), 100);
        assert_eq!(summarize(&[]), JournalSummary::default());
    }

    #[test]
    fn diff_reports_latency_error_and_scheme_churn() {
        let a = summarize(&[
            rec(1, "fp1", "GenCompact", "ok", 10),
            rec(2, "fp2", "GenCompact", "ok", 20),
        ]);
        let b = summarize(&[
            rec(1, "fp1", "GenModular", "ok", 40),
            rec(2, "fp2", "GenCompact", "error", 80),
            rec(3, "fp3", "GenModular", "ok", 10),
        ]);
        let diff = render_diff(&a, &b);
        assert!(diff.contains("error rate 0.0% -> 33.3% (+33.3 pts)"), "{diff}");
        assert!(diff.contains("scheme GenCompact: 2 -> 1"), "{diff}");
        assert!(diff.contains("scheme GenModular: 0 -> 2"), "{diff}");
        assert!(
            diff.contains("1 fingerprint(s) changed scheme, 0 only in a, 1 only in b"),
            "{diff}"
        );
        assert!(diff.contains("    fp1: GenCompact -> GenModular"), "{diff}");
        assert_eq!(diff, render_diff(&a, &b), "diff is deterministic");
        let summary = render_summary("a.jsonl", &a);
        assert!(summary.contains("records 2"));
        assert!(summary.contains("latency p50 10  p99 20  max 20"), "{summary}");
    }
}
