//! Routing for the non-query HTTP endpoints: health, metrics, flight
//! recorder, status scoreboard, time series, slow log, profiles, spans.

use super::http::query_param;
use super::Server;
use csqp_obs::{health, names};
use std::fmt::Write as _;

impl Server {
    /// Routes one HTTP request target to a `(status, content-type, body,
    /// shutdown)` response.
    pub(super) fn route(&self, target: &str) -> (&'static str, &'static str, String, bool) {
        const TEXT: &str = "text/plain; charset=utf-8";
        const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
        let (path, query_string) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        const JSON: &str = "application/json; charset=utf-8";
        if let Some(id) = path.strip_prefix("/profile/") {
            return match id.parse::<u64>().ok().and_then(|id| self.profile(id)) {
                Some(p) => ("200 OK", JSON, p.to_json(), false),
                None => ("404 Not Found", TEXT, format!("no profile {id:?} retained\n"), false),
            };
        }
        match path {
            "/healthz" => ("200 OK", TEXT, "ok\n".to_string(), false),
            "/metrics" => {
                // `?exemplars=1` upgrades histogram buckets to the
                // OpenMetrics-style exemplar syntax carrying query ids.
                let exemplars = query_param(query_string, "exemplars").is_some_and(|v| v == "1");
                let snap = self.federation.metrics_snapshot();
                ("200 OK", PROM, csqp_obs::prom::render_opts(&snap, exemplars), false)
            }
            "/flightrecorder" => match query_param(query_string, "query") {
                Some(id) => match id.parse::<u64>().ok().and_then(|id| self.flight.record(id)) {
                    Some(rec) => ("200 OK", TEXT, csqp_plan::why::explain_why(Some(&rec)), false),
                    None => ("404 Not Found", TEXT, format!("no flight {id:?} recorded\n"), false),
                },
                None => ("200 OK", TEXT, self.flight_index(), false),
            },
            // `/query` is handled by `handle_query_http` before routing
            // (streamed response); reaching it here means a programming
            // error, answered like any unknown route.
            "/status" => {
                let json = query_param(query_string, "format").is_some_and(|v| v == "json");
                let (ctype, body) = self.render_status(json);
                ("200 OK", ctype, body, false)
            }
            "/timeseries" => match query_param(query_string, "metric") {
                Some(metric) => {
                    let windows = query_param(query_string, "windows")
                        .and_then(|v| v.parse::<usize>().ok())
                        .unwrap_or(usize::MAX);
                    let body = self
                        .timeseries
                        .lock()
                        .expect("timeseries lock")
                        .render_json(&metric, windows);
                    ("200 OK", JSON, body, false)
                }
                None => {
                    self.obs.metrics.inc(names::SERVE_ERRORS);
                    (
                        "400 Bad Request",
                        TEXT,
                        "usage: /timeseries?metric=<name>[&windows=<n>]\n".to_string(),
                        false,
                    )
                }
            },
            "/slowlog" => ("200 OK", TEXT, self.render_slow_log(), false),
            "/profile" => ("200 OK", TEXT, self.profile_index(), false),
            "/spans" => {
                let spans = self.obs.tracer.spans();
                let body = if spans.is_empty() {
                    "no spans recorded\n".to_string()
                } else {
                    csqp_obs::span::render_tree(&spans)
                };
                ("200 OK", TEXT, body, false)
            }
            "/shutdown" => ("200 OK", TEXT, "shutting down\n".to_string(), true),
            _ => ("404 Not Found", TEXT, format!("no route {path}\n"), false),
        }
    }

    /// Renders the `/status` scoreboard: every retained window plus the
    /// registry's still-open window folded into one signal window, scored
    /// per member against the live breaker state.
    pub(super) fn render_status(&self, json: bool) -> (&'static str, String) {
        let (window, windows, dropped) = {
            // Under the ring's lock no roll can cut between the fold and
            // the peek: together they cover every retained write once.
            let timeseries = self.timeseries.lock().expect("timeseries lock");
            let mut window = timeseries.folded(usize::MAX);
            window.merge(&self.obs.metrics.peek_window());
            (window, timeseries.len(), timeseries.dropped())
        };
        let breaker_states = self.federation.breaker_states();
        let mut reports: Vec<health::HealthReport> = breaker_states
            .iter()
            .map(|(name, state)| {
                health::score(health::signals_from_window(&window, name, state.as_gauge() as u8))
            })
            .collect();
        // Worst first so the member that needs attention leads the table;
        // ties break by name for a deterministic page.
        reports.sort_by(|a, b| {
            a.score
                .partial_cmp(&b.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.signals.member.cmp(&b.signals.member))
        });
        let queries = window.counter(names::SERVE_QUERIES);
        let error_burn = self.slo.burn_rate(window.counter(names::SERVE_ERRORS), queries);
        let latency_burn = self.slo.burn_rate(window.counter(names::SLO_LATENCY_BREACHES), queries);
        // Publish the scoreboard back into the registry so `/metrics`
        // scrapers see the same numbers the page shows.
        self.obs.metrics.gauge_set(names::ADMISSION_INFLIGHT, self.admission.inflight() as f64);
        self.obs.metrics.gauge_set(names::SLO_ERROR_BURN, error_burn);
        self.obs.metrics.gauge_set(names::SLO_LATENCY_BURN, latency_burn);
        self.obs.metrics.gauge_set(names::TIMESERIES_WINDOWS, windows as f64);
        if self.obs.enabled() {
            for report in &reports {
                self.obs.metrics.gauge_set(
                    &format!("{}{}", names::HEALTH_SCORE_PREFIX, report.signals.member),
                    report.score,
                );
            }
        }
        let summary = health::StatusSummary {
            slo: self.slo,
            error_burn,
            latency_burn,
            queries,
            windows,
            dropped,
        };
        if json {
            ("application/json; charset=utf-8", health::render_status_json(&summary, &reports))
        } else {
            ("text/plain; charset=utf-8", health::render_status_text(&summary, &reports))
        }
    }

    pub(super) fn flight_index(&self) -> String {
        let records = self.flight.records();
        if records.is_empty() {
            return "no flights recorded yet\n".to_string();
        }
        let mut out = String::from("recorded flights (oldest first):\n");
        for r in &records {
            let _ =
                writeln!(out, "  #{} [{}] {} ({} events)", r.id, r.scheme, r.query, r.events.len());
        }
        let _ = writeln!(out, "evicted: {}", self.flight.evicted());
        out
    }

    pub(super) fn render_slow_log(&self) -> String {
        let slow_log = self.slow_log.lock().expect("slow log lock");
        if slow_log.is_empty() {
            return format!("no queries slower than {} ms\n", self.cfg.slow_ms);
        }
        let mut out = String::new();
        for (i, s) in slow_log.iter().enumerate() {
            let _ = writeln!(
                out,
                "--- slow query {} ({:.3} ms, {} ticks): {}",
                i,
                s.latency.wall_us.unwrap_or(0) as f64 / 1000.0,
                s.latency.ticks,
                s.query
            );
            out.push_str(&s.why);
        }
        out
    }

    /// The worst-N profile index: one line per retained profile.
    pub(super) fn profile_index(&self) -> String {
        let profiles = self.profiles.lock().expect("profile ring lock");
        if profiles.is_empty() {
            return "no profiles retained yet\n".to_string();
        }
        let mut out = String::from("worst retained profiles (worst first):\n");
        for p in profiles.worst() {
            let (wall, ticks) = match p.latency {
                Some(l) => (l.wall_us.unwrap_or(0), l.ticks),
                None => (0, 0),
            };
            let _ = writeln!(
                out,
                "  #{} ({:.3} ms, {} ticks, {} rows, {} splices, plan cache {}) {}",
                p.id,
                wall as f64 / 1000.0,
                ticks,
                p.rows,
                p.splices,
                if p.plan_cache.is_empty() { "-" } else { &p.plan_cache },
                p.query
            );
        }
        out
    }
}
