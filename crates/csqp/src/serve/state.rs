//! The query path plus the per-server telemetry stores every worker
//! shares: admission, prepared-plan serving, SLO accounting, audit
//! journaling, and the windowed time-series roll.

use super::admission::Admit;
use super::{Server, SlowQuery};
use csqp_core::mediator::{AdaptiveConfig, StreamOptions};
use csqp_core::types::TargetQuery;
use csqp_obs::{names, AuditRecord, LatencyKey, ProfileCapture, QueryProfile};
use csqp_plan::exec_stream::StreamConfig;
use csqp_relation::TupleBatch;
use csqp_ssdl::linearize::cond_fingerprint;
use std::time::Instant;

/// A failed query: the HTTP status it maps to plus the error body. The line
/// protocol renders only the body (`ERR …`).
#[derive(Debug)]
pub(super) struct QueryError {
    pub(super) status: &'static str,
    pub(super) body: String,
}

impl QueryError {
    fn bad_request(body: String) -> QueryError {
        QueryError { status: "400 Bad Request", body }
    }

    fn shed(body: String) -> QueryError {
        QueryError { status: "429 Too Many Requests", body }
    }
}

impl Server {
    /// Admits, prepares and streams one query, feeding each answer batch
    /// to `sink` (return `false` to stop) and recording the serve-mode
    /// wall-clock metrics and the slow-query log. Returns the
    /// `N rows (est cost …)` summary trailer, or the error; `flight_out` is
    /// set to the query's flight id once it has been planned.
    ///
    /// The order is deliberate: admission control runs **first** — a shed
    /// query costs a counter bump, not a parse or a planner fan-out — and
    /// the prepared-plan cache probe (`Federation::prepare`) replaces the
    /// plan-then-find-winner dance, so a cache hit skips planning entirely.
    /// Execution, member failover and the per-member attribution are the
    /// federation's (`Federation::run_stream`); what is left here is the
    /// per-request telemetry around them.
    pub(super) fn serve_query_streamed(
        &self,
        cond: &str,
        attrs: &[String],
        limit: Option<u64>,
        tenant: &str,
        flight_out: &mut Option<u64>,
        sink: &mut dyn FnMut(TupleBatch) -> bool,
    ) -> Result<String, QueryError> {
        // Admission: the guard holds this query's in-flight slot until the
        // function exits, however it exits.
        let _inflight = match self.admission.try_admit(tenant, &self.obs) {
            Admit::Granted(guard) => guard,
            Admit::ShedQuota => {
                return Err(QueryError::shed(format!(
                    "tenant {tenant} is over its query rate — retry later\n"
                )));
            }
            Admit::ShedOverload => {
                return Err(QueryError::shed(
                    "server is at its concurrent-query limit — retry later\n".to_string(),
                ));
            }
        };
        let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let query = TargetQuery::parse(cond, &attr_refs).map_err(|e| {
            self.obs.metrics.inc(names::SERVE_ERRORS);
            QueryError::bad_request(format!("query parse error: {e}\n"))
        })?;
        let cfg = StreamConfig { limit, ..StreamConfig::default() };
        let start = Instant::now();
        // Profile capture window: every metric this thread writes from
        // here until the run finishes is this query's, and so are the
        // tracer's spans since here and the query's flight record. The
        // window closes on drop, so an early error return leaves nothing
        // open.
        let capture = ProfileCapture::begin(&self.obs);
        // Prepared-plan probe: a shape hit rebinds this query's constants
        // into the cached winner plan and skips the planner fan-out; a miss
        // plans federation-wide (capability index prunes, cheapest feasible
        // member wins) and caches the winner under the parameterized
        // fingerprint.
        let prepared = self.federation.prepare(&query).map_err(|e| {
            self.obs.metrics.inc(names::SERVE_ERRORS);
            QueryError::bad_request(format!("planning failed: {e}\n"))
        })?;
        let cache_label = prepared.decision.label();
        let flight_id = prepared.flight_id;
        *flight_out = Some(flight_id);
        // A miss carries its survey's index decision; a hit planned
        // nothing, so the trailer asks the index what it would have kept.
        let (index_candidates, index_total) = prepared.surveyed().unwrap_or_else(|| {
            let members = self.federation.members().len();
            self.federation.capability_index().map_or((members, members), |idx| {
                let d = idx.candidates(&query);
                (d.candidates.len(), d.total)
            })
        });
        let mut emitted = 0u64;
        let mut batch_sink = |batch: TupleBatch| {
            emitted += batch.len() as u64;
            sink(batch)
        };
        let fingerprint = || format!("{:032x}", cond_fingerprint(Some(&query.cond)));
        // Adaptive serving: the pipeline may pause at a batch boundary and
        // splice in a re-planned residual when observed cardinalities drift
        // off the estimates; the answer stays set-identical and the splice
        // count lands in the trailer. Either way the *prepared* plan is
        // what executes, until its member dies and hands the rest of the
        // answer to the next-cheapest member, which the trailer names.
        let acfg = AdaptiveConfig { stream: cfg, ..Default::default() };
        let options = if self.cfg.adaptive {
            StreamOptions::Adaptive(&acfg)
        } else {
            StreamOptions::plain(&acfg.stream)
        };
        let run = match self.federation.run_stream(prepared, options, Some(&mut batch_sink)) {
            Ok(run) => run,
            Err(e) => {
                // Leave an audit record and still close the telemetry
                // window.
                self.obs.metrics.inc(names::SERVE_ERRORS);
                self.journal_append(|| AuditRecord {
                    id: flight_id,
                    fingerprint: fingerprint(),
                    query: query.to_string(),
                    scheme: self.cfg.scheme.name().to_string(),
                    status: "error".to_string(),
                    wall_us: Some(start.elapsed().as_micros() as u64),
                    ticks: capture.ticks(),
                    capindex_candidates: index_candidates as u64,
                    capindex_total: index_total as u64,
                    ..Default::default()
                });
                self.maybe_roll();
                // The plan was prepared above: what failed is execution.
                return Err(QueryError::bad_request(format!("execution failed: {e}\n")));
            }
        };
        let (out, replans, drift_triggers) =
            (&run.stream.outcome, run.stream.splices, run.stream.drift_triggers);
        let latency_us = start.elapsed().as_micros() as u64;
        // SLO accounting happens before the profile delta is cut so the
        // breach lands in this query's attribution window.
        if latency_us >= self.slo.latency_objective_us {
            self.obs.metrics.inc(names::SLO_LATENCY_BREACHES);
        }
        self.obs.metrics.inc(names::SERVE_QUERIES);
        // The latency observation carries the flight id as an exemplar, so
        // a `/metrics?exemplars=1` scrape can walk from a suspicious bucket
        // straight to `/profile/<id>`.
        self.obs.metrics.observe_exemplar(names::SERVE_LATENCY_US, latency_us, flight_id);
        self.obs.metrics.observe(names::SERVE_ROWS_RETURNED, emitted);
        let latency = LatencyKey { wall_us: Some(latency_us), ticks: capture.ticks() };
        let breakers = self.federation.breaker_summary();
        // The profile, its flight rendering and span slice are built only
        // when the worst-N ring will keep them; the slow log needs the
        // flight too.
        let slow = latency_us >= self.cfg.slow_ms.saturating_mul(1000);
        let keep = self.profiles.lock().expect("profile ring lock").admits(&latency, flight_id);
        // This query's own flight, by id: under several workers the
        // recorder's latest flight is whichever query planned last.
        let flight = (slow || keep).then(|| self.flight.record(flight_id)).flatten();
        if slow {
            self.obs.metrics.inc(names::SERVE_SLOW_QUERIES);
            let mut slow_log = self.slow_log.lock().expect("slow log lock");
            if slow_log.len() >= self.cfg.slow_log_capacity.max(1) {
                slow_log.pop_front();
            }
            slow_log.push_back(SlowQuery {
                latency,
                query: query.to_string(),
                why: csqp_plan::why::explain_why(flight.as_ref()),
            });
        }
        // Close the window once: the profile keeps the query's own metric
        // writes, and the audit record below reads from them.
        let profile = if keep {
            capture.finish(flight.as_ref())
        } else {
            QueryProfile { metrics: capture.close(), ..Default::default() }
        };
        let breaker_events = profile.metrics.counter(names::BREAKER_OPENED)
            + profile.metrics.counter(names::BREAKER_HALF_OPENED)
            + profile.metrics.counter(names::BREAKER_CLOSED);
        if keep {
            // Assemble the query's black box and hand it to the worst-N
            // ring.
            self.obs.metrics.inc(names::PROFILE_CAPTURED);
            self.profiles.lock().expect("profile ring lock").push(QueryProfile {
                id: flight_id,
                query: query.to_string(),
                scheme: "Federation".to_string(),
                rows: emitted,
                latency: Some(latency),
                est_cost: out.planned.est_cost,
                observed_cost: out.measured_cost,
                splices: replans,
                drift_triggers,
                plan_cache: cache_label.to_string(),
                breakers: breakers
                    .tripped
                    .iter()
                    .map(|(name, health)| (name.clone(), health.label().to_string()))
                    .collect(),
                ..profile
            });
        }
        self.journal_append(|| AuditRecord {
            id: flight_id,
            fingerprint: fingerprint(),
            query: query.to_string(),
            scheme: self.cfg.scheme.name().to_string(),
            status: "ok".to_string(),
            rows: emitted,
            wall_us: Some(latency_us),
            ticks: latency.ticks,
            splices: replans,
            drift_triggers,
            breaker_events,
            capindex_candidates: index_candidates as u64,
            capindex_total: index_total as u64,
        });
        self.maybe_roll();
        Ok(format!(
            "{} rows (est cost {:.2}, measured cost {:.2}, {} source queries, capindex \
             {index_candidates}/{index_total} candidates, {replans} replans, plan cache \
             {cache_label}, tenant {tenant}, breakers [{breakers}], served by {}, flight \
             #{flight_id})\n",
            emitted, out.planned.est_cost, out.measured_cost, out.meter.queries, run.source_name,
        ))
    }

    /// Appends one audit record to the journal (when configured), keeping
    /// the `journal.*` counters in step. The record is built only when
    /// there is a journal to take it. Append failures are reported on
    /// stderr but never fail the query — the answer already streamed.
    pub(super) fn journal_append(&self, record: impl FnOnce() -> AuditRecord) {
        let Some(journal) = &self.journal else { return };
        let record = record();
        let mut journal = journal.lock().expect("journal lock");
        let rotations_before = journal.rotations;
        match journal.append(&record) {
            Ok(()) => {
                self.obs.metrics.inc(names::JOURNAL_RECORDS);
                let rotated = journal.rotations - rotations_before;
                if rotated > 0 {
                    self.obs.metrics.add(names::JOURNAL_ROTATIONS, rotated);
                }
            }
            Err(e) => eprintln!("csqp serve: journal append failed: {e}"),
        }
    }

    /// Closes the current telemetry window once `window_queries` queries
    /// have completed since the last boundary: cuts the registry's open
    /// window (O(series touched), no registry snapshot) into the ring.
    /// The cut happens under the ring's lock, so concurrent rolls enter
    /// the ring in the order they cut. Serve is the one wall-clock place
    /// in the stack, so windows carry a wall stamp here. Breaker state is
    /// read live where it is scored (`/status`), so no window carries a
    /// `breaker.state.*` gauge.
    pub(super) fn maybe_roll(&self) {
        let done = self.queries_done.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1;
        if !done.is_multiple_of(self.cfg.window_queries.max(1)) {
            return;
        }
        let ticks = self.obs.tracer.tick();
        let wall_us = self.started.elapsed().as_micros() as u64;
        let mut timeseries = self.timeseries.lock().expect("timeseries lock");
        timeseries.roll(self.obs.metrics.cut_window(), ticks, Some(wall_us));
        self.obs.metrics.gauge_set(names::TIMESERIES_WINDOWS, timeseries.len() as f64);
    }
}
