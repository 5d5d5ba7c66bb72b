//! Multi-tenant admission control for the serve front door: a global
//! in-flight cap sheds overload fast, and per-tenant token buckets keep
//! one noisy tenant from starving the rest.
//!
//! Both checks run *before* the query is parsed or planned — a shed
//! request costs a counter bump and a 429, not a planner fan-out. The
//! in-flight slot is RAII ([`InflightGuard`]): however the query path
//! exits (trailer, planning error, client gone mid-stream), the slot
//! frees and the `admission.inflight` gauge tracks reality.

use csqp_obs::{names, Obs};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-tenant token-bucket state: `tokens` refill at the configured rate
/// up to the burst ceiling, one query takes one token.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Verdict for one query.
#[derive(Debug)]
pub(super) enum Admit<'a> {
    /// Run it; drop the guard when the query finishes.
    Granted(InflightGuard<'a>),
    /// The tenant's token bucket is empty — 429, per-tenant.
    ShedQuota,
    /// The global in-flight cap is reached — 429, whole-server.
    ShedOverload,
}

/// Admission state shared by every worker.
#[derive(Debug)]
pub(super) struct Admission {
    /// Global concurrent-query ceiling; 0 disables overload shedding.
    max_inflight: u64,
    /// Tokens per second refilled into each tenant's bucket; 0 disables
    /// quota shedding.
    rate: f64,
    /// Bucket capacity (burst allowance).
    burst: f64,
    inflight: AtomicU64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl Admission {
    pub(super) fn new(max_inflight: u64, rate: f64, burst: f64) -> Self {
        Admission {
            max_inflight,
            rate,
            burst: burst.max(1.0),
            inflight: AtomicU64::new(0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Runs the admission checks for one query from `tenant`. Order
    /// matters: the global cap protects the worker pool no matter which
    /// tenant is pushing, then the tenant's bucket is charged.
    pub(super) fn try_admit<'a>(&'a self, tenant: &str, obs: &'a Obs) -> Admit<'a> {
        if self.max_inflight > 0 {
            let mut cur = self.inflight.load(Ordering::Relaxed);
            loop {
                if cur >= self.max_inflight {
                    obs.metrics.inc(names::ADMISSION_SHED_OVERLOAD);
                    shed_tap(obs, tenant);
                    return Admit::ShedOverload;
                }
                match self.inflight.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        } else {
            self.inflight.fetch_add(1, Ordering::AcqRel);
        }
        let guard = InflightGuard { adm: self, obs };
        obs.metrics
            .gauge_set(names::ADMISSION_INFLIGHT, self.inflight.load(Ordering::Relaxed) as f64);
        if self.rate > 0.0 {
            let mut buckets = self.buckets.lock().expect("admission bucket lock");
            let now = Instant::now();
            let b = buckets
                .entry(tenant.to_string())
                .or_insert_with(|| Bucket { tokens: self.burst, last: now });
            let dt = now.saturating_duration_since(b.last).as_secs_f64();
            b.tokens = (b.tokens + dt * self.rate).min(self.burst);
            b.last = now;
            if b.tokens < 1.0 {
                drop(buckets);
                drop(guard); // frees the in-flight slot and refreshes the gauge
                obs.metrics.inc(names::ADMISSION_SHED_QUOTA);
                shed_tap(obs, tenant);
                return Admit::ShedQuota;
            }
            b.tokens -= 1.0;
        }
        obs.metrics.inc(names::ADMISSION_ADMITTED);
        if obs.enabled() {
            obs.metrics.inc(&format!("{}{tenant}", names::TENANT_QUERIES_PREFIX));
        }
        Admit::Granted(guard)
    }

    /// Queries currently holding an in-flight slot.
    pub(super) fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// Per-tenant shed attribution (gated so an off registry allocates nothing).
fn shed_tap(obs: &Obs, tenant: &str) {
    if obs.enabled() {
        obs.metrics.inc(&format!("{}{tenant}", names::TENANT_SHED_PREFIX));
    }
}

/// RAII in-flight slot: freed on drop, wherever the query path exits.
#[derive(Debug)]
pub(super) struct InflightGuard<'a> {
    adm: &'a Admission,
    obs: &'a Obs,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let now = self.adm.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
        self.obs.metrics.gauge_set(names::ADMISSION_INFLIGHT, now as f64);
    }
}

/// Normalizes a caller-supplied tenant id into a metric-safe label:
/// `[A-Za-z0-9_-]` kept, everything else mapped to `_`, capped at 32
/// bytes; empty or absent ids fall back to `anon`.
pub(super) fn sanitize_tenant(raw: Option<&str>) -> String {
    let Some(raw) = raw else { return "anon".to_string() };
    let cleaned: String = raw
        .chars()
        .take(32)
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == '-' { c } else { '_' })
        .collect();
    if cleaned.is_empty() {
        "anon".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_obs::Obs;

    #[test]
    fn inflight_cap_sheds_overload_and_guard_frees_slots() {
        let obs = Obs::new();
        let adm = Admission::new(2, 0.0, 8.0);
        let g1 = match adm.try_admit("a", &obs) {
            Admit::Granted(g) => g,
            other => panic!("expected grant, got {other:?}"),
        };
        let _g2 = match adm.try_admit("b", &obs) {
            Admit::Granted(g) => g,
            other => panic!("expected grant, got {other:?}"),
        };
        assert!(matches!(adm.try_admit("c", &obs), Admit::ShedOverload));
        assert_eq!(adm.inflight(), 2);
        drop(g1);
        assert!(matches!(adm.try_admit("c", &obs), Admit::Granted(_)));
    }

    #[test]
    fn token_bucket_sheds_per_tenant_not_globally() {
        let obs = Obs::new();
        // 1 token/s refill, burst of 2: the third immediate query sheds.
        let adm = Admission::new(0, 1.0, 2.0);
        assert!(matches!(adm.try_admit("noisy", &obs), Admit::Granted(_)));
        assert!(matches!(adm.try_admit("noisy", &obs), Admit::Granted(_)));
        assert!(matches!(adm.try_admit("noisy", &obs), Admit::ShedQuota));
        // A different tenant has its own full bucket.
        assert!(matches!(adm.try_admit("quiet", &obs), Admit::Granted(_)));
        // A quota shed does not leak an in-flight slot.
        assert_eq!(adm.inflight(), 0, "guards dropped, quota shed released its slot");
    }

    #[test]
    fn zero_limits_disable_shedding() {
        let obs = Obs::new();
        let adm = Admission::new(0, 0.0, 0.0);
        for _ in 0..64 {
            assert!(matches!(adm.try_admit("t", &obs), Admit::Granted(_)));
        }
    }

    #[test]
    fn tenant_ids_are_sanitized() {
        assert_eq!(sanitize_tenant(None), "anon");
        assert_eq!(sanitize_tenant(Some("")), "anon");
        assert_eq!(sanitize_tenant(Some("team-a")), "team-a");
        assert_eq!(sanitize_tenant(Some("a b\"c{d}")), "a_b_c_d_");
        assert_eq!(sanitize_tenant(Some(&"x".repeat(64))).len(), 32);
    }
}
