//! Deterministic fault injection for simulated Internet sources.
//!
//! The paper mediates over *Internet* sources, where unavailability and
//! partial failure are the common case; a perfectly reliable simulation
//! would leave every resilience path in the stack untested. A
//! [`FaultProfile`] attached to a [`Source`](crate::Source) makes
//! unreliability a first-class, *seeded* dimension: every query attempt
//! consumes one index of a per-source counter, and the fault decision is a
//! pure function of `(profile, attempt index)`. No wall-clock enters any
//! decision — latency is simulated in virtual **ticks** — so a fixed seed
//! reproduces the exact same fault sequence on every run, serial or
//! parallel.
//!
//! Fault taxonomy (each surfaces as its own
//! [`SourceError`](crate::SourceError) variant):
//!
//! - **transient** — a momentary network-style failure; retry-worthy;
//! - **timeout** — the attempt burns [`FaultProfile::timeout_ticks`] of
//!   virtual time and returns nothing;
//! - **rate limit** — the source rejects the attempt without doing work;
//! - **outage** — a hard window over the attempt index during which every
//!   attempt fails ([`OutageWindow`]).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Mixing constant decorrelating per-attempt PRNG streams (SplitMix64's
/// golden-ratio increment).
const ATTEMPT_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// A half-open window `[start, start + len)` over the per-source attempt
/// index during which the source is hard-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// First attempt index that fails.
    pub start: u64,
    /// Number of consecutive failing attempts.
    pub len: u64,
}

impl OutageWindow {
    /// Does `attempt` fall inside the window?
    pub fn contains(&self, attempt: u64) -> bool {
        attempt >= self.start && attempt - self.start < self.len
    }
}

/// The fault injected into one query attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Hard outage: the attempt index fell in an [`OutageWindow`].
    Outage,
    /// Momentary failure; a retry may succeed.
    Transient,
    /// The attempt timed out after `timeout_ticks` of virtual latency.
    Timeout,
    /// The source shed load without doing any work.
    RateLimited,
}

/// A seeded, deterministic unreliability model for one source.
///
/// All probabilities are per *attempt*. Construction is builder-style:
///
/// ```
/// use csqp_source::fault::FaultProfile;
/// let p = FaultProfile::new(42).with_transient(0.2).with_timeout(0.1, 500);
/// // Pure function of (profile, attempt index): replays identically.
/// assert_eq!(p.decide(7), p.decide(7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Seed of the per-source fault stream.
    pub seed: u64,
    /// Probability an attempt fails with [`Fault::Transient`].
    pub transient_prob: f64,
    /// Probability an attempt fails with [`Fault::Timeout`].
    pub timeout_prob: f64,
    /// Probability an attempt fails with [`Fault::RateLimited`].
    pub rate_limit_prob: f64,
    /// Virtual ticks a successful (or transient/rate-limited) attempt
    /// takes.
    pub latency_ticks: u64,
    /// Virtual ticks burned by a timed-out attempt (≥ `latency_ticks` in
    /// any sane profile).
    pub timeout_ticks: u64,
    /// Hard-down windows over the attempt index.
    pub outages: Vec<OutageWindow>,
}

impl FaultProfile {
    /// A reliable profile (all probabilities zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultProfile {
            seed,
            transient_prob: 0.0,
            timeout_prob: 0.0,
            rate_limit_prob: 0.0,
            latency_ticks: 1,
            timeout_ticks: 10,
            outages: Vec::new(),
        }
    }

    /// Sets the transient-failure probability.
    pub fn with_transient(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of [0,1]: {p}");
        self.transient_prob = p;
        self
    }

    /// Sets the timeout probability and the ticks a timeout burns.
    pub fn with_timeout(mut self, p: f64, timeout_ticks: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of [0,1]: {p}");
        self.timeout_prob = p;
        self.timeout_ticks = timeout_ticks;
        self
    }

    /// Sets the rate-limit probability.
    pub fn with_rate_limit(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of [0,1]: {p}");
        self.rate_limit_prob = p;
        self
    }

    /// Sets the per-attempt simulated latency.
    pub fn with_latency(mut self, ticks: u64) -> Self {
        self.latency_ticks = ticks;
        self
    }

    /// Adds a hard-outage window `[start, start + len)`.
    pub fn with_outage(mut self, start: u64, len: u64) -> Self {
        self.outages.push(OutageWindow { start, len });
        self
    }

    /// A chaos-storm preset: `intensity` in `[0, 1]` scales every failure
    /// mode at once (used by the chaos suite and `csqp --chaos`).
    pub fn storm(seed: u64, intensity: f64) -> Self {
        assert!((0.0..=1.0).contains(&intensity), "intensity out of [0,1]: {intensity}");
        FaultProfile::new(seed)
            .with_transient(0.25 * intensity)
            .with_timeout(0.10 * intensity, 20)
            .with_rate_limit(0.10 * intensity)
            .with_latency(2)
    }

    /// The fault (if any) injected into attempt number `attempt` — a pure
    /// function of the profile and the index, so traces replay exactly.
    pub fn decide(&self, attempt: u64) -> Option<Fault> {
        if self.outages.iter().any(|w| w.contains(attempt)) {
            return Some(Fault::Outage);
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ attempt.wrapping_mul(ATTEMPT_MIX));
        // Fixed draw order keeps the stream stable as probabilities vary.
        if rng.random_bool(self.transient_prob) {
            return Some(Fault::Transient);
        }
        if rng.random_bool(self.timeout_prob) {
            return Some(Fault::Timeout);
        }
        if rng.random_bool(self.rate_limit_prob) {
            return Some(Fault::RateLimited);
        }
        None
    }

    /// Virtual ticks attempt `fault` consumes under this profile.
    pub fn ticks_for(&self, fault: Option<Fault>) -> u64 {
        match fault {
            Some(Fault::Timeout) => self.timeout_ticks,
            // Outages and rate limits reject without doing work.
            Some(Fault::Outage) | Some(Fault::RateLimited) => 0,
            Some(Fault::Transient) | None => self.latency_ticks,
        }
    }
}

/// One run's resilience metrics, alongside its transfer
/// [`Meter`](crate::Meter).
///
/// The run meters itself: the streaming engine counts the attempts,
/// retries, ticks (source latency plus backoff) and the kinds of the faults
/// its round-trips received, and the federation's member splices add
/// `failovers`. A [`Source`](crate::Source) keeps no per-kind fault count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceMeter {
    /// Query attempts issued (executor-side: includes retries).
    pub attempts: u64,
    /// Re-attempts after a retryable failure.
    pub retries: u64,
    /// Transient faults observed.
    pub transients: u64,
    /// Timeouts observed.
    pub timeouts: u64,
    /// Rate-limit rejections observed.
    pub rate_limited: u64,
    /// Hard-outage rejections observed.
    pub outages: u64,
    /// Plan- or member-level failovers taken.
    pub failovers: u64,
    /// Virtual ticks consumed (simulated latency + backoff).
    pub ticks: u64,
}

impl ResilienceMeter {
    /// Total injected faults observed.
    pub fn faults(&self) -> u64 {
        self.transients + self.timeouts + self.rate_limited + self.outages
    }

    /// Adds this meter's counters to `metrics` under the canonical
    /// `resilience.*` names. Every summary of resilience activity (the
    /// `--chaos` demo, `--metrics json`, `Mediator::metrics_snapshot`)
    /// goes through this one adapter, so they can never disagree.
    pub fn record_into(&self, metrics: &csqp_obs::MetricsRegistry) {
        use csqp_obs::names;
        metrics.add(names::RESILIENCE_ATTEMPTS, self.attempts);
        metrics.add(names::RESILIENCE_RETRIES, self.retries);
        metrics.add(names::RESILIENCE_TRANSIENTS, self.transients);
        metrics.add(names::RESILIENCE_TIMEOUTS, self.timeouts);
        metrics.add(names::RESILIENCE_RATE_LIMITED, self.rate_limited);
        metrics.add(names::RESILIENCE_OUTAGES, self.outages);
        metrics.add(names::RESILIENCE_FAILOVERS, self.failovers);
        metrics.add(names::RESILIENCE_BACKOFF_TICKS, self.ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let p = FaultProfile::storm(11, 0.8);
        let a: Vec<_> = (0..64).map(|i| p.decide(i)).collect();
        let b: Vec<_> = (0..64).map(|i| p.decide(i)).collect();
        assert_eq!(a, b, "same profile, same stream");
        let q = FaultProfile::storm(12, 0.8);
        let c: Vec<_> = (0..64).map(|i| q.decide(i)).collect();
        assert_ne!(a, c, "different seed, different stream");
        assert!(a.iter().any(|f| f.is_some()), "storm at 0.8 injects faults");
        assert!(a.iter().any(|f| f.is_none()), "storm at 0.8 lets queries through");
    }

    #[test]
    fn reliable_profile_never_faults() {
        let p = FaultProfile::new(7);
        assert!((0..256).all(|i| p.decide(i).is_none()));
    }

    #[test]
    fn outage_windows_are_exact() {
        let p = FaultProfile::new(0).with_outage(3, 2);
        assert_eq!(p.decide(2), None);
        assert_eq!(p.decide(3), Some(Fault::Outage));
        assert_eq!(p.decide(4), Some(Fault::Outage));
        assert_eq!(p.decide(5), None);
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let p = FaultProfile::new(5).with_transient(0.3);
        let hits = (0..20_000).filter(|&i| p.decide(i).is_some()).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "p=0.3 gave {frac}");
    }

    #[test]
    fn ticks_per_fault_kind() {
        let p = FaultProfile::new(0).with_latency(3).with_timeout(0.0, 40);
        assert_eq!(p.ticks_for(None), 3);
        assert_eq!(p.ticks_for(Some(Fault::Transient)), 3);
        assert_eq!(p.ticks_for(Some(Fault::Timeout)), 40);
        assert_eq!(p.ticks_for(Some(Fault::RateLimited)), 0);
        assert_eq!(p.ticks_for(Some(Fault::Outage)), 0);
    }

    #[test]
    fn meter_records_into_registry() {
        let m = ResilienceMeter { attempts: 3, retries: 1, ticks: 9, ..Default::default() };
        for reg in [csqp_obs::MetricsRegistry::new(), csqp_obs::MetricsRegistry::off()] {
            m.record_into(&reg);
            let snap = reg.snapshot();
            if reg.enabled() {
                assert_eq!(snap.counter("resilience.attempts"), 3);
                assert_eq!(snap.counter("resilience.retries"), 1);
                assert_eq!(snap.counter("resilience.backoff_ticks"), 9);
            } else {
                assert!(snap.counters.is_empty(), "off registry records nothing");
            }
        }
    }
}
