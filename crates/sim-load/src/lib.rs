//! Open-loop workload engine.
//!
//! Every figure the repo reproduces drives the server with *closed-loop*
//! clients: a fixed population of slots, each starting its next
//! connection only after the previous one finishes. Closed loops
//! self-throttle — under overload the offered rate silently collapses to
//! the service rate, so latency looks fine right up to saturation. Real
//! serving systems are evaluated *open-loop*: connections arrive on a
//! schedule that does not care how the server is doing, and overload
//! shows up as queueing delay, timeouts and abandonment.
//!
//! This crate provides the pieces, all driven from [`sim_core::SimRng`]
//! so a seeded run is bit-reproducible:
//!
//! * [`ArrivalProcess`] — Poisson or MMPP (burst/flash-crowd) arrivals;
//! * [`RateProfile`] — constant or diurnal modulation of the rate;
//! * [`OpenLoopConfig`] — the knob block `fastsocket::SimConfig` embeds
//!   (closed loop remains the default everywhere): arrivals, population,
//!   patience and the long-lived [`LongLivedMix`]. Each session's shape
//!   (request and response size, requests per connection, connect
//!   timeout) is the closed loop's, read from the embedding config;
//! * [`LoadReport`] — offered/admitted/abandoned accounting plus the
//!   arrival-schedule digest, attached to the run report;
//! * [`ScheduleDigest`] — the FNV-1a accumulator that fingerprints the
//!   arrival schedule for the determinism gates;
//! * [`BackoffPolicy`] — capped exponential retry backoff with jitter,
//!   used by the edge tier's failover retries (a failing backend turns
//!   clients into a synchronized re-arrival source — a load problem).

pub mod arrival;
pub mod backoff;

pub use arrival::{ArrivalGen, ArrivalProcess, MmppPhase, RateProfile, DEFAULT_DIURNAL};
pub use backoff::BackoffPolicy;

use serde::{Deserialize, Serialize};
use sim_core::{secs_to_cycles, Cycles};

/// Configuration of the open-loop client population.
///
/// Embedded as `SimConfig::open_loop`; when present, the simulation
/// replaces the closed-loop recycle (slot finishes → slot restarts)
/// with schedule-driven admission: arrivals claim a free slot, wait in
/// a FIFO backlog when the population is exhausted, and abandon after
/// [`patience`](Self::patience). An admitted session is shaped like a
/// closed-loop connection: `SimConfig::workload` sets its request size
/// and requests per connection, and `SimConfig::client_timeout` its
/// connect timeout.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Deterministic rate modulation over the run.
    pub profile: RateProfile,
    /// Client population: the maximum number of concurrently open
    /// connections (each maps to one source IP, as in the closed loop).
    pub population: u32,
    /// How long an arrival waits in the admission backlog for a free
    /// slot before abandoning (`abandoned_wait`).
    pub patience: Cycles,
    /// Optional long-lived (WebSocket-like) session mix: a fraction of
    /// arrivals exchange a few requests and then sit idle, holding
    /// their connection open, before closing. `None` (the default)
    /// keeps the pure short-lived storm and the legacy arrival digest.
    pub longlived: Option<LongLivedMix>,
}

/// Shape of the long-lived slice of an open-loop population
/// ([`OpenLoopConfig::longlived`]). Long-lived sessions are what turn a
/// connections-per-second benchmark into a concurrent-connections one:
/// each held connection pins TCB and buffer memory for its whole hold.
#[derive(Debug, Clone, Copy)]
pub struct LongLivedMix {
    /// Probability that an arrival is long-lived (drawn per arrival
    /// from the shape stream).
    pub fraction: f64,
    /// Requests a long-lived session exchanges before going idle.
    pub requests: u32,
    /// Idle hold after the last response, in cycles, before the client
    /// closes.
    pub hold: Cycles,
}

impl LongLivedMix {
    /// A mix where `fraction` of arrivals hold their connection idle
    /// for `hold_secs` after two requests.
    pub fn fraction_held(fraction: f64, hold_secs: f64) -> LongLivedMix {
        assert!((0.0..=1.0).contains(&fraction), "fraction is a probability");
        LongLivedMix {
            fraction,
            requests: 2,
            hold: secs_to_cycles(hold_secs),
        }
    }

    /// Sets the requests exchanged before the idle hold (builder
    /// style).
    pub fn requests(mut self, n: u32) -> Self {
        assert!(n >= 1, "a session exchanges at least one request");
        self.requests = n;
        self
    }
}

impl OpenLoopConfig {
    /// Poisson arrivals at `rate_cps`, 1 s patience, population 2048,
    /// no long-lived mix.
    pub fn poisson(rate_cps: f64) -> OpenLoopConfig {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Poisson { rate_cps },
            profile: RateProfile::Constant,
            population: 2_048,
            patience: secs_to_cycles(1.0),
            longlived: None,
        }
    }

    /// MMPP arrivals cycling through `phases`, otherwise as
    /// [`poisson`](Self::poisson).
    pub fn mmpp(phases: Vec<MmppPhase>) -> OpenLoopConfig {
        OpenLoopConfig {
            arrivals: ArrivalProcess::Mmpp { phases },
            ..OpenLoopConfig::poisson(1.0)
        }
    }

    /// Sets the rate profile (builder style).
    pub fn profile(mut self, profile: RateProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the client population (builder style).
    pub fn population(mut self, n: u32) -> Self {
        assert!(n >= 1, "population must be at least 1");
        self.population = n;
        self
    }

    /// Sets the admission patience in seconds (builder style).
    pub fn patience_secs(mut self, secs: f64) -> Self {
        self.patience = secs_to_cycles(secs);
        self
    }

    /// Mixes long-lived held sessions into the arrival stream (builder
    /// style).
    pub fn longlived(mut self, mix: LongLivedMix) -> Self {
        self.longlived = Some(mix);
        self
    }

    /// The per-lane share of this config for lane `lane` of `lanes`:
    /// arrivals thinned to `1/lanes` of the rate, population divided
    /// with the remainder going to the lowest lanes, everything else
    /// (patience, the long-lived mix) unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lanes` or the lane's population share is 0
    /// (more lanes than population).
    pub fn split(&self, lane: u32, lanes: u32) -> OpenLoopConfig {
        assert!(lane < lanes, "lane {lane} out of range for {lanes} lanes");
        let share = self.population / lanes + u32::from(lane < self.population % lanes);
        assert!(
            share >= 1,
            "population {} cannot be split {lanes} ways",
            self.population
        );
        OpenLoopConfig {
            arrivals: self.arrivals.split(lanes),
            population: share,
            ..self.clone()
        }
    }
}

/// Open-loop accounting attached to the run report. Counters cover the
/// whole run (warmup included): the schedule exists independently of
/// the measurement window, and the digest must fingerprint all of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Arrivals generated by the schedule.
    pub offered: u64,
    /// Sessions that claimed a slot and sent a SYN.
    pub admitted: u64,
    /// Of `admitted`, how many waited in the backlog first.
    pub queued_admissions: u64,
    /// Arrivals that gave up waiting for a free slot.
    pub abandoned_wait: u64,
    /// Admitted sessions that hit the connect timeout (RST sent).
    pub abandoned_connect: u64,
    /// Admitted sessions that ran to an end (including server resets).
    pub completed_sessions: u64,
    /// Deepest admission backlog observed.
    pub peak_backlog: u64,
    /// Mean offered rate over the whole run, in connections/sec.
    pub offered_cps: f64,
    /// FNV-1a digest over (arrival cycle, request size, session length)
    /// for every arrival — same seed ⇒ same digest, regardless of the
    /// kernel under test or how the server behaved.
    pub schedule_digest: String,
}

/// FNV-1a accumulator fingerprinting the arrival schedule.
#[derive(Debug, Clone)]
pub struct ScheduleDigest {
    h: u64,
}

impl ScheduleDigest {
    /// The empty digest (FNV offset basis).
    pub fn new() -> ScheduleDigest {
        ScheduleDigest {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds one 64-bit word (little-endian bytes) into the digest.
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The digest so far, as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.h)
    }
}

impl Default for ScheduleDigest {
    fn default() -> Self {
        ScheduleDigest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_chain() {
        let c = OpenLoopConfig::poisson(50_000.0)
            .population(4_000)
            .patience_secs(0.25);
        assert_eq!(c.population, 4_000);
        assert_eq!(c.patience, secs_to_cycles(0.25));
        assert!(c.longlived.is_none());
    }

    #[test]
    fn mmpp_constructor_carries_phases() {
        let c = OpenLoopConfig::mmpp(vec![MmppPhase {
            rate_cps: 10_000.0,
            mean_dwell_secs: 0.1,
        }]);
        assert!(matches!(c.arrivals, ArrivalProcess::Mmpp { .. }));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = ScheduleDigest::new();
        a.push(1);
        a.push(2);
        let mut b = ScheduleDigest::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(ScheduleDigest::new().hex(), ScheduleDigest::default().hex());
    }

    #[test]
    fn split_divides_rate_and_population() {
        let c = OpenLoopConfig::poisson(90_000.0).population(10);
        let parts: Vec<_> = (0..3).map(|l| c.split(l, 3)).collect();
        let mut pop = 0;
        let mut rate = 0.0;
        for p in &parts {
            pop += p.population;
            let ArrivalProcess::Poisson { rate_cps } = p.arrivals else {
                panic!("split changed the process kind");
            };
            rate += rate_cps;
            assert_eq!(p.patience, c.patience);
        }
        assert_eq!(pop, 10);
        assert_eq!(parts[0].population, 4); // remainder goes low
        assert!((rate - 90_000.0).abs() < 1e-6);
    }

    #[test]
    fn split_mmpp_preserves_dwell() {
        let c = OpenLoopConfig::mmpp(vec![MmppPhase {
            rate_cps: 40_000.0,
            mean_dwell_secs: 0.1,
        }]);
        let part = c.split(0, 2);
        let ArrivalProcess::Mmpp { phases } = &part.arrivals else {
            panic!("split changed the process kind");
        };
        assert!((phases[0].rate_cps - 20_000.0).abs() < 1e-9);
        assert!((phases[0].mean_dwell_secs - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot be split")]
    fn split_rejects_starved_lane() {
        let _ = OpenLoopConfig::poisson(1_000.0).population(2).split(2, 3);
    }

    #[test]
    fn longlived_mix_flows_through_split() {
        let c = OpenLoopConfig::poisson(1_000.0)
            .population(8)
            .longlived(LongLivedMix::fraction_held(0.25, 5.0).requests(3));
        let part = c.split(1, 2);
        let m = part.longlived.expect("mix carries through split");
        assert_eq!(m.requests, 3);
        assert!((m.fraction - 0.25).abs() < 1e-12);
        assert!(m.hold > 0);
    }

    /// The hex form carries the whole word, so a sharded run can parse
    /// its lanes' digests back and hash them together.
    #[test]
    fn digest_value_matches_hex() {
        let mut d = ScheduleDigest::new();
        d.push(7);
        assert_eq!(u64::from_str_radix(&d.hex(), 16), Ok(d.h));
    }

    #[test]
    fn load_report_round_trips_through_json() {
        let r = LoadReport {
            offered: 10,
            admitted: 9,
            queued_admissions: 2,
            abandoned_wait: 1,
            abandoned_connect: 0,
            completed_sessions: 9,
            peak_backlog: 3,
            offered_cps: 1_000.0,
            schedule_digest: "00ff00ff00ff00ff".into(),
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: LoadReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
