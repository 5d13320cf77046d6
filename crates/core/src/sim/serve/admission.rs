//! Per-tenant admission control guarding the SµDC compute queues: a
//! deterministic token bucket for rate limiting plus backlog-triggered
//! shedding by tenant class. Admission draws no RNG — decisions are
//! pure functions of sim time and queue state, so serve runs replay
//! byte-identically.

use units::Time;

use crate::sim::serve::config::{TenantClass, SHED_THRESHOLD_S};

/// A continuous-refill token bucket: `rate` tokens per second up to a
/// `burst` ceiling, one token per admitted request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_refill_s: f64,
}

impl TokenBucket {
    /// A bucket that starts full (a quiet tenant can burst
    /// immediately).
    pub fn new(rate: f64, burst: f64) -> TokenBucket {
        let burst = burst.max(1.0);
        TokenBucket {
            rate: rate.max(0.0),
            burst,
            tokens: burst,
            last_refill_s: 0.0,
        }
    }

    /// Refills for the elapsed sim time, then takes one token if
    /// available. `false` means the request is throttled.
    pub fn take(&mut self, now: Time) -> bool {
        let now_s = now.as_secs();
        let elapsed = (now_s - self.last_refill_s).max(0.0);
        self.tokens = self.rate.mul_add(elapsed, self.tokens).min(self.burst);
        self.last_refill_s = now_s;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after the last refill point).
    #[cfg(test)]
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// The admission verdict for one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admit into the network toward its SµDC.
    Admit,
    /// Rejected: the tenant's token bucket ran dry.
    Throttled,
    /// Rejected: the destination SµDC's backlog crossed the tenant
    /// class's shedding threshold.
    Shed,
}

/// Decides admission for a request of `class` heading to a SµDC whose
/// compute backlog is `backlog_s` seconds deep. Throttling is checked
/// first (and consumes the token), then class shedding past
/// [`SHED_THRESHOLD_S`] scaled by the class's headroom: a premium
/// tenant rides out backlog a best-effort tenant is shed at.
pub fn admit(bucket: &mut TokenBucket, class: TenantClass, backlog_s: f64, now: Time) -> Admission {
    if !bucket.take(now) {
        return Admission::Throttled;
    }
    if backlog_s > SHED_THRESHOLD_S * class.shed_headroom() {
        return Admission::Shed;
    }
    Admission::Admit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_spends_its_burst_then_throttles() {
        let mut b = TokenBucket::new(10.0, 3.0);
        assert!(b.take(Time::ZERO));
        assert!(b.take(Time::ZERO));
        assert!(b.take(Time::ZERO));
        assert!(!b.take(Time::ZERO), "burst exhausted");
    }

    #[test]
    fn bucket_refills_with_sim_time_up_to_burst() {
        let mut b = TokenBucket::new(2.0, 4.0);
        for _ in 0..4 {
            assert!(b.take(Time::ZERO));
        }
        assert!(!b.take(Time::from_secs(0.1)), "0.2 tokens accrued");
        assert!(b.take(Time::from_secs(0.5)), "one token accrued");
        // A long quiet period caps at the burst, not rate × elapsed.
        let mut c = TokenBucket::new(2.0, 4.0);
        for _ in 0..4 {
            assert!(c.take(Time::from_secs(100.0)));
        }
        assert!(!c.take(Time::from_secs(100.0)));
    }

    #[test]
    fn shedding_respects_class_headroom() {
        let mut bucket = TokenBucket::new(1000.0, 1000.0);
        let backlog = 1.5 * SHED_THRESHOLD_S; // between best-effort and premium
        assert_eq!(
            admit(&mut bucket, TenantClass::Premium, backlog, Time::ZERO),
            Admission::Admit
        );
        assert_eq!(
            admit(&mut bucket, TenantClass::BestEffort, backlog, Time::ZERO),
            Admission::Shed
        );
    }

    mod properties {
        use super::*;
        use simkit::prop::{self, any};

        /// Refill caps at the burst ceiling no matter how the
        /// take/idle pattern interleaves, and never goes negative.
        #[test]
        fn refill_never_exceeds_burst() {
            prop::check("refill_never_exceeds_burst", 256, |g| {
                let rate = g.draw(0.0f64..50.0);
                let burst = g.draw(0.0f64..20.0);
                let steps = g.draw(prop::vec((0.0f64..5.0, any::<bool>()), 1..64));

                let mut b = TokenBucket::new(rate, burst);
                let cap = burst.max(1.0);
                let mut now_s = 0.0;
                for (dt, spend) in steps {
                    now_s += dt;
                    if spend {
                        b.take(Time::from_secs(now_s));
                    }
                    assert!(
                        b.available() <= cap + 1e-9,
                        "tokens {} above cap {cap}",
                        b.available()
                    );
                    assert!(b.available() >= 0.0);
                }
            });
        }

        /// Conservation: a run can never admit more requests than
        /// were offered, nor more than the initial burst plus
        /// everything the rate refilled over the elapsed sim time.
        #[test]
        fn admitted_is_bounded_by_offered_and_refill() {
            prop::check("admitted_is_bounded_by_offered_and_refill", 256, |g| {
                let rate = g.draw(0.0f64..50.0);
                let burst = g.draw(0.0f64..20.0);
                let dts = g.draw(prop::vec(0.0f64..2.0, 1..128));

                let mut b = TokenBucket::new(rate, burst);
                let offered = dts.len() as u64;
                let mut admitted = 0u64;
                let mut now_s = 0.0;
                for dt in dts {
                    now_s += dt;
                    if b.take(Time::from_secs(now_s)) {
                        admitted += 1;
                    }
                }
                assert!(admitted <= offered);
                let budget = burst.max(1.0) + rate * now_s;
                assert!(
                    (admitted as f64) <= budget + 1e-6,
                    "admitted {admitted} above token budget {budget}"
                );
            });
        }
    }

    #[test]
    fn throttling_is_checked_before_shedding_and_spends_the_token() {
        let mut bucket = TokenBucket::new(0.0, 1.0);
        assert_eq!(
            admit(&mut bucket, TenantClass::Premium, 1e9, Time::ZERO),
            Admission::Shed,
            "token available: the deep backlog sheds the request"
        );
        assert_eq!(
            admit(&mut bucket, TenantClass::Premium, 0.0, Time::ZERO),
            Admission::Throttled,
            "the shed request still consumed its token"
        );
    }
}
