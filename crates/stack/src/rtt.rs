//! Round-trip estimation and retransmission timeout (RFC 6298,
//! Jacobson/Karels).
//!
//! One estimator serves every protocol that measures its timeout:
//! TCP per socket and the collective engine per group. Karn's rule —
//! never sample a retransmitted transmission — is the caller's job,
//! because only the caller knows which reply answers which send.

use nectar_sim::SimDuration;

/// Smoothed RTT, RTT variance, and the current (possibly backed-off)
/// RTO, clamped to `[min, max]` whenever a sample or backoff moves it.
#[derive(Clone, Copy, Debug)]
pub struct RttEstimator {
    srtt_ns: Option<i64>,
    rttvar_ns: i64,
    rto: SimDuration,
    min: SimDuration,
    max: SimDuration,
}

impl RttEstimator {
    /// An estimator with no samples yet: the RTO is `initial` until the
    /// first sample or timeout moves it.
    pub fn new(initial: SimDuration, min: SimDuration, max: SimDuration) -> Self {
        RttEstimator { srtt_ns: None, rttvar_ns: 0, rto: initial, min, max }
    }

    /// The retransmission timeout to arm now.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Fold in one clean round-trip sample and recompute
    /// `RTO = SRTT + 4·RTTVAR`, which also ends any backoff.
    pub fn sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_nanos() as i64;
        match self.srtt_ns {
            None => {
                self.srtt_ns = Some(r);
                self.rttvar_ns = r / 2;
            }
            Some(srtt) => {
                let err = r - srtt;
                self.srtt_ns = Some(srtt + err / 8);
                self.rttvar_ns += (err.abs() - self.rttvar_ns) / 4;
            }
        }
        let rto_ns = self.srtt_ns.unwrap_or(0) + 4 * self.rttvar_ns;
        self.rto = SimDuration::from_nanos(rto_ns.max(0) as u64).max(self.min).min(self.max);
    }

    /// Exponential backoff after a timeout: double the RTO, up to `max`.
    pub fn back_off(&mut self) {
        self.rto = (self.rto * 2).min(self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// `TcpConfig::default()`'s timer values.
    fn tcp() -> RttEstimator {
        RttEstimator::new(ms(100), ms(10), SimDuration::from_secs(60))
    }

    #[test]
    fn initial_rto_is_unclamped_until_moved() {
        let e = RttEstimator::new(ms(1), ms(10), ms(20));
        assert_eq!(e.rto(), ms(1));
        assert_eq!(e.srtt_ns, None);
    }

    #[test]
    fn first_sample_sets_srtt_and_half_variance() {
        let mut e = tcp();
        e.sample(ms(40));
        assert_eq!(e.srtt_ns, Some(40_000_000));
        assert_eq!(e.rttvar_ns, 20_000_000);
        // 40 + 4 × 20
        assert_eq!(e.rto(), ms(120));
    }

    #[test]
    fn later_samples_smooth_by_eighths_and_quarters() {
        let mut e = tcp();
        e.sample(ms(40));
        e.sample(ms(80));
        // err = 40: srtt += 40/8, rttvar += (40 - 20)/4
        assert_eq!(e.srtt_ns, Some(45_000_000));
        assert_eq!(e.rttvar_ns, 25_000_000);
        assert_eq!(e.rto(), ms(145));
        e.sample(ms(45));
        // err = 0: srtt holds, rttvar decays by a quarter
        assert_eq!(e.srtt_ns, Some(45_000_000));
        assert_eq!(e.rttvar_ns, 18_750_000);
        assert_eq!(e.rto(), ms(120));
    }

    #[test]
    fn rto_clamps_to_min_and_max() {
        let mut e = tcp();
        e.sample(SimDuration::from_micros(100));
        assert_eq!(e.rto(), ms(10), "a LAN sample is floored at rto_min");
        let mut e = RttEstimator::new(ms(2), ms(2), ms(50));
        e.sample(ms(30));
        assert_eq!(e.rto(), ms(50), "30 + 4 × 15 is capped at max");
    }

    #[test]
    fn back_off_doubles_to_the_cap_and_a_sample_ends_it() {
        let mut e = RttEstimator::new(ms(2), ms(2), ms(10));
        e.back_off();
        assert_eq!(e.rto(), ms(4));
        e.back_off();
        e.back_off();
        assert_eq!(e.rto(), ms(10));
        e.sample(SimDuration::from_micros(300));
        assert_eq!(e.rto(), ms(2));
    }
}
