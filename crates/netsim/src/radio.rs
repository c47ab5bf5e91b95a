//! The radio propagation model: log-distance path loss with Gaussian
//! shadowing, producing the per-reception RSSI values that Kalis' Mobility
//! Awareness and Sybil/replication detectors observe.

use rand::Rng;

/// Radio parameters for one node.
///
/// RSSI at distance `d` follows the log-distance path-loss model:
///
/// `rssi(d) = tx_power - pl0 - 10 · n · log10(d / d0) + X`
///
/// where `X ~ N(0, shadowing_std)` models shadowing. Frames are received
/// when the distance is within `range_m` (a hard disc model keeps topology
/// ground truth crisp for evaluation).
///
/// # Examples
///
/// ```
/// use kalis_netsim::radio::RadioConfig;
///
/// let radio = RadioConfig::default();
/// let near = radio.mean_rssi_dbm(1.0);
/// let far = radio.mean_rssi_dbm(20.0);
/// assert!(near > far);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadioConfig {
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance, in dB.
    pub(crate) pl0_db: f64,
    /// Reference distance in meters.
    pub(crate) d0_m: f64,
    /// Path-loss exponent (2 free space … 4 indoor).
    pub path_loss_exponent: f64,
    /// Standard deviation of log-normal shadowing, in dB.
    pub shadowing_std_db: f64,
    /// Hard reception range in meters.
    pub(crate) range_m: f64,
    /// Probability that an in-range frame is lost anyway (collisions,
    /// interference). 0.0 by default for deterministic scenarios.
    pub(crate) loss_rate: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        // 802.15.4-class radio: 0 dBm TX, ~15 m indoor range.
        RadioConfig {
            tx_power_dbm: 0.0,
            pl0_db: 40.0,
            d0_m: 1.0,
            path_loss_exponent: 2.7,
            shadowing_std_db: 1.5,
            range_m: 15.0,
            loss_rate: 0.0,
        }
    }
}

impl RadioConfig {
    /// A WiFi-class radio: stronger TX, longer range.
    pub fn wifi() -> Self {
        RadioConfig {
            tx_power_dbm: 20.0,
            pl0_db: 40.0,
            d0_m: 1.0,
            path_loss_exponent: 2.4,
            shadowing_std_db: 2.0,
            range_m: 50.0,
            loss_rate: 0.0,
        }
    }

    /// A lossy variant of this radio.
    #[cfg(test)]
    pub(crate) fn with_loss(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate.clamp(0.0, 1.0);
        self
    }

    /// An 802.15.4-class radio (the default), named for readability.
    pub fn ieee802154() -> Self {
        RadioConfig::default()
    }

    /// A BLE-class radio: weak TX, short range.
    pub fn ble() -> Self {
        RadioConfig {
            tx_power_dbm: -4.0,
            pl0_db: 40.0,
            d0_m: 1.0,
            path_loss_exponent: 2.7,
            shadowing_std_db: 2.0,
            range_m: 10.0,
            loss_rate: 0.0,
        }
    }

    /// The deterministic (mean) RSSI at `distance_m`, without shadowing.
    pub fn mean_rssi_dbm(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.d0_m / 10.0);
        self.tx_power_dbm - self.pl0_db - 10.0 * self.path_loss_exponent * (d / self.d0_m).log10()
    }

    /// Sample a received signal strength at `distance_m`, adding shadowing
    /// noise drawn from `rng`.
    pub(crate) fn sample_rssi_dbm<R: Rng + ?Sized>(&self, distance_m: f64, rng: &mut R) -> f64 {
        let noise = if self.shadowing_std_db > 0.0 {
            // Box–Muller transform; two uniforms → one standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        } else {
            0.0
        };
        self.mean_rssi_dbm(distance_m) + noise * self.shadowing_std_db
    }

    /// Whether a receiver at `distance_m` hears this transmitter at all.
    pub(crate) fn in_range(&self, distance_m: f64) -> bool {
        distance_m <= self.range_m
    }

    /// Sample whether an in-range frame is actually received (subject to
    /// the loss rate).
    pub(crate) fn sample_delivery<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.loss_rate <= 0.0 || rng.gen::<f64>() >= self.loss_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rssi_monotonically_decreases_with_distance() {
        let radio = RadioConfig::default();
        let mut prev = f64::INFINITY;
        for d in [0.5, 1.0, 2.0, 5.0, 10.0, 15.0] {
            let rssi = radio.mean_rssi_dbm(d);
            assert!(rssi < prev, "rssi must decrease: {rssi} at {d}");
            prev = rssi;
        }
    }

    #[test]
    fn shadowing_has_bounded_spread() {
        let radio = RadioConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mean = radio.mean_rssi_dbm(5.0);
        let samples: Vec<f64> = (0..1000)
            .map(|_| radio.sample_rssi_dbm(5.0, &mut rng))
            .collect();
        let avg = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(
            (avg - mean).abs() < 0.5,
            "sample mean {avg} vs model mean {mean}"
        );
        // ~99.7% of samples within 3 sigma.
        let outliers = samples
            .iter()
            .filter(|s| (*s - mean).abs() > 4.0 * radio.shadowing_std_db)
            .count();
        assert!(outliers < 5);
    }

    #[test]
    fn zero_shadowing_is_deterministic() {
        let radio = RadioConfig {
            shadowing_std_db: 0.0,
            ..RadioConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            radio.sample_rssi_dbm(3.0, &mut rng),
            radio.mean_rssi_dbm(3.0)
        );
    }

    #[test]
    fn range_disc() {
        let radio = RadioConfig::default();
        assert!(radio.in_range(14.9));
        assert!(!radio.in_range(15.1));
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let radio = RadioConfig::default();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(
                radio.sample_rssi_dbm(4.0, &mut a),
                radio.sample_rssi_dbm(4.0, &mut b)
            );
        }
    }

    #[test]
    fn loss_rate_drops_roughly_the_configured_fraction() {
        let radio = RadioConfig::default().with_loss(0.3);
        let mut rng = StdRng::seed_from_u64(3);
        let delivered = (0..10_000)
            .filter(|_| radio.sample_delivery(&mut rng))
            .count();
        assert!((6500..7500).contains(&delivered), "delivered {delivered}");
        let lossless = RadioConfig::default();
        assert!((0..100).all(|_| lossless.sample_delivery(&mut rng)));
    }

    #[test]
    fn class_presets_are_ordered_by_range() {
        assert!(RadioConfig::ble().range_m < RadioConfig::ieee802154().range_m);
        assert!(RadioConfig::ieee802154().range_m < RadioConfig::wifi().range_m);
    }
}
