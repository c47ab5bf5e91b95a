//! Deterministic, seeded fault injection for the delivery path.
//!
//! A [`FaultPlan`] is a schedule of link-level faults — drop, duplicate,
//! reorder, corrupt, and delay probabilities per directed link — plus
//! node-crash and network-partition windows. The simulator consults the
//! plan for every would-be delivery ([`FaultPlan::judge`]).
//!
//! Fault decisions are keyed hashes, not draws from a sequential RNG
//! stream: each verdict hashes `(seed, link, time, fault dimension)`
//! plus the frame's position among the frames judged on its link at its
//! instant, so frames sent together still meet independent fates (the
//! first frame at an instant has no position term). Two consequences
//! matter for experiments:
//!
//! * verdicts don't depend on the order of judgements across links or
//!   instants, so event-queue reshuffling cannot perturb the fault
//!   schedule, and
//! * toggling one fault dimension (say, turning duplicates on) leaves
//!   every other dimension's decisions bit-identical — which is what
//!   makes replay-vs-control A/B runs comparable.
//!
//! Taps are deliberately *not* faulted: the tap is the IDS's own capture
//! interface, and the paper's threat model degrades the network under
//! observation, not the observer.
//!
//! # Examples
//!
//! ```
//! use kalis_netsim::fault::{FaultPlan, FaultWindow, LinkFaults};
//! use kalis_packets::Timestamp;
//!
//! let mut plan = FaultPlan::new(7)
//!     .with_faults(LinkFaults { drop: 0.3, ..LinkFaults::default() })
//!     .with_window(FaultWindow::new(
//!         Timestamp::ZERO,
//!         Timestamp::from_secs(45),
//!     ));
//! // Roughly 30% of judgements inside the window come back empty.
//! let verdict = plan.judge(0, 1, Timestamp::from_secs(1));
//! assert!(verdict.len() <= 1);
//! ```

use std::collections::HashMap;
use std::time::Duration;

use kalis_packets::Timestamp;

/// Extra delivery jitter injected by reorder and duplicate faults,
/// sampled uniformly in `1..=REORDER_JITTER_MICROS` microseconds. Large
/// enough to leapfrog the fixed per-hop delays and land frames out of
/// order.
const REORDER_JITTER_MICROS: u64 = 2_000;

/// Per-dimension salts keeping the keyed-hash decision streams
/// independent of each other.
const SALT_DROP: u64 = 0x64726f70; // "drop"
const SALT_DUPLICATE: u64 = 0x64757065; // "dupe"
const SALT_CORRUPT: u64 = 0x636f7272; // "corr"
const SALT_REORDER: u64 = 0x72657264; // "rerd"

/// The 64-bit finalizer of SplitMix64: a cheap, well-mixed keyed hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from a hash value.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Probabilities and fixed delay applied to one directed link.
///
/// All probabilities are clamped into `[0, 1]` at judgement time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delivered twice (the copy gets extra
    /// jitter so it arrives out of order with its original).
    pub duplicate: f64,
    /// Probability a delivered frame has one bit flipped.
    pub corrupt: f64,
    /// Probability a delivered frame gets random extra jitter, letting
    /// later frames overtake it.
    pub reorder: f64,
    /// Fixed extra latency added to every delivery on the link.
    pub delay: Duration,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            delay: Duration::ZERO,
        }
    }
}

/// A half-open window of virtual time: active while
/// `from <= now < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant (inclusive) the fault is active.
    pub from: Timestamp,
    /// First instant (exclusive) the fault is over.
    pub until: Timestamp,
}

impl FaultWindow {
    /// A window covering `[from, until)`.
    pub fn new(from: Timestamp, until: Timestamp) -> Self {
        FaultWindow { from, until }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: Timestamp) -> bool {
        self.from <= now && now < self.until
    }
}

/// The simulator's verdict for one would-be frame delivery.
///
/// [`FaultPlan::judge`] returns zero or more of these: an empty vector
/// means the frame was dropped; two entries mean it was duplicated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Delivery {
    /// Extra latency on top of the medium's base delay.
    pub extra_delay: Duration,
    /// Whether the delivered bytes should have a bit flipped
    /// (via [`FaultPlan::corrupt_payload`]).
    pub corrupt: bool,
}

/// Counters of faults actually injected, for scenario sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames dropped (link loss, crash windows, or partitions).
    pub dropped: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Frames whose payload was bit-flipped.
    pub corrupted: u64,
    /// Frames given extra latency (fixed link delay or reorder jitter).
    pub delayed: u64,
}

impl FaultStats {
    /// Total number of injected faults across all dimensions.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.corrupted + self.delayed
    }

    /// Add another set of counters into this one.
    pub fn accumulate(&mut self, other: FaultStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.corrupted += other.corrupted;
        self.delayed += other.delayed;
    }
}

/// A deterministic, seeded schedule of faults.
///
/// Built once per scenario with the builder methods, then consulted by
/// the simulator (or a harness driving deliveries by hand) through
/// [`FaultPlan::judge`]. Equal seeds produce identical fault schedules;
/// frames judged on the same link at the same microsecond each draw by
/// their position among them.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    default_faults: LinkFaults,
    per_link: HashMap<(u32, u32), LinkFaults>,
    /// When non-empty, link faults only apply while some window is
    /// active. Crashes and partitions carry their own windows.
    windows: Vec<FaultWindow>,
    crashes: Vec<(u32, FaultWindow)>,
    partitions: Vec<(Vec<Vec<u32>>, FaultWindow)>,
    stats: FaultStats,
    link_stats: HashMap<(u32, u32), FaultStats>,
    /// Per directed link, the last instant judged and the frames judged
    /// on it then.
    instants: HashMap<(u32, u32), (Timestamp, u64)>,
}

impl FaultPlan {
    /// A plan with no faults, seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            default_faults: LinkFaults::default(),
            per_link: HashMap::new(),
            windows: Vec::new(),
            crashes: Vec::new(),
            partitions: Vec::new(),
            stats: FaultStats::default(),
            link_stats: HashMap::new(),
            instants: HashMap::new(),
        }
    }

    /// Set the fault probabilities applied to every link without a
    /// per-link override.
    pub fn with_faults(mut self, faults: LinkFaults) -> Self {
        self.default_faults = faults;
        self
    }

    /// Override the faults for the directed link `from -> to`.
    pub fn with_link(mut self, from: u32, to: u32, faults: LinkFaults) -> Self {
        self.per_link.insert((from, to), faults);
        self
    }

    /// Restrict link faults to `window`. May be called repeatedly; link
    /// faults then apply whenever *any* registered window is active.
    /// Without any window they apply for the whole run.
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Crash `endpoint` for the duration of `window`: it neither sends
    /// nor receives anything while crashed.
    pub fn with_crash(mut self, endpoint: u32, window: FaultWindow) -> Self {
        self.crashes.push((endpoint, window));
        self
    }

    /// Partition the network into `groups` for the duration of `window`.
    /// Endpoints in different groups cannot exchange frames while the
    /// window is active; endpoints absent from every group share one
    /// implicit group of their own.
    pub fn with_partition(mut self, groups: Vec<Vec<u32>>, window: FaultWindow) -> Self {
        self.partitions.push((groups, window));
        self
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Per-directed-link injection counters, sorted by `(from, to)` for
    /// deterministic reporting. Lets scenario reports distinguish "the
    /// fault plan never fired on this link" from a detection miss.
    pub fn link_stats(&self) -> Vec<((u32, u32), FaultStats)> {
        let mut out: Vec<_> = self.link_stats.iter().map(|(k, v)| (*k, *v)).collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    fn crashed(&self, endpoint: u32, now: Timestamp) -> bool {
        self.crashes
            .iter()
            .any(|(e, w)| *e == endpoint && w.contains(now))
    }

    fn partitioned(&self, from: u32, to: u32, now: Timestamp) -> bool {
        self.partitions.iter().any(|(groups, window)| {
            if !window.contains(now) {
                return false;
            }
            let group_of = |e: u32| groups.iter().position(|g| g.contains(&e));
            group_of(from) != group_of(to)
        })
    }

    fn link_faults_active(&self, now: Timestamp) -> bool {
        self.windows.is_empty() || self.windows.iter().any(|w| w.contains(now))
    }

    /// The keyed-hash base for the `nth` frame judged on a link at an
    /// instant (counting from 0).
    fn key(&self, from: u32, to: u32, now: Timestamp, nth: u64) -> u64 {
        let link = (u64::from(from) << 32) | u64::from(to);
        let key = splitmix64(self.seed ^ splitmix64(link ^ splitmix64(now.as_micros())));
        if nth == 0 {
            key
        } else {
            splitmix64(key ^ nth)
        }
    }

    /// One independent probability decision per fault dimension.
    fn chance(key: u64, salt: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        unit(splitmix64(key ^ salt)) < p.clamp(0.0, 1.0)
    }

    fn jitter(key: u64, salt: u64) -> Duration {
        Duration::from_micros(1 + splitmix64(key ^ salt.rotate_left(17)) % REORDER_JITTER_MICROS)
    }

    /// Judge one would-be delivery on the directed link `from -> to` at
    /// virtual time `now`.
    ///
    /// Returns one [`Delivery`] per copy to deliver: an empty vector
    /// drops the frame, two entries duplicate it. The caller applies
    /// `extra_delay` on top of its base medium delay and runs corrupted
    /// copies through [`FaultPlan::corrupt_payload`].
    ///
    /// Consecutive judgements of one link at one instant, as a caller
    /// advancing its clock makes them, each draw from their own key.
    pub fn judge(&mut self, from: u32, to: u32, now: Timestamp) -> Vec<Delivery> {
        let last = self.instants.entry((from, to)).or_insert((now, 0));
        let nth = if last.0 == now { last.1 } else { 0 };
        *last = (now, nth + 1);
        let (out, delta) = self.decide(from, to, now, nth);
        if delta != FaultStats::default() {
            self.stats.accumulate(delta);
            self.link_stats
                .entry((from, to))
                .or_default()
                .accumulate(delta);
        }
        out
    }

    /// The pure decision behind [`FaultPlan::judge`]: the deliveries plus
    /// the fault counters this judgement contributes.
    fn decide(&self, from: u32, to: u32, now: Timestamp, nth: u64) -> (Vec<Delivery>, FaultStats) {
        let mut delta = FaultStats::default();
        if self.crashed(from, now) || self.crashed(to, now) || self.partitioned(from, to, now) {
            delta.dropped += 1;
            return (Vec::new(), delta);
        }
        if !self.link_faults_active(now) {
            return (vec![Delivery::default()], delta);
        }
        let faults = self
            .per_link
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_faults);
        let key = self.key(from, to, now, nth);
        if Self::chance(key, SALT_DROP, faults.drop) {
            delta.dropped += 1;
            return (Vec::new(), delta);
        }
        let mut primary = Delivery {
            extra_delay: faults.delay,
            corrupt: false,
        };
        if !faults.delay.is_zero() {
            delta.delayed += 1;
        }
        if Self::chance(key, SALT_REORDER, faults.reorder) {
            primary.extra_delay += Self::jitter(key, SALT_REORDER);
            delta.delayed += 1;
        }
        if Self::chance(key, SALT_CORRUPT, faults.corrupt) {
            primary.corrupt = true;
            delta.corrupted += 1;
        }
        let mut out = vec![primary];
        if Self::chance(key, SALT_DUPLICATE, faults.duplicate) {
            out.push(Delivery {
                extra_delay: faults.delay + Self::jitter(key, SALT_DUPLICATE),
                corrupt: false,
            });
            delta.duplicated += 1;
        }
        (out, delta)
    }

    /// Flip one bit of `payload`, chosen by a keyed hash of the payload
    /// itself (no-op when empty). Stateless, like [`FaultPlan::judge`]:
    /// corrupting the same bytes under the same seed flips the same bit.
    pub fn corrupt_payload(&self, payload: &mut [u8]) {
        if payload.is_empty() {
            return;
        }
        let mut h = splitmix64(self.seed ^ SALT_CORRUPT);
        h = splitmix64(h ^ payload.len() as u64);
        h = splitmix64(h ^ u64::from(payload[0]) ^ (u64::from(payload[payload.len() - 1]) << 8));
        let byte = (h % payload.len() as u64) as usize;
        let bit = (h >> 32) % 8;
        payload[byte] ^= 1 << bit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(secs: u64) -> Timestamp {
        Timestamp::from_secs(secs)
    }

    #[test]
    fn clean_plan_delivers_everything_once() {
        let mut plan = FaultPlan::new(1);
        for t in 0..100 {
            assert_eq!(plan.judge(0, 1, ts(t)), vec![Delivery::default()]);
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    fn lossy(seed: u64, duplicate: f64) -> FaultPlan {
        FaultPlan::new(seed).with_faults(LinkFaults {
            drop: 0.4,
            duplicate,
            corrupt: 0.2,
            reorder: 0.2,
            delay: Duration::from_millis(1),
        })
    }

    #[test]
    fn equal_seeds_produce_identical_fault_streams() {
        let run = |seed| {
            let mut plan = lossy(seed, 0.2);
            (0..500u64)
                .flat_map(|t| plan.judge(0, 1, Timestamp::from_millis(t)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn toggling_one_dimension_leaves_the_others_unchanged() {
        // The property replay-vs-control experiments lean on: turning
        // duplicates on must not change any drop/corrupt/reorder fate.
        let primaries = |duplicate: f64| {
            let mut plan = lossy(11, duplicate);
            (0..500u64)
                .map(|t| plan.judge(0, 1, Timestamp::from_millis(t)).first().copied())
                .collect::<Vec<_>>()
        };
        assert_eq!(primaries(0.0), primaries(1.0));
    }

    #[test]
    fn judgements_are_order_independent() {
        let mut forward = FaultPlan::new(3).with_faults(LinkFaults {
            drop: 0.5,
            ..LinkFaults::default()
        });
        let mut backward = forward.clone();
        let a: Vec<_> = (0..200u64)
            .map(|t| forward.judge(0, 1, Timestamp::from_millis(t)))
            .collect();
        let mut b: Vec<_> = (0..200u64)
            .rev()
            .map(|t| backward.judge(0, 1, Timestamp::from_millis(t)))
            .collect();
        b.reverse();
        assert_eq!(a, b);
    }

    #[test]
    fn link_fault_window_boundaries_are_half_open() {
        let mut plan = FaultPlan::new(2)
            .with_faults(LinkFaults {
                drop: 1.0,
                ..LinkFaults::default()
            })
            .with_window(FaultWindow::new(ts(10), ts(20)));
        assert_eq!(plan.judge(0, 1, ts(9)).len(), 1, "before window");
        assert!(
            plan.judge(0, 1, ts(10)).is_empty(),
            "window start inclusive"
        );
        assert!(plan.judge(0, 1, ts(19)).is_empty(), "inside window");
        assert_eq!(plan.judge(0, 1, ts(20)).len(), 1, "window end exclusive");
        assert_eq!(plan.stats().dropped, 2);
    }

    #[test]
    fn per_link_faults_override_the_default() {
        let mut plan = FaultPlan::new(3)
            .with_faults(LinkFaults {
                drop: 1.0,
                ..LinkFaults::default()
            })
            .with_link(0, 1, LinkFaults::default());
        assert_eq!(plan.judge(0, 1, ts(0)).len(), 1, "overridden link is clean");
        assert!(plan.judge(1, 0, ts(0)).is_empty(), "reverse uses default");
        assert!(
            plan.judge(2, 3, ts(0)).is_empty(),
            "other links use default"
        );
    }

    #[test]
    fn partitions_block_symmetrically_and_heal() {
        let mut plan = FaultPlan::new(4)
            .with_partition(vec![vec![0], vec![1]], FaultWindow::new(ts(0), ts(10)));
        assert!(plan.judge(0, 1, ts(5)).is_empty());
        assert!(plan.judge(1, 0, ts(5)).is_empty(), "partition is symmetric");
        // Unlisted endpoints share one implicit group: cut off from the
        // named groups, but able to reach each other.
        assert!(plan.judge(0, 2, ts(5)).is_empty());
        assert_eq!(plan.judge(2, 3, ts(5)).len(), 1);
        // The window heals.
        assert_eq!(plan.judge(0, 1, ts(10)).len(), 1);
    }

    #[test]
    fn crashed_endpoints_neither_send_nor_receive() {
        let mut plan = FaultPlan::new(5).with_crash(1, FaultWindow::new(ts(2), ts(4)));
        assert!(plan.judge(1, 0, ts(3)).is_empty(), "crashed sender");
        assert!(plan.judge(0, 1, ts(3)).is_empty(), "crashed receiver");
        assert_eq!(plan.judge(0, 2, ts(3)).len(), 1, "others unaffected");
        assert_eq!(plan.judge(0, 1, ts(4)).len(), 1, "recovered at window end");
    }

    #[test]
    fn duplicates_yield_two_copies_with_distinct_delays() {
        let mut plan = FaultPlan::new(6).with_faults(LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::default()
        });
        let copies = plan.judge(0, 1, ts(0));
        assert_eq!(copies.len(), 2);
        assert!(
            copies[1].extra_delay > copies[0].extra_delay,
            "the duplicate gets jitter so it lands out of order"
        );
        assert_eq!(plan.stats().duplicated, 1);
    }

    #[test]
    fn per_link_stats_partition_the_aggregate() {
        let mut plan = FaultPlan::new(9).with_faults(LinkFaults {
            drop: 0.5,
            duplicate: 0.3,
            corrupt: 0.3,
            reorder: 0.3,
            delay: Duration::from_millis(1),
        });
        for t in 0..300u64 {
            plan.judge(0, 1, Timestamp::from_millis(t));
            plan.judge(1, 0, Timestamp::from_millis(t));
        }
        let links = plan.link_stats();
        assert_eq!(
            links.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![(0, 1), (1, 0)],
            "sorted by directed link"
        );
        let mut sum = FaultStats::default();
        for (_, s) in &links {
            assert!(s.total() > 0);
            sum.accumulate(*s);
        }
        assert_eq!(sum, plan.stats(), "per-link counters sum to the aggregate");
    }

    #[test]
    fn corrupt_payload_flips_exactly_one_bit() {
        let plan = FaultPlan::new(7);
        let original = vec![0u8; 32];
        let mut mutated = original.clone();
        plan.corrupt_payload(&mut mutated);
        let flipped: u32 = original
            .iter()
            .zip(&mutated)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        // Empty payloads are left alone rather than panicking.
        plan.corrupt_payload(&mut []);
    }
}
