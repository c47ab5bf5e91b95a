//! A space-saving top-K heavy-hitter sketch (Metwally, Agrawal, El
//! Abbadi — "Efficient computation of frequent and top-k elements in
//! data streams").
//!
//! The ops profiler feeds it one observation per ingested packet
//! (the source entity) and exports the current top-K as
//! capped-cardinality `hot.entity` series: the sketch holds at most
//! `capacity` monitored keys, replacing the minimum-count entry when a
//! new key arrives, so both memory and scrape cardinality stay fixed
//! no matter how many distinct entities the traffic carries.

/// One monitored entry: estimated count plus the maximum
/// over-estimation error inherited from the entry it replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SketchEntry<K> {
    /// The monitored key.
    pub key: K,
    /// Estimated observation count (an upper bound on the true count).
    pub count: u64,
    /// Count inherited when this key replaced the previous minimum —
    /// `count - error` is a guaranteed lower bound on the true count.
    pub error: u64,
}

/// Bounded space-saving sketch over keys of type `K`.
#[derive(Debug, Clone)]
pub(crate) struct SpaceSaving<K> {
    capacity: usize,
    entries: Vec<SketchEntry<K>>,
}

impl<K: Clone + Eq> SpaceSaving<K> {
    /// A sketch monitoring at most `capacity` keys (min 1).
    pub fn new(capacity: usize) -> Self {
        SpaceSaving {
            capacity: capacity.max(1),
            entries: Vec::with_capacity(capacity.max(1)),
        }
    }

    /// Maximum monitored keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one observation of `key`.
    pub fn observe(&mut self, key: &K) {
        if let Some(entry) = self.entries.iter_mut().find(|e| &e.key == key) {
            entry.count += 1;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(SketchEntry {
                key: key.clone(),
                count: 1,
                error: 0,
            });
            return;
        }
        // Replace the minimum-count entry; the newcomer inherits its
        // count as both estimate floor and error bound.
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|e| e.count)
            .expect("capacity >= 1");
        min.error = min.count;
        min.count += 1;
        min.key = key.clone();
    }

    /// Monitored entries, highest estimated count first (ties broken by
    /// lower error, i.e. higher confidence).
    pub fn top(&self) -> Vec<SketchEntry<K>> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.error.cmp(&b.error)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_under_capacity() {
        let mut s = SpaceSaving::new(4);
        for key in ["a", "b", "a", "c", "a", "b"] {
            s.observe(&key);
        }
        let top = s.top();
        assert_eq!(top[0].key, "a");
        assert_eq!(top[0].count, 3);
        assert_eq!(top[0].error, 0);
        assert_eq!(top[1].key, "b");
        assert_eq!(top[1].count, 2);
    }

    #[test]
    fn heavy_hitter_survives_churn() {
        let mut s = SpaceSaving::new(3);
        // 200 observations of the hitter interleaved with 100 distinct
        // one-shot keys that keep evicting each other.
        for i in 0..100u32 {
            s.observe(&"hot".to_string());
            s.observe(&"hot".to_string());
            s.observe(&format!("cold-{i}"));
        }
        let top = s.top();
        assert_eq!(top.len(), 3, "cardinality stays capped");
        assert_eq!(top[0].key, "hot");
        assert!(top[0].count >= 200, "estimate is an upper bound");
        assert!(
            top[0].count - top[0].error >= 200,
            "guaranteed count survives churn: {:?}",
            top[0]
        );
    }

    #[test]
    fn error_bound_tracks_inherited_count() {
        let mut s = SpaceSaving::new(1);
        s.observe(&1u8);
        s.observe(&1u8);
        s.observe(&2u8);
        let top = s.top();
        assert_eq!(top[0].key, 2);
        assert_eq!(top[0].count, 3);
        assert_eq!(top[0].error, 2);
    }
}
