//! Levenshtein edit distance, for "did you mean …" suggestions.

/// Maximum edit distance at which a name counts as a near miss.
pub(crate) const NEAR_MISS: usize = 2;

/// The Levenshtein distance between two strings (by `char`).
pub(crate) fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // One rolling row of the DP matrix.
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitute = prev_diag + usize::from(ca != cb);
            prev_diag = row[j + 1];
            row[j + 1] = substitute.min(row[j] + 1).min(prev_diag + 1);
        }
    }
    row[b.len()]
}

/// The candidate closest to `needle` within `max_dist` edits, if any.
/// Exact matches are not suggestions, and ties go to the earlier
/// candidate (callers pass sorted lists for determinism).
pub(crate) fn closest_within<'a, I>(needle: &str, candidates: I, max_dist: usize) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut best: Option<(usize, &str)> = None;
    for cand in candidates {
        let d = levenshtein(needle, cand);
        if d == 0 || d > max_dist {
            continue;
        }
        if best.map_or(true, |(bd, _)| d < bd) {
            best = Some((d, cand));
        }
    }
    best.map(|(_, cand)| cand)
}

/// [`closest_within`] with a length-scaled threshold: short keys tolerate
/// [`NEAR_MISS`] edits, long names tolerate up to half their length (so
/// `TopologyDetectionModule` still resolves to `TopologyDiscoveryModule`
/// even though the middle words differ in 8 places).
pub fn closest<'a, I>(needle: &str, candidates: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let max_dist = NEAR_MISS.max(needle.chars().count() / 2);
    closest_within(needle, candidates, max_dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("Multihop", "Mutlihop"), 2); // transposition = 2 edits
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("CtpRoot", "CtpRoots"), 1);
    }

    #[test]
    fn closest_skips_exact_and_far() {
        let names = ["Multihop", "Mobile", "CtpRoot"];
        assert_eq!(closest("Mutlihop", names), Some("Multihop"));
        assert_eq!(closest("Multihop", names), None, "exact match is no typo");
        assert_eq!(closest("TrafficFrequency", names), None);
    }

    #[test]
    fn threshold_scales_with_length() {
        let names = ["TopologyDiscoveryModule"];
        // 6 edits apart, but a third of 23 chars is allowed.
        assert_eq!(
            closest("TopologyDetectionModule", names),
            Some("TopologyDiscoveryModule")
        );
        assert_eq!(closest_within("TopologyDetectionModule", names, 2), None);
    }
}
