//! The MapReduce task abstraction of §5.3.
//!
//! "To maximize parallelism, the crowdsourcing component employs the
//! MapReduce programming model to communicate the queries to the selected
//! participants and enable them to do local processing." A *map* task runs
//! on each worker and returns an intermediate key/value; *reduce* merges all
//! intermediates sharing a key into final values.
//!
//! For the congestion question the map task is simply "display the question,
//! return the selected answer" and reduce counts votes, but the abstraction
//! supports richer tasks — the paper mentions aggregating smartphone sensor
//! extractions the same way.

use std::collections::BTreeMap;

/// One intermediate `(key, value)` pair produced by a map task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Intermediate<K, V> {
    /// Grouping key.
    pub key: K,
    /// The mapped value.
    pub value: V,
}

/// Runs the reduce phase: groups intermediates by key (in key order) and
/// applies `reduce` to each group.
pub(crate) fn reduce_by_key<K: Ord + Clone, V, O>(
    intermediates: Vec<Intermediate<K, V>>,
    mut reduce: impl FnMut(&K, Vec<V>) -> O,
) -> Vec<(K, O)> {
    let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for i in intermediates {
        groups.entry(i.key).or_default().push(i.value);
    }
    groups
        .into_iter()
        .map(|(k, vs)| {
            let out = reduce(&k, vs);
            (k, out)
        })
        .collect()
}

/// The vote-counting reduce used for crowd queries: counts answers per
/// label, returning `(label, votes)` pairs in label order.
pub(crate) fn count_votes(answers: impl IntoIterator<Item = usize>) -> Vec<(usize, usize)> {
    let intermediates: Vec<Intermediate<usize, ()>> =
        answers.into_iter().map(|a| Intermediate { key: a, value: () }).collect();
    reduce_by_key(intermediates, |_, vs| vs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_groups_by_key() {
        let ints = vec![
            Intermediate { key: "b", value: 2 },
            Intermediate { key: "a", value: 1 },
            Intermediate { key: "b", value: 3 },
        ];
        let out = reduce_by_key(ints, |_, vs| vs.into_iter().sum::<i32>());
        assert_eq!(out, vec![("a", 1), ("b", 5)]);
    }

    #[test]
    fn count_votes_counts() {
        let votes = count_votes([0, 2, 0, 0, 1]);
        assert_eq!(votes, vec![(0, 3), (1, 1), (2, 1)]);
        assert!(count_votes([]).is_empty());
    }
}
