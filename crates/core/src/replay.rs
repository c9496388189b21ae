//! The canonical form of the §3 pipeline's recognition output.
//!
//! The paper's dataflow decomposition is only sound if the recognition
//! output does not depend on how the processes happen to interleave, so two
//! runs are compared in canonical form (the schedule-invariance check in
//! [`crate::testing`] runs the Dublin topology under every replay seed and
//! requires byte-identical canonical forms).
//!
//! Canonicalisation removes the two legitimate sources of run-to-run
//! variation that carry no information: the *order* in which summaries reach
//! the collecting sink (regions race each other by design; the summaries are
//! sorted by `(query_time, region)`), and wall-clock measurements
//! (`recognition_ns`, which times the host, not the data).

use insight_streams::item::DataItem;

/// Attributes that measure the host rather than the data; stripped before
/// comparison.
const WALL_CLOCK_ATTRS: [&str; 1] = ["recognition_ns"];

/// Canonical textual form of a batch of recognition summaries: wall-clock
/// attributes removed, one JSON object per line, lines sorted by
/// `(query_time, region)` and then lexicographically. Two runs recognised
/// the same thing iff their canonical forms are byte-identical.
pub fn canonical_recognitions(items: &[DataItem]) -> String {
    let mut lines: Vec<((i64, String), String)> = items
        .iter()
        .map(|item| {
            let mut item = item.clone();
            for attr in WALL_CLOCK_ATTRS {
                item.remove(attr);
            }
            let key = (
                item.get_i64("query_time").unwrap_or(i64::MIN),
                item.get_str("region").unwrap_or("").to_string(),
            );
            (key, item.to_json())
        })
        .collect();
    lines.sort();
    let mut out = String::new();
    for (_, line) in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalisation_sorts_and_strips_wall_clock() {
        let items = vec![
            DataItem::new()
                .with("kind", "recognition")
                .with("query_time", 600i64)
                .with("region", "north")
                .with("recognition_ns", 12345i64),
            DataItem::new()
                .with("kind", "recognition")
                .with("query_time", 300i64)
                .with("region", "south")
                .with("recognition_ns", 999i64),
        ];
        let canon = canonical_recognitions(&items);
        let lines: Vec<&str> = canon.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("300"), "sorted by query_time first: {canon}");
        assert!(!canon.contains("recognition_ns"), "wall clock stripped: {canon}");
        // Reordering the input does not change the canonical form.
        let reversed: Vec<DataItem> = items.iter().rev().cloned().collect();
        assert_eq!(canon, canonical_recognitions(&reversed));
    }
}
