//! Property-based tests for the interval algebra.
//!
//! The interval list operations must behave exactly like the corresponding
//! set operations on time-points; these properties compare each operation
//! against a brute-force bitset model over a small universe.

use insight_rtec::interval::{Interval, IntervalList};
use proptest::prelude::*;

const UNIVERSE: i64 = 64;

/// Arbitrary interval list inside [0, UNIVERSE), possibly with an open tail.
fn arb_list() -> impl Strategy<Value = IntervalList> {
    (
        proptest::collection::vec((0i64..UNIVERSE, 1i64..16), 0..6),
        proptest::option::weighted(0.2, 0i64..UNIVERSE),
    )
        .prop_map(|(spans, open)| {
            let mut ivs: Vec<Interval> =
                spans.into_iter().map(|(s, len)| Interval::span(s, s + len)).collect();
            if let Some(o) = open {
                ivs.push(Interval::open_from(o));
            }
            IntervalList::from_intervals(ivs)
        })
}

/// Membership model: which t in [0, 2*UNIVERSE) are covered. Open intervals
/// cover everything from their start to the end of the model range.
fn model(l: &IntervalList) -> Vec<bool> {
    (0..2 * UNIVERSE).map(|t| l.contains(t)).collect()
}

fn assert_matches_model(result: &IntervalList, expected: &[bool]) {
    for (t, &want) in expected.iter().enumerate() {
        assert_eq!(result.contains(t as i64), want, "mismatch at t={t}");
    }
}

proptest! {
    #[test]
    fn construction_is_normalised(l in arb_list()) {
        prop_assert!(l.is_normalised());
    }

    #[test]
    fn union_matches_pointwise_or(a in arb_list(), b in arb_list()) {
        let u = a.union(&b);
        prop_assert!(u.is_normalised());
        let (ma, mb) = (model(&a), model(&b));
        let expected: Vec<bool> = ma.iter().zip(&mb).map(|(x, y)| *x || *y).collect();
        assert_matches_model(&u, &expected);
    }

    #[test]
    fn intersect_matches_pointwise_and(a in arb_list(), b in arb_list()) {
        let i = a.intersect(&b);
        prop_assert!(i.is_normalised());
        let (ma, mb) = (model(&a), model(&b));
        let expected: Vec<bool> = ma.iter().zip(&mb).map(|(x, y)| *x && *y).collect();
        assert_matches_model(&i, &expected);
    }

    #[test]
    fn difference_matches_pointwise_andnot(a in arb_list(), b in arb_list()) {
        let d = a.difference(&b);
        prop_assert!(d.is_normalised());
        let (ma, mb) = (model(&a), model(&b));
        let expected: Vec<bool> = ma.iter().zip(&mb).map(|(x, y)| *x && !*y).collect();
        assert_matches_model(&d, &expected);
    }

    #[test]
    fn union_commutes_and_intersect_distributes(
        a in arb_list(), b in arb_list(), c in arb_list()
    ) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        // a ∩ (b ∪ c) == (a ∩ b) ∪ (a ∩ c)
        prop_assert_eq!(
            a.intersect(&b.union(&c)),
            a.intersect(&b).union(&a.intersect(&c))
        );
    }

    #[test]
    fn demorgan_via_difference(a in arb_list(), b in arb_list(), base in arb_list()) {
        // base \ (a ∪ b) == (base \ a) \ b
        prop_assert_eq!(
            IntervalList::relative_complement_all(&base, [&a, &b]),
            base.difference(&a).difference(&b)
        );
    }

    #[test]
    fn difference_then_union_restores_subsets(a in arb_list(), b in arb_list()) {
        // (a \ b) ∪ (a ∩ b) == a
        let restored = a.difference(&b).union(&a.intersect(&b));
        prop_assert_eq!(restored, a);
    }

    #[test]
    fn from_points_alternation(
        mut inits in proptest::collection::vec(0i64..UNIVERSE, 0..8),
        mut terms in proptest::collection::vec(0i64..UNIVERSE, 0..8),
        initially in any::<bool>(),
    ) {
        inits.sort_unstable();
        terms.sort_unstable();
        let l = IntervalList::from_points(&inits, &terms, initially, 0);
        prop_assert!(l.is_normalised());
        // Simulate inertia point by point: state flips on the earliest
        // pending init/term, terminations first at equal times.
        let mut state = initially;
        for t in 0..UNIVERSE {
            if terms.contains(&t) {
                state = false;
            }
            if inits.contains(&t) {
                state = true;
            }
            prop_assert_eq!(l.contains(t), state, "t={}", t);
        }
    }

    #[test]
    fn after_matches_pointwise_truncation(a in arb_list(), cutoff in 0i64..2 * UNIVERSE) {
        let kept = a.after(cutoff);
        prop_assert!(kept.is_normalised());
        // `after` keeps exactly the time-points at or past the cutoff.
        for t in 0..2 * UNIVERSE {
            let want = a.contains(t) && t >= cutoff;
            prop_assert_eq!(kept.contains(t), want, "t={}", t);
        }
        // An ongoing interval always survives working-memory truncation.
        if a.as_slice().last().is_some_and(|iv| iv.is_open()) {
            prop_assert!(kept.as_slice().last().is_some_and(|iv| iv.is_open()));
        }
    }

    #[test]
    fn union_all_matches_pointwise_any(
        lists in proptest::collection::vec(arb_list(), 0..5)
    ) {
        let u = IntervalList::union_all(lists.iter());
        prop_assert!(u.is_normalised());
        let models: Vec<Vec<bool>> = lists.iter().map(model).collect();
        let expected: Vec<bool> = (0..2 * UNIVERSE as usize)
            .map(|t| models.iter().any(|m| m[t]))
            .collect();
        assert_matches_model(&u, &expected);
        // n-ary == left fold of the binary operation.
        let folded = lists.iter().fold(IntervalList::empty(), |acc, l| acc.union(l));
        prop_assert_eq!(u, folded);
    }

    #[test]
    fn relative_complement_all_matches_base_minus_any(
        base in arb_list(),
        lists in proptest::collection::vec(arb_list(), 0..5)
    ) {
        let d = IntervalList::relative_complement_all(&base, lists.iter());
        prop_assert!(d.is_normalised());
        let mb = model(&base);
        let models: Vec<Vec<bool>> = lists.iter().map(model).collect();
        let expected: Vec<bool> = (0..2 * UNIVERSE as usize)
            .map(|t| mb[t] && !models.iter().any(|m| m[t]))
            .collect();
        assert_matches_model(&d, &expected);
        // Same thing as subtracting the n-ary union in one step.
        prop_assert_eq!(d, base.difference(&IntervalList::union_all(lists.iter())));
    }
}
