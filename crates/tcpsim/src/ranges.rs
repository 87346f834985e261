//! Sorted sets of byte ranges: the sender's SACK scoreboard and the
//! receiver's out-of-order map are both one [`SeqRanges`].

/// Disjoint, non-adjacent `[start, end)` ranges in ascending order, held
/// in one flat `Vec`: the handful of ranges a connection keeps is
/// cheaper to binary-search and splice than to spread over tree nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqRanges {
    ranges: Vec<(u64, u64)>,
}

impl SeqRanges {
    /// Add `[start, end)`, merging every range it overlaps or touches.
    /// Returns the merged range that now holds it.
    pub(crate) fn insert(&mut self, start: u64, end: u64) -> (u64, u64) {
        debug_assert!(start < end, "empty range");
        // Ranges in `lo..hi` overlap or touch the new one; everything
        // before `lo` ends below `start`, so `lo <= hi`.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        let merged = if lo < hi {
            (start.min(self.ranges[lo].0), end.max(self.ranges[hi - 1].1))
        } else {
            (start, end)
        };
        self.ranges.splice(lo..hi, [merged]);
        merged
    }

    /// The range holding `seq`, if any.
    pub(crate) fn containing(&self, seq: u64) -> Option<(u64, u64)> {
        let i = self.ranges.partition_point(|&(s, _)| s <= seq);
        i.checked_sub(1)
            .map(|i| self.ranges[i])
            .filter(|&(_, e)| e > seq)
    }

    /// The range that starts exactly at `start`, if any.
    pub(crate) fn starting_at(&self, start: u64) -> Option<(u64, u64)> {
        self.ranges
            .binary_search_by_key(&start, |&(s, _)| s)
            .ok()
            .map(|i| self.ranges[i])
    }

    /// Forget everything below `seq`; a range straddling it keeps its
    /// part at and above `seq`.
    pub(crate) fn trim_below(&mut self, seq: u64) {
        let below = self.ranges.partition_point(|&(_, e)| e <= seq);
        self.ranges.drain(..below);
        if let Some(first) = self.ranges.first_mut() {
            first.0 = first.0.max(seq);
        }
    }

    /// The lowest range.
    pub(crate) fn first(&self) -> Option<(u64, u64)> {
        self.ranges.first().copied()
    }

    /// Remove and return the lowest range.
    pub(crate) fn pop_first(&mut self) -> Option<(u64, u64)> {
        (!self.ranges.is_empty()).then(|| self.ranges.remove(0))
    }

    /// Every range, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().copied()
    }

    /// A membership test for ascending queries that never looks back.
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor { rest: &self.ranges }
    }
}

/// See [`SeqRanges::cursor`].
pub(crate) struct Cursor<'a> {
    rest: &'a [(u64, u64)],
}

impl Cursor<'_> {
    /// Whether `seq` lies in a range. Each query must be at least the
    /// previous one.
    pub(crate) fn contains(&mut self, seq: u64) -> bool {
        while let [(_, end), rest @ ..] = self.rest {
            if *end > seq {
                break;
            }
            self.rest = rest;
        }
        self.rest.first().is_some_and(|&(s, _)| s <= seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u64),
        TrimBelow(u64),
        PopFirst,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Insert is listed twice so that ranges build up: the strategies
        // carry no weights.
        prop_oneof![
            (0u64..64, 1u64..12).prop_map(|(s, len)| Op::Insert(s, s + len)),
            (0u64..64, 1u64..12).prop_map(|(s, len)| Op::Insert(s, s + len)),
            (0u64..72).prop_map(Op::TrimBelow),
            Just(Op::PopFirst),
        ]
    }

    /// The maximal runs of a point set: what the ranges must be.
    fn runs(points: &BTreeSet<u64>) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &p in points {
            match out.last_mut() {
                Some((_, e)) if *e == p => *e = p + 1,
                _ => out.push((p, p + 1)),
            }
        }
        out
    }

    proptest! {
        /// After every operation the ranges are exactly the maximal runs
        /// of a point set the same operations built, and every query
        /// agrees with the points.
        #[test]
        fn ranges_match_point_set(ops in proptest::collection::vec(op(), 1..60)) {
            let mut r = SeqRanges::default();
            let mut points = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(s, e) => {
                        let merged = r.insert(s, e);
                        points.extend(s..e);
                        let run = runs(&points).into_iter().find(|&(a, b)| a <= s && s < b);
                        prop_assert_eq!(Some(merged), run);
                    }
                    Op::TrimBelow(x) => {
                        r.trim_below(x);
                        points.retain(|&p| p >= x);
                    }
                    Op::PopFirst => {
                        let popped = r.pop_first();
                        let expect = runs(&points).first().copied();
                        if let Some((s, e)) = expect {
                            points.retain(|&p| !(s..e).contains(&p));
                        }
                        prop_assert_eq!(popped, expect);
                    }
                }
                let want = runs(&points);
                prop_assert_eq!(r.iter().collect::<Vec<_>>(), want.clone());
                prop_assert_eq!(r.first(), want.first().copied());
                let mut cursor = r.cursor();
                for x in 0..80 {
                    let run = want.iter().copied().find(|&(s, e)| s <= x && x < e);
                    prop_assert_eq!(r.containing(x), run);
                    prop_assert_eq!(cursor.contains(x), points.contains(&x));
                    prop_assert_eq!(
                        r.starting_at(x),
                        want.iter().copied().find(|&(s, _)| s == x)
                    );
                }
            }
        }
    }
}
