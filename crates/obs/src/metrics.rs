//! Named counters and log2-bucketed histograms over deterministic
//! quantities.
//!
//! Everything in here is derived from simulated time and counted work —
//! never wall clock — so registries are `PartialEq`-comparable across
//! runs and safe to fold into the CI-gated reports. Maps are
//! `BTreeMap`s: iteration (and `Display`) order is deterministic.

use std::collections::BTreeMap;
use std::fmt;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values whose highest
/// set bit is `i − 1`, i.e. the range `[2^(i−1), 2^i)`; bucket 31 also
/// absorbs everything from `2^30` up.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    count: u64,
    sum: u64,
    buckets: [u64; 32],
}

impl Histogram {
    /// The bucket a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(31)
        }
    }

    /// The inclusive lower bound of bucket `i`.
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Sample count in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} sum={} mean={:.1}",
            self.count,
            self.sum,
            self.mean()
        )?;
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                write!(
                    f,
                    "{}[≥{}]={}",
                    if first { " buckets: " } else { " " },
                    Histogram::bucket_floor(i),
                    n
                )?;
                first = false;
            }
        }
        Ok(())
    }
}

/// A registry of named counters and histograms.
///
/// Names are `&'static str` by policy: the set of metrics is fixed at
/// compile time, and static names keep the hot-path cost to a `BTreeMap`
/// probe with no allocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments counter `name` by `by`.
    pub fn add(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Current value of counter `name` (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "    {name} = {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(f, "    {name}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 31);
        for i in 1..31 {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_floor(i)), i);
            assert_eq!(
                Histogram::bucket_index(Histogram::bucket_floor(i + 1) - 1),
                i
            );
        }
    }

    #[test]
    fn observe_accumulates_count_sum_buckets() {
        let mut h = Histogram::default();
        for v in [0, 1, 5, 5, 1024] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1035);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(3), 2);
        assert_eq!(h.bucket(11), 1);
    }

    #[test]
    fn display_is_deterministic_and_name_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.inc("zeta");
        reg.inc("alpha");
        reg.observe("wait", 3);
        let text = reg.to_string();
        let alpha = text.find("alpha").unwrap();
        let zeta = text.find("zeta").unwrap();
        assert!(alpha < zeta, "counters print in name order");
        assert!(text.contains("wait: count=1 sum=3"));
    }
}
