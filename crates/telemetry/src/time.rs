//! Day-granularity timestamps.
//!
//! Consumer storage systems cannot be sampled at hour/minute granularity
//! (§II challenge (2) of the paper): the paper's dataset, and therefore our
//! whole pipeline, works on *days*. [`DayStamp`] is a newtype over a day
//! index relative to the start of the observation campaign.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A day index relative to the start of the observation campaign (day 0).
///
/// `DayStamp` is ordered and supports day arithmetic; differences are plain
/// `i64` day counts.
///
/// # Example
///
/// ```
/// use mfpa_telemetry::DayStamp;
///
/// let start = DayStamp::new(10);
/// let later = start + 7;
/// assert_eq!(later - start, 7);
/// assert!(later > start);
/// assert_eq!(later.to_string(), "d17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DayStamp(i64);

impl DayStamp {
    /// The first day of the observation campaign.
    pub const ZERO: DayStamp = DayStamp(0);

    /// Creates a day stamp from a raw day index.
    ///
    /// Negative indices are allowed; they denote days before the campaign
    /// started (useful for drives deployed before observation began).
    pub fn new(day: i64) -> Self {
        DayStamp(day)
    }

    /// Returns the raw day index.
    pub fn day(self) -> i64 {
        self.0
    }

    /// Returns the stamp `n` days earlier, i.e. `self - n`.
    ///
    /// This is the operation used when the paper labels a failure at
    /// `IMT - θ` (§III-C(2)).
    pub fn days_before(self, n: i64) -> Self {
        DayStamp(self.0 - n)
    }

    /// Returns the stamp `n` days later.
    pub fn days_after(self, n: i64) -> Self {
        DayStamp(self.0 + n)
    }

    /// Absolute distance in days between two stamps.
    pub fn distance(self, other: DayStamp) -> i64 {
        (self.0 - other.0).abs()
    }

    /// The calendar month index of this stamp (30-day months, month 0 starts
    /// at day 0). Used by the temporal-stability experiment (Fig 12/16).
    pub fn month(self) -> i64 {
        self.0.div_euclid(30)
    }
}

impl fmt::Display for DayStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

impl From<i64> for DayStamp {
    fn from(day: i64) -> Self {
        DayStamp(day)
    }
}

impl Add<i64> for DayStamp {
    type Output = DayStamp;

    fn add(self, rhs: i64) -> DayStamp {
        DayStamp(self.0 + rhs)
    }
}

impl AddAssign<i64> for DayStamp {
    fn add_assign(&mut self, rhs: i64) {
        self.0 += rhs;
    }
}

impl Sub<i64> for DayStamp {
    type Output = DayStamp;

    fn sub(self, rhs: i64) -> DayStamp {
        DayStamp(self.0 - rhs)
    }
}

impl Sub for DayStamp {
    type Output = i64;

    fn sub(self, rhs: DayStamp) -> i64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let d = DayStamp::new(42);
        assert_eq!((d + 5) - 5, d);
        assert_eq!(d.days_before(7).day(), 35);
        assert_eq!(d.days_after(7).day(), 49);
    }

    #[test]
    fn difference_is_signed() {
        assert_eq!(DayStamp::new(3) - DayStamp::new(10), -7);
        assert_eq!(DayStamp::new(10) - DayStamp::new(3), 7);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = DayStamp::new(3);
        let b = DayStamp::new(10);
        assert_eq!(a.distance(b), 7);
        assert_eq!(b.distance(a), 7);
    }

    #[test]
    fn month_boundaries() {
        assert_eq!(DayStamp::new(0).month(), 0);
        assert_eq!(DayStamp::new(29).month(), 0);
        assert_eq!(DayStamp::new(30).month(), 1);
        assert_eq!(DayStamp::new(-1).month(), -1);
    }

    #[test]
    fn ordering_follows_day_index() {
        assert!(DayStamp::new(1) < DayStamp::new(2));
        assert_eq!(DayStamp::ZERO, DayStamp::new(0));
    }

    #[test]
    fn display_format() {
        assert_eq!(DayStamp::new(-3).to_string(), "d-3");
    }
}
