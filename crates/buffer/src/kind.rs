//! The one table of replacement-policy names.

use crate::{ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy};
use std::str::FromStr;

/// A replacement policy chosen by name: what simulator configurations,
/// chaos plans, CLI flags and per-shard factories carry around until a
/// fresh policy instance is needed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least recently used (the paper's policy).
    Lru,
    /// First in, first out.
    Fifo,
    /// Clock / second chance.
    Clock,
    /// LRU-2 (O'Neil et al.), scan-resistant history-based replacement.
    Lru2,
    /// Uniformly random victim (seeded).
    Random,
}

impl PolicyKind {
    /// The five policies of the study, in reporting order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::Lru2,
        PolicyKind::Random,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Clock => "CLOCK",
            PolicyKind::Lru2 => "LRU-2",
            PolicyKind::Random => "RANDOM",
        }
    }

    /// Builds a fresh policy instance; `seed` drives the randomized policy
    /// and is ignored by the deterministic ones.
    pub fn build(self, seed: u64) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::Clock => Box::new(ClockPolicy::new()),
            PolicyKind::Lru2 => Box::new(LruKPolicy::lru2()),
            PolicyKind::Random => Box::new(RandomPolicy::new(seed)),
        }
    }
}

impl FromStr for PolicyKind {
    type Err = String;

    /// Case-insensitive; `LRU2` is accepted for `LRU-2`.
    fn from_str(s: &str) -> Result<Self, String> {
        let upper = s.to_uppercase();
        PolicyKind::ALL
            .into_iter()
            .find(|k| k.name() == upper || (upper == "LRU2" && *k == PolicyKind::Lru2))
            .ok_or_else(|| format!("unknown policy {upper:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_build() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.name().parse::<PolicyKind>(), Ok(kind));
            assert_eq!(kind.name().to_lowercase().parse::<PolicyKind>(), Ok(kind));
            assert!(kind.build(7).is_empty());
        }
        assert_eq!("lru2".parse::<PolicyKind>(), Ok(PolicyKind::Lru2));
        assert!("MRU".parse::<PolicyKind>().is_err());
    }
}
