//! Capture-tap simulation: packet drops.
//!
//! The paper notes its kernel reported no drops yet analysis found TCP
//! receivers acknowledging data absent from the trace — i.e. silent capture
//! loss. [`Tap`] models a tap with a deterministic drop pattern so analyses
//! can be tested against imperfect captures. It is applied in one place,
//! [`crate::PacketArena::apply_tap`]; the snaplen is the arena's own
//! ([`crate::PacketArena::set_snaplen`]).

/// A capture tap dropping one packet in every `drop_period`.
#[derive(Debug, Clone)]
pub struct Tap {
    /// Drop one packet in every `drop_period` (0 = no drops). Deterministic
    /// so tests are reproducible; real loss is bursty but a periodic model
    /// suffices to exercise the "acked data missing from trace" condition.
    drop_period: u64,
    seen: u64,
    dropped: u64,
}

impl Tap {
    /// A tap dropping one packet per `drop_period` packets observed (0 =
    /// no loss).
    pub fn new(drop_period: u64) -> Tap {
        Tap {
            drop_period,
            seen: 0,
            dropped: 0,
        }
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Offer the next packet to the tap: returns whether it keeps it.
    /// [`crate::PacketArena::apply_tap`] calls this once per record in
    /// time order.
    pub fn admit(&mut self) -> bool {
        self.seen += 1;
        let drop = self.drop_period != 0 && self.seen.is_multiple_of(self.drop_period);
        self.dropped += u64::from(drop);
        !drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of `n` packets the tap keeps.
    fn kept(tap: &mut Tap, n: usize) -> usize {
        (0..n).filter(|_| tap.admit()).count()
    }

    #[test]
    fn periodic_drops() {
        let mut tap = Tap::new(10);
        assert_eq!(kept(&mut tap, 100), 90);
        assert_eq!(tap.dropped(), 10);
    }

    #[test]
    fn no_drops_by_default() {
        let mut tap = Tap::new(0);
        assert_eq!(kept(&mut tap, 50), 50);
        assert_eq!(tap.dropped(), 0);
    }
}
