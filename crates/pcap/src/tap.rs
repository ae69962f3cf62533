//! Capture-tap simulation: snaplen truncation and packet drops.
//!
//! The paper notes its kernel reported no drops yet analysis found TCP
//! receivers acknowledging data absent from the trace — i.e. silent capture
//! loss. [`Tap`] models a tap with a snaplen and a deterministic drop
//! pattern so analyses can be tested against imperfect captures. It is
//! applied in one place, [`crate::PacketArena::apply_tap`].

/// A capture tap applying snaplen and optional periodic drops.
#[derive(Debug, Clone)]
pub struct Tap {
    snaplen: usize,
    /// Drop one packet in every `drop_period` (0 = no drops). Deterministic
    /// so tests are reproducible; real loss is bursty but a periodic model
    /// suffices to exercise the "acked data missing from trace" condition.
    drop_period: u64,
    seen: u64,
    dropped: u64,
}

impl Tap {
    /// A tap with the given snaplen and no loss.
    pub fn new(snaplen: usize) -> Tap {
        Tap {
            snaplen,
            drop_period: 0,
            seen: 0,
            dropped: 0,
        }
    }

    /// Enable dropping one packet per `period` packets observed.
    pub fn with_drop_period(mut self, period: u64) -> Tap {
        self.drop_period = period;
        self
    }

    /// The configured snaplen.
    pub fn snaplen(&self) -> usize {
        self.snaplen
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Offer one packet of `wire_len` bytes to the tap: returns the
    /// capture length (wire length clamped to snaplen), or `None` if the
    /// tap dropped it. [`crate::PacketArena::apply_tap`] calls this once
    /// per record in time order, and moves no bytes.
    pub fn admit(&mut self, wire_len: usize) -> Option<usize> {
        self.seen += 1;
        if self.drop_period != 0 && self.seen.is_multiple_of(self.drop_period) {
            self.dropped += 1;
            return None;
        }
        Some(wire_len.min(self.snaplen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How many of `n` packets of `len` wire bytes the tap keeps.
    fn kept(tap: &mut Tap, n: usize, len: usize) -> usize {
        (0..n).filter_map(|_| tap.admit(len)).count()
    }

    #[test]
    fn snaplen_applied() {
        let mut tap = Tap::new(68);
        assert_eq!(tap.admit(1500), Some(68));
        assert_eq!(tap.admit(40), Some(40));
    }

    #[test]
    fn periodic_drops() {
        let mut tap = Tap::new(1500).with_drop_period(10);
        assert_eq!(kept(&mut tap, 100, 100), 90);
        assert_eq!(tap.dropped(), 10);
    }

    #[test]
    fn no_drops_by_default() {
        let mut tap = Tap::new(1500);
        assert_eq!(kept(&mut tap, 50, 100), 50);
        assert_eq!(tap.dropped(), 0);
    }
}
