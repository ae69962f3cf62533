//! One declaration per code table: the paper classifies traffic by numbers
//! on the wire (IP protocol, SMB command, NFS procedure, …), so each
//! number → row mapping is stated once, as the rows of a [`code_table!`],
//! and the enum, its decoder and its encoder expand from those rows.

/// Declare an enum of wire codes with its decoder and encoder.
///
/// A row is `Variant = code`, plus `| alias` codes that decode to the same
/// variant (the encoder writes the first); the `else` line names the
/// variant every unlisted code decodes to. An *open* table says
/// `else Other(u8);` and keeps the code, so `encode(decode(v)) == v`. A
/// *bucket* table gives each row `=> "label"` (the paper's row name) and
/// says `else Other = 0 => "Other";`: a unit variant that encodes as the
/// given code. The `fn` lines name the functions to generate — decoder,
/// encoder and (bucket only) label accessor — each the `match` one would
/// write by hand. A bucket table also gets `ALL`, its variants in row order.
#[macro_export]
macro_rules! code_table {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $repr:ty {
            $($(#[$vmeta:meta])* $variant:ident = $code:literal $(| $alias:literal)*,)+
        }
        $(#[$ometa:meta])* else $other:ident($oty:ty);
        $dvis:vis fn $decode:ident;
        $evis:vis fn $encode:ident;
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
            $(#[$ometa])* $other($oty),
        }
        impl $name {
            /// Decode a code: its listed variant, or the catch-all carrying it.
            $dvis fn $decode(v: $repr) -> $name {
                match v {
                    $($code $(| $alias)* => $name::$variant,)+
                    x => $name::$other(x),
                }
            }
            /// Encode back to the code (the first one listed for the variant).
            $evis fn $encode(self) -> $repr {
                match self {
                    $($name::$variant => $code,)+
                    $name::$other(x) => x,
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $repr:ty {
            $($(#[$vmeta:meta])* $variant:ident = $code:literal $(| $alias:literal)* => $label:literal,)+
        }
        $(#[$ometa:meta])* else $other:ident = $ocode:literal => $olabel:literal;
        $dvis:vis fn $decode:ident;
        $evis:vis fn $encode:ident;
        $lvis:vis fn $labelfn:ident;
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
            $(#[$ometa])* $other,
        }
        impl $name {
            /// Every bucket in declaration order, the catch-all last: the
            /// row order of the paper's table.
            $vis const ALL: &'static [$name] = &[$($name::$variant,)+ $name::$other];

            /// Classify a code: its listed bucket, or the catch-all.
            $dvis fn $decode(v: $repr) -> $name {
                match v {
                    $($code $(| $alias)* => $name::$variant,)+
                    _ => $name::$other,
                }
            }
            /// A representative code for this bucket (the first one listed).
            $evis fn $encode(self) -> $repr {
                match self {
                    $($name::$variant => $code,)+
                    $name::$other => $ocode,
                }
            }
            /// The paper's label for this row.
            $lvis fn $labelfn(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                    $name::$other => $olabel,
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{arp, icmp, ipv4, ipx};

    /// FNV-1a over one line per code, in code order.
    fn fnv(lines: impl Iterator<Item = String>) -> u64 {
        lines.fold(0xcbf2_9ce4_8422_2325, |h, line| {
            line.bytes()
                .chain([b'\n'])
                .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        })
    }

    /// Assert the recorded digest of `(Debug of decode(v), encode(decode(v)))`
    /// over every value of the repr, checking `decode(encode(x)) == x` on
    /// the way.
    macro_rules! assert_digest {
        ($recorded:literal, $repr:ty, $decode:path, $encode:path) => {
            let got = fnv((0..=<$repr>::MAX).map(|v| {
                let x = $decode(v);
                assert_eq!($decode($encode(x)), x);
                format!("{x:?} {}", $encode(x))
            }));
            assert_eq!(got, $recorded, "{}: got {got:#018x}", stringify!($decode));
        };
    }

    /// The expansion of every table in this crate decodes and encodes every
    /// value of its repr exactly as the hand-written `match` pairs it
    /// replaced: the digests were recorded by running this test's body
    /// against a `git archive` of the last commit that had them.
    #[test]
    fn every_code_converts_as_the_hand_written_matches_did() {
        use {arp::Operation, icmp::MessageType, ipv4::Protocol, ipx::PacketType};
        assert_digest!(
            0x7473_1533_5866_9e41,
            u8,
            Protocol::from_u8,
            Protocol::to_u8
        );
        assert_digest!(
            0x439b_ca7d_6687_6b99,
            u8,
            PacketType::from_u8,
            PacketType::to_u8
        );
        assert_digest!(
            0xe8f4_d78f_5bbe_2067,
            u16,
            Operation::from_u16,
            Operation::to_u16
        );
        assert_digest!(
            0xf5f2_6ecc_7843_3cf3,
            u8,
            MessageType::from_u8,
            MessageType::to_u8
        );
    }
}
