//! Property tests for the `.casa-session` JSON codec:
//!
//! 1. Write → read is the identity for arbitrary sessions — including
//!    f64 bit patterns (NaN payloads travel as bits, not as parsed
//!    numbers) and strings needing escapes — and a truncated document
//!    is always a clean `Format` error, never a panic and never a
//!    silently shorter session.
//! 2. Forward compatibility: a reader presented with keys it does not
//!    know skips them and still reconstructs the session.

use casa_core::session::{BoundUpdate, DecisionLog, Incumbent};
use casa_core::{Session, SessionError, SESSION_SCHEMA};
use proptest::prelude::*;
use proptest::TestRng;

/// Printable-ish characters plus the ones that stress the JSON
/// escaper: quotes, backslashes, control characters, non-ASCII.
const ALPHABET: [char; 8] = ['a', '"', '\\', '\n', '\t', '\u{1}', 'µ', '→'];

/// Node ids and node counts travel as plain JSON numbers, and the
/// mini-parser reads numbers through f64 — so, like the writer, the
/// generator stays below 2^53. Bit-pattern fields (`*_bits`) travel
/// as hex strings and keep the full u64 range.
fn count(rng: &mut TestRng) -> u64 {
    (0u64..(1 << 53)).sample(rng)
}

fn wild_string(rng: &mut TestRng) -> String {
    let len = (0usize..12).sample(rng);
    (0..len)
        .map(|_| ALPHABET[(0usize..ALPHABET.len()).sample(rng)])
        .collect()
}

fn opt_string(rng: &mut TestRng) -> Option<String> {
    if any::<bool>().sample(rng) {
        Some(wild_string(rng))
    } else {
        None
    }
}

fn decision_log(rng: &mut TestRng) -> DecisionLog {
    DecisionLog {
        order: prop::collection::vec(any::<u32>(), 0..16).sample(rng),
        incumbents: (0..(0usize..4).sample(rng))
            .map(|_| Incumbent {
                node: count(rng),
                objective_bits: any::<u64>().sample(rng),
                on_spm: prop::collection::vec(any::<bool>(), 0..10).sample(rng),
            })
            .collect(),
        bounds: (0..(0usize..4).sample(rng))
            .map(|_| BoundUpdate {
                node: count(rng),
                value_bits: any::<u64>().sample(rng),
            })
            .collect(),
        stop: opt_string(rng),
        nodes: count(rng),
    }
}

/// An arbitrary syntactically-wild session. The vendored proptest
/// stand-in has no combinators (`prop_map` etc.), so this is a direct
/// [`Strategy`] implementation assembling the struct field by field.
struct ArbSession;

impl Strategy for ArbSession {
    type Value = Session;

    fn sample(&self, rng: &mut TestRng) -> Session {
        Session {
            schema: SESSION_SCHEMA,
            meta: (0..(0usize..3).sample(rng))
                .map(|_| (wild_string(rng), wild_string(rng)))
                .collect(),
            request: wild_string(rng),
            log: decision_log(rng),
            layout: prop::collection::vec(any::<bool>(), 0..10).sample(rng),
            energy_bits: any::<u64>().sample(rng),
            status: wild_string(rng),
            gap_bits: any::<u64>().sample(rng),
            stopped_by: opt_string(rng),
            reason: opt_string(rng),
            nodes: count(rng),
            report: wild_string(rng),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_round_trip_is_identity(s in ArbSession, k in 1usize..4096) {
        let text = s.to_json();
        prop_assert_eq!(Session::from_json(&text).expect("parses back"), s);
        // No strict prefix of the document is a complete JSON object.
        let mut cut = text.len().saturating_sub(k);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(matches!(
            Session::from_json(&text[..cut]),
            Err(SessionError::Format(_))
        ));
    }

    #[test]
    fn unknown_json_keys_are_ignored(s in ArbSession, n in any::<u64>()) {
        let text = s.to_json();
        let extended = format!(
            "{{\"added_by_a_future_writer\":{{\"x\":{n},\"y\":[1,2]}},{}",
            &text[1..]
        );
        prop_assert_eq!(Session::from_json(&extended).expect("tolerant reader"), s);
    }

    #[test]
    fn newer_schema_is_refused(s in ArbSession, bump in 1u32..5) {
        let mut s = s;
        s.schema = SESSION_SCHEMA + bump;
        prop_assert!(Session::from_json(&s.to_json()).is_err());
    }
}
