//! Content fingerprints of crowd questions: FNV-1a over a question-shape
//! tag, the question's objects and its target's rendering. Stable across
//! runs, identical for identical questions, independent of when or in
//! which batch a question arrives. `MTurkSim`'s per-object answer seeds
//! (an object's [`point_key`], so one latent labeling keeps set,
//! membership and point answers consistent) and every `FaultInjector`
//! draw derive from them; the golden vectors below pin them.

use coverage_core::engine::ObjectId;
use coverage_core::target::Target;

/// 64-bit FNV-1a over a byte stream.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The point (label) question about `object`.
pub(crate) fn point_key(object: ObjectId) -> u64 {
    fnv1a([0x50].into_iter().chain(object.0.to_le_bytes()))
}

/// The set question "does `objects` hold a member of `target`?".
pub(crate) fn set_key(objects: &[ObjectId], target: &Target) -> u64 {
    fnv1a(
        [0x53]
            .into_iter()
            .chain(objects.iter().flat_map(|o| o.0.to_le_bytes()))
            .chain(target.to_string().into_bytes()),
    )
}

/// The membership question "is `object` a member of `target`?".
pub(crate) fn membership_key(object: ObjectId, target: &Target) -> u64 {
    fnv1a(
        [0x4d]
            .into_iter()
            .chain(object.0.to_le_bytes())
            .chain(target.to_string().into_bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::pattern::Pattern;

    /// Every seeded answer and fault derives from these values: a change
    /// here silently moves crowd spend and chaos schedules.
    #[test]
    fn golden_vectors() {
        let female = Target::group(Pattern::parse("1").unwrap());
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(point_key(ObjectId(42)), 0x9aee_15d7_b69b_5cb5);
        assert_eq!(
            set_key(&[ObjectId(1), ObjectId(2), ObjectId(3)], &female),
            0x78a8_9882_298e_4789
        );
        assert_eq!(membership_key(ObjectId(7), &female), 0xec09_5b77_dd10_1dfa);
    }
}
