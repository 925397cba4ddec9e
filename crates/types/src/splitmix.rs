//! SplitMix64 (Steele, Lea & Flood, 2014): the workspace's one cheap,
//! seedable mixer. Fault plans, corruption sites, replica placement and
//! open-loop arrival traces all draw from it, so each replays exactly
//! from its seed.

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The output of one SplitMix64 step taken from state `z`: the state
/// advanced by the golden-ratio increment, then finalized. Also a good
/// stateless hash of `z`.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 generator step: returns the next output and advances
/// `state`.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GOLDEN_GAMMA);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_sequence() {
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn mix64_is_one_step_from_its_argument() {
        let mut s = 0x5EED;
        assert_eq!(mix64(0x5EED), splitmix64(&mut s));
        assert_eq!(mix64(s), splitmix64(&mut s));
    }
}
