//! Least-significant-digit radix sort of packed `(key << 32 | payload)`
//! words by their high 32-bit key — how the engine puts departures back
//! into job-id order without a comparison sort.

/// Below this length a comparison sort beats four 256-bucket histograms.
const SMALL: usize = 256;

/// Sorts `words` by their high 32 bits, keeping words with equal keys
/// in input order. Linear in `words.len()` (the key digits every word
/// shares are skipped); `scratch` is reused across calls.
pub(crate) fn sort_by_high_word(words: &mut [u64], scratch: &mut Vec<u64>) {
    let n = words.len();
    if n < SMALL {
        words.sort_by_key(|&word| word >> 32);
        return;
    }
    let mut counts = [[0usize; 256]; 4];
    for &word in words.iter() {
        for (digit, count) in counts.iter_mut().enumerate() {
            count[digit_of(word, digit)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(n, 0);
    let mut in_words = true;
    for (digit, count) in counts.iter().enumerate() {
        // A digit every word shares leaves the order as it is.
        if count.contains(&n) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        if in_words {
            scatter(words, scratch, digit, &mut next);
        } else {
            scatter(scratch, words, digit, &mut next);
        }
        in_words = !in_words;
    }
    if !in_words {
        words.copy_from_slice(scratch);
    }
}

/// Byte `digit` (0 = least significant) of a word's high 32 bits.
#[inline]
fn digit_of(word: u64, digit: usize) -> usize {
    (word >> (32 + 8 * digit)) as u8 as usize
}

/// One stable counting pass: `src` into `dst` by byte `digit`, `next`
/// holding each bucket's next free position.
fn scatter(src: &[u64], dst: &mut [u64], digit: usize, next: &mut [usize; 256]) {
    for &word in src {
        let bucket = &mut next[digit_of(word, digit)];
        dst[*bucket] = word;
        *bucket += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitmix64 stream for deterministic inputs.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut z = seed;
        move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
    }

    #[test]
    fn matches_a_stable_sort_by_key() {
        let mut scratch = Vec::new();
        for (len, key_mask) in [
            (0, u32::MAX),
            (5, 3),
            (255, u32::MAX),
            (256, 0),
            (1000, 0xFF),
            (5000, 0x00FF_F0FF),
            (20_000, u32::MAX),
        ] {
            let mut next = stream(len as u64);
            let mut words: Vec<u64> = (0..len)
                .map(|i| (u64::from(next() as u32 & key_mask) << 32) | i as u64)
                .collect();
            let mut want = words.clone();
            want.sort_by_key(|&word| word >> 32);
            sort_by_high_word(&mut words, &mut scratch);
            assert_eq!(words, want, "{len} words, key mask {key_mask:#x}");
        }
    }
}
