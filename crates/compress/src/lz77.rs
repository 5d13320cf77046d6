//! LZ77 match finding with hash chains (the sliding-window stage of the
//! mini-deflate codec).

/// Maximum backward distance (32 KiB window, as in deflate).
pub const MAX_DISTANCE: usize = 32 * 1024;

/// Minimum useful match length.
pub const MIN_MATCH: usize = 3;

/// Maximum match length (deflate's 258).
pub const MAX_MATCH: usize = 258;

/// One LZ77 token, four bytes: a match keeps its length as the offset
/// from `MIN_MATCH`, which fits in a byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `MIN_MATCH + extra_len` bytes from
    /// `distance` back (see [`Token::back_ref`]).
    Match {
        /// Copy length minus `MIN_MATCH`, so `0..=255` spans
        /// `MIN_MATCH..=MAX_MATCH`.
        extra_len: u8,
        /// Backward distance in `1..=MAX_DISTANCE`.
        distance: u16,
    },
}

const _: () = assert!(std::mem::size_of::<Token>() == 4);

impl Token {
    /// A back-reference copying `length` bytes (`MIN_MATCH..=MAX_MATCH`)
    /// from `distance` (`1..=MAX_DISTANCE`) back.
    #[inline]
    pub fn back_ref(length: usize, distance: usize) -> Token {
        debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&length));
        debug_assert!((1..=MAX_DISTANCE).contains(&distance));
        Token::Match {
            extra_len: (length - MIN_MATCH) as u8,
            distance: distance as u16,
        }
    }
}

const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const CHAIN_LIMIT: usize = 64;
/// Ring size of the chain links. A link is followed only from a
/// position within `MAX_DISTANCE` of the cursor, and every position
/// written since then is newer, so no live link is ever overwritten.
const WINDOW: usize = MAX_DISTANCE;
const NONE: usize = usize::MAX;

/// The 3-byte hash of the position whose bytes, little-endian from the
/// low end, are `word` (at least 3 of them real).
#[inline]
fn hash(word: u64) -> usize {
    let [b0, b1, b2, ..] = word.to_le_bytes();
    let h = (u32::from(b0) << 16) ^ (u32::from(b1) << 8) ^ u32::from(b2);
    (h.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The (up to) 8 bytes at `i` as a little-endian word, zero-padded past
/// the end of `data`.
#[inline]
fn word_at(data: &[u8], i: usize) -> u64 {
    match data.get(i..i + 8) {
        Some(bytes) => load_u64(bytes),
        None => data[i..]
            .iter()
            .rev()
            .fold(0u64, |w, &b| (w << 8) | u64::from(b)),
    }
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len` (with `b + max_len <= data.len()` and `a < b`). Compares
/// eight bytes at a time.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max_len {
        let (Some(x), Some(y)) = (data.get(a + l..a + l + 8), data.get(b + l..b + l + 8)) else {
            break;
        };
        let diff = load_u64(x) ^ load_u64(y);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Whether `data[a..]` and `data[b..]` agree on the bytes just up to and
/// including offset `at` — a cheap necessary condition for a match
/// longer than `at` (with `a < b` and `b + at < data.len()`). Checks the
/// eight bytes ending at `at` where there are eight, else just `at`.
#[inline]
fn tail_matches(data: &[u8], a: usize, b: usize, at: usize) -> bool {
    if at >= 7 {
        let (x, y) = (&data[a + at - 7..=a + at], &data[b + at - 7..=b + at]);
        load_u64(x) == load_u64(y)
    } else {
        data[a + at] == data[b + at]
    }
}

/// Whether `data[a..a + 3]` and `data[b..b + 3]` are equal.
#[inline]
fn same3(data: &[u8], a: usize, b: usize) -> bool {
    data[a] == data[b] && data[a + 1] == data[b + 1] && data[a + 2] == data[b + 2]
}

#[inline]
fn load_u64(bytes: &[u8]) -> u64 {
    match *bytes {
        [a, b, c, d, e, f, g, h] => u64::from_le_bytes([a, b, c, d, e, f, g, h]),
        _ => 0,
    }
}

/// Hash-chain match finder over one input.
///
/// The match a search returns is defined by the 3-byte hash chain: the
/// longest among its first `CHAIN_LIMIT` candidates within
/// `MAX_DISTANCE`, the nearest on ties. Once the best match so far is
/// `n` bytes long, only candidates sharing its first `n + 1` bytes can
/// still win, and on imagery those are a small part of the chain. So
/// the search walks the hash chain only until its first 3-byte match,
/// then chains over 4-byte and (once a match reaches 8 bytes) 8-byte
/// hashes, and uses each candidate's ordinal in the hash chain to stop
/// exactly where the hash-chain walk would.
struct Matcher<'a> {
    data: &'a [u8],
    /// The head tables hold position `p` as the `u16` `p - base + 1`,
    /// and 0 for none; [`Matcher::slide`] moves `base` up before an
    /// entry would overflow.
    base: usize,
    /// `head[h]`: most recent position inserted with 3-byte hash `h`.
    head: Vec<u16>,
    /// Heads of the chains over `PREFIX_WIDTHS`-byte hashes, as `head`.
    prefix_heads: [Vec<u16>; 2],
    prefix_shift: u32,
    /// `links[p % WINDOW]`: position `p`'s links, in one ring so a walk
    /// step touches one cache line.
    links: Vec<Links>,
}

/// Widths of the prefixes the longer chains hash.
const PREFIX_WIDTHS: [usize; 2] = [4, 8];

/// A position's chain links. A link is how far back the previous
/// position with the same hash lies, or 0 if there is none within
/// `MAX_DISTANCE` (a walk would stop there anyway).
#[derive(Debug, Clone, Copy, Default)]
struct Links {
    /// Link in the 3-byte hash chain.
    back: u16,
    /// Links in the `PREFIX_WIDTHS`-byte hash chains.
    prefix_back: [u16; 2],
    /// The position's ordinal in its 3-byte hash chain, counted (mod
    /// 2^16) from the oldest entry within `MAX_DISTANCE` of it. The
    /// difference to the head's ordinal is the position's place in the
    /// walk.
    ord: u16,
}

impl<'a> Matcher<'a> {
    fn new(data: &'a [u8]) -> Self {
        // The prefix chains only skip candidates, so their table size is
        // free to follow the input.
        let slots = data.len().next_power_of_two().clamp(256, HASH_SIZE);
        Self {
            data,
            base: 0,
            head: vec![0; HASH_SIZE],
            prefix_heads: [vec![0; slots], vec![0; slots]],
            prefix_shift: 64 - slots.trailing_zeros(),
            links: vec![Links::default(); WINDOW.min(data.len())],
        }
    }

    /// Hash of the first `PREFIX_WIDTHS[level]` bytes of `word` (see
    /// [`word_at`]), which must be real.
    #[inline]
    fn prefix_hash(&self, word: u64, level: usize) -> usize {
        let width = PREFIX_WIDTHS[level];
        let prefix = word & (u64::MAX >> (64 - 8 * width));
        (prefix.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.prefix_shift) as usize
    }

    /// A head-table entry as a position, `NONE` for an empty slot.
    #[inline]
    fn entry(&self, head: u16) -> usize {
        match head {
            0 => NONE,
            e => self.base + usize::from(e) - 1,
        }
    }

    /// Rebases the head tables on `i - MAX_DISTANCE`, emptying the
    /// entries before it: they are more than `MAX_DISTANCE` behind every
    /// position searched from here on.
    #[cold]
    #[inline(never)]
    fn slide(&mut self, i: usize) {
        // `insert` slides at `i - base == u16::MAX`, so this is 32,767.
        let shift = (i - MAX_DISTANCE - self.base) as u16;
        let [p4, p8] = &mut self.prefix_heads;
        for table in [&mut self.head, p4, p8] {
            for e in table.iter_mut() {
                *e = e.saturating_sub(shift);
            }
        }
        self.base = i - MAX_DISTANCE;
    }

    /// The link from the position with head entry `slot` back to head
    /// entry `prev`, 0 if there is none in range.
    #[inline]
    fn link(slot: u16, prev: u16) -> u16 {
        match slot - prev {
            d if prev == 0 || usize::from(d) > MAX_DISTANCE => 0,
            d => d,
        }
    }

    fn insert(&mut self, i: usize) {
        if i + MIN_MATCH > self.data.len() {
            return;
        }
        if i - self.base >= usize::from(u16::MAX) {
            self.slide(i);
        }
        let slot = (i - self.base + 1) as u16;
        let word = word_at(self.data, i);
        let h = hash(word);
        let back = Self::link(slot, self.head[h]);
        let ord = match back {
            0 => 0,
            d => self.links[(i - usize::from(d)) % WINDOW]
                .ord
                .wrapping_add(1),
        };
        self.head[h] = slot;
        let mut prefix_back = [0u16; 2];
        for (level, &width) in PREFIX_WIDTHS.iter().enumerate() {
            if i + width <= self.data.len() {
                let h = self.prefix_hash(word, level);
                prefix_back[level] = Self::link(slot, self.prefix_heads[level][h]);
                self.prefix_heads[level][h] = slot;
            }
        }
        self.links[i % WINDOW] = Links {
            back,
            prefix_back,
            ord,
        };
    }

    /// Offers candidate `cand` for a match at `i`: records it in `best`
    /// if it is strictly longer. Returns true once a match reaches
    /// `MAX_MATCH`, which ends the search.
    #[inline]
    fn offer(&self, i: usize, cand: usize, max_len: usize, best: &mut (usize, usize)) -> bool {
        // A candidate can only beat `best.0` if it matches at offset
        // `best.0` too: `tail_matches` rejects most of them with one word
        // compare before the full one.
        if best.0 < max_len && tail_matches(self.data, cand, i, best.0) {
            let l = common_prefix(self.data, cand, i, max_len);
            if l > best.0 {
                *best = (l, i - cand);
                return l >= MAX_MATCH;
            }
        }
        false
    }

    /// The longest match at `i` strictly longer than `floor` among the
    /// first `CHAIN_LIMIT` hash-chain candidates (the nearest on ties),
    /// as `(length, distance)`. With `floor = MIN_MATCH - 1` this is the
    /// plain best match.
    fn find(&self, i: usize, floor: usize) -> Option<(usize, usize)> {
        let data = self.data;
        if i + MIN_MATCH > data.len() {
            return None;
        }
        let max_len = (data.len() - i).min(MAX_MATCH);
        let word = word_at(data, i);
        let head = self.entry(self.head[hash(word)]);
        if head == NONE || i - head > MAX_DISTANCE {
            return None;
        }
        let mut best = (floor, 0usize);

        // Walk the hash chain until a candidate shares 3 bytes.
        let (mut cand, mut chain) = (head, 0);
        let mut done = false;
        while best.0 < MIN_MATCH {
            if cand == NONE || i - cand > MAX_DISTANCE || chain >= CHAIN_LIMIT {
                done = true;
                break;
            }
            if self.offer(i, cand, max_len, &mut best) {
                done = true;
                break;
            }
            cand = match self.links[cand % WINDOW].back {
                0 => NONE,
                d => cand - usize::from(d),
            };
            chain += 1;
        }

        // The rest of the walk can only be won by a candidate sharing
        // `best.0 + 1` bytes: walk the longest prefix chain that holds
        // them all, in the same order (offering again the newest, which
        // the walk above reached, changes nothing), and move on to the
        // next once `best.0` reaches its width. Stop at the first
        // candidate whose place in the hash-chain walk is past the limit.
        // A place is known only for a candidate in the same hash chain,
        // i.e. sharing 3 bytes: a hash collision without them cannot win,
        // so a place read for one only matters when it would stop the
        // walk, and is checked then.
        let top = self.links[head % WINDOW].ord;
        for level in 0..PREFIX_WIDTHS.len() {
            let until = PREFIX_WIDTHS.get(level + 1).copied().unwrap_or(usize::MAX);
            if done || max_len <= best.0 {
                break;
            }
            if best.0 >= until {
                continue;
            }
            let mut cand = self.entry(self.prefix_heads[level][self.prefix_hash(word, level)]);
            done = true;
            while cand != NONE && i - cand <= MAX_DISTANCE {
                let links = self.links[cand % WINDOW];
                if usize::from(top.wrapping_sub(links.ord)) >= CHAIN_LIMIT {
                    if same3(data, cand, i) {
                        break;
                    }
                } else if self.offer(i, cand, max_len, &mut best) {
                    break;
                }
                if best.0 >= until {
                    done = false;
                    break;
                }
                cand = match links.prefix_back[level] {
                    0 => NONE,
                    d => cand - usize::from(d),
                };
            }
        }
        (best.1 > 0).then_some(best)
    }
}

/// Tokenises `data` with greedy hash-chain matching (lazy matching of one
/// byte, as zlib's fast levels do).
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    // Grown as needed: imagery takes 0.5–20 tokens per 100 bytes.
    let mut tokens = Vec::new();
    if data.len() < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    let mut m = Matcher::new(data);
    // The match at `i`, when already known from the previous step's
    // lazy look-ahead.
    let mut known: Option<(usize, usize)> = None;
    let mut i = 0usize;
    while i < data.len() {
        let here = known.take().or_else(|| m.find(i, MIN_MATCH - 1));
        let Some((len, dist)) = here else {
            tokens.push(Token::Literal(data[i]));
            m.insert(i);
            i += 1;
            continue;
        };
        // Lazy matching: if the next position has a match longer than
        // `len + 1`, emit a literal instead. Searching with that floor
        // rejects shorter candidates early; when it succeeds, its result
        // is the full best match at `i + 1`.
        let lazy = if i + 1 < data.len() && len + 1 < MAX_MATCH {
            m.find(i + 1, len + 1)
        } else {
            None
        };
        if let Some(next) = lazy {
            tokens.push(Token::Literal(data[i]));
            // Inserting `i` changes the chain searched from `i + 1` only
            // when both positions hash alike.
            let same_chain =
                i + MIN_MATCH < data.len() && hash(word_at(data, i)) == hash(word_at(data, i + 1));
            m.insert(i);
            if !same_chain {
                known = Some(next);
            }
            i += 1;
        } else {
            tokens.push(Token::back_ref(len, dist));
            for j in i..(i + len).min(data.len()) {
                m.insert(j);
            }
            i += len;
        }
    }
    tokens
}

/// Reconstructs the byte stream from tokens.
///
/// # Errors
///
/// Returns an error message if a match refers before the start of output.
pub fn detokenize(tokens: &[Token]) -> Result<Vec<u8>, String> {
    let mut out: Vec<u8> = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match {
                extra_len,
                distance,
            } => {
                let dist = usize::from(distance);
                let len = MIN_MATCH + usize::from(extra_len);
                if dist == 0 || dist > out.len() {
                    return Err(format!(
                        "match distance {dist} exceeds output length {}",
                        out.len()
                    ));
                }
                let start = out.len() - dist;
                // Byte-by-byte copy supports overlapping matches
                // (run-length behaviour when distance < length).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::prop::{self, any};

    fn round_trip(data: &[u8]) {
        let tokens = tokenize(data);
        let back = detokenize(&tokens).expect("valid tokens");
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(&[]);
        round_trip(&[1]);
        round_trip(&[1, 2]);
        round_trip(&[1, 2, 3]);
    }

    #[test]
    fn repeated_text_produces_matches() {
        let data = b"to be or not to be, that is the question: to be or not".to_vec();
        let tokens = tokenize(&data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected at least one back-reference"
        );
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_run_length_case() {
        // "aaaa..." → literal 'a' then a match with distance 1.
        let data = vec![b'a'; 300];
        let tokens = tokenize(&data);
        assert!(tokens.len() < 10, "got {} tokens", tokens.len());
        round_trip(&data);
    }

    #[test]
    fn match_lengths_and_distances_in_bounds() {
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        for t in tokenize(&data) {
            if let Token::Match { distance, .. } = t {
                assert!((1..=MAX_DISTANCE).contains(&usize::from(distance)));
            }
        }
        round_trip(&data);
    }

    /// The 3-byte hash that defines the chains, as first written.
    fn ref_hash(data: &[u8], i: usize) -> usize {
        let h = (u32::from(data[i]) << 16) ^ (u32::from(data[i + 1]) << 8) ^ u32::from(data[i + 2]);
        (h.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }

    /// The plain hash-chain tokenizer the fast one must reproduce token
    /// for token: full-length chain links, byte-at-a-time compares, and
    /// a full second search for every lazy decision.
    fn reference_tokenize(data: &[u8]) -> Vec<Token> {
        let mut tokens = Vec::new();
        if data.len() < MIN_MATCH {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return tokens;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; data.len()];
        let find = |head: &[usize], prev: &[usize], i: usize| -> Option<(usize, usize)> {
            if i + MIN_MATCH > data.len() {
                return None;
            }
            let (mut best_len, mut best_dist) = (MIN_MATCH - 1, 0);
            let mut cand = head[ref_hash(data, i)];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= MAX_DISTANCE && chain < CHAIN_LIMIT {
                let max_len = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    (best_len, best_dist) = (l, i - cand);
                    if l >= MAX_MATCH {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            (best_len >= MIN_MATCH).then_some((best_len, best_dist))
        };
        let insert = |head: &mut [usize], prev: &mut [usize], i: usize| {
            if i + MIN_MATCH <= data.len() {
                let h = ref_hash(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
        };
        let mut i = 0;
        while i < data.len() {
            match find(&head, &prev, i) {
                Some((len, dist)) => {
                    let lazy = i + 1 < data.len()
                        && matches!(find(&head, &prev, i + 1), Some((l2, _)) if l2 > len + 1);
                    if lazy {
                        tokens.push(Token::Literal(data[i]));
                        insert(&mut head, &mut prev, i);
                        i += 1;
                    } else {
                        tokens.push(Token::back_ref(len, dist));
                        for j in i..(i + len).min(data.len()) {
                            insert(&mut head, &mut prev, j);
                        }
                        i += len;
                    }
                }
                None => {
                    tokens.push(Token::Literal(data[i]));
                    insert(&mut head, &mut prev, i);
                    i += 1;
                }
            }
        }
        tokens
    }

    #[test]
    fn tokens_match_the_plain_hash_chain_walk() {
        prop::check("tokens_match_the_plain_hash_chain_walk", 150, |g| {
            // Alphabets from 1 to 256 symbols, some smooth like imagery,
            // some in long runs; long inputs cross the 32 KiB window, and
            // a fifth of the smooth and run cases cross 98,302 bytes, the
            // second point where the head tables rebase.
            let long = matches!(g.case() % 10, 6 | 9);
            let len = g.draw(0..20_000usize) + if long { 100_000 } else { 0 };
            let alphabet = g.draw(1..257u64);
            let data: Vec<u8> = match g.case() % 5 {
                0 => (0..len).map(|_| g.draw(0..alphabet) as u8).collect(),
                1 => {
                    let mut v = 128u8;
                    (0..len)
                        .map(|_| {
                            v = v.wrapping_add(g.draw(0..5u8)).wrapping_sub(2);
                            v / (1 + (alphabet % 8) as u8)
                        })
                        .collect()
                }
                2 => {
                    let unit = g.draw(prop::vec(any::<u8>(), 1..301));
                    (0..len)
                        .map(|k| {
                            let b = unit[k % unit.len()];
                            if g.draw(0..50u8) == 0 {
                                b ^ 1
                            } else {
                                b
                            }
                        })
                        .collect()
                }
                // Varint bytes of sparse, mostly tiny values: the DWT's
                // deflate backend input, where matches run long.
                3 => {
                    let mut v = Vec::new();
                    while v.len() < len {
                        let mut x = match g.draw(0..16u8) {
                            0..=9 => 0,
                            10..=13 => g.draw(0..4u64),
                            _ => g.draw(0..1 + alphabet * 64),
                        };
                        while x >= 0x80 {
                            v.push((x as u8 & 0x7F) | 0x80);
                            x >>= 7;
                        }
                        v.push(x as u8);
                    }
                    v
                }
                _ => (0..len + 40_000)
                    .map(|k| ((k / (1 + (alphabet as usize % 9))) % 7) as u8)
                    .collect(),
            };
            assert_eq!(tokenize(&data), reference_tokenize(&data));
        });
    }

    #[test]
    fn tokens_pack_and_unpack_at_the_extremes() {
        for b in 0..=255u8 {
            assert_eq!(detokenize(&[Token::Literal(b)]), Ok(vec![b]));
        }
        prop::check("tokens_pack_and_unpack_at_the_extremes", 64, |g| {
            let length = match g.case() % 3 {
                0 => MIN_MATCH,
                1 => MAX_MATCH,
                _ => g.draw(MIN_MATCH..MAX_MATCH + 1),
            };
            let distance = match g.case() / 3 % 3 {
                0 => 1,
                1 => MAX_DISTANCE,
                _ => g.draw(1..MAX_DISTANCE + 1),
            };
            // After `distance` literals the match repeats them from the
            // start, cyclically when it is the longer.
            let prefix = g.draw(prop::vec(any::<u8>(), distance..distance + 1));
            let mut tokens: Vec<Token> = prefix.iter().map(|&b| Token::Literal(b)).collect();
            tokens.push(Token::back_ref(length, distance));
            let want: Vec<u8> = prefix
                .iter()
                .cycle()
                .take(distance + length)
                .copied()
                .collect();
            assert_eq!(detokenize(&tokens), Ok(want));
        });
    }

    #[test]
    fn invalid_distance_detected() {
        let bad = vec![Token::back_ref(5, 10)];
        assert!(detokenize(&bad).is_err());
    }

    #[test]
    fn round_trips_arbitrary() {
        prop::check("round_trips_arbitrary", 64, |g| {
            let data = g.draw(prop::vec(any::<u8>(), 0..5000));

            round_trip(&data);
        });
    }

    #[test]
    fn round_trips_structured() {
        prop::check("round_trips_structured", 64, |g| {
            let pattern = g.draw(prop::vec(any::<u8>(), 1..50));
            let repeats = g.draw(1usize..100);

            let data: Vec<u8> = pattern
                .iter()
                .cycle()
                .take(pattern.len() * repeats)
                .copied()
                .collect();
            round_trip(&data);
        });
    }
}
