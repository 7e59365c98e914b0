//! Checkpoint and restore: compact binary snapshots of any summary.
//!
//! Forward decay freezes each arrival's weight, so a summary's state is
//! plain data — parameters, counters, static numerators — and a checkpoint
//! is that data in a fixed order. This module is the one codec that writes
//! it: [`Encode`] puts a value, [`Decode`] takes it back off a [`Reader`].
//! The layout describes nothing about itself: fixed-width little-endian
//! integers and floats, a `u64` count before every sequence or map, a
//! one-byte tag before an optional value and a `u32` variant index before
//! an enum's fields. A plain struct is its fields in declaration order
//! ([`codec_struct!`](crate::codec_struct)); enums, the generic cells and
//! the states that check themselves on decode implement the traits by hand.
//!
//! A decoder trusts nothing it reads. Every count is checked against the
//! bytes that remain ([`Reader::count`]) and reserves no more memory than
//! those bytes ([`Reader::reserve`]); a state whose internal indices do
//! not fit together, or whose counters its next update would overflow, is
//! an `Err` here rather than a panic later.
//!
//! ```
//! use fd_core::aggregates::DecayedSum;
//! use fd_core::decay::Monomial;
//! use fd_core::checkpoint::{from_bytes, to_bytes};
//!
//! let mut sum = DecayedSum::new(Monomial::quadratic(), 0.0);
//! sum.update(5.0, 2.0);
//! let snapshot = to_bytes(&sum);
//! let mut restored: DecayedSum<Monomial> = from_bytes(&snapshot).unwrap();
//! restored.update(8.0, 3.0);
//! sum.update(8.0, 3.0);
//! assert_eq!(sum.query(10.0), restored.query(10.0));
//! ```
//!
//! The randomized samplers are no exception: their keys and priorities are
//! fixed at arrival like any decayed weight, and their generator's state
//! is four more words, so a restored sampler draws on exactly where the
//! checkpointed one stopped.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::mem::size_of;

/// A value that writes itself in the checkpoint wire format.
pub trait Encode {
    /// Appends this value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);
}

/// A value that reads itself back from the checkpoint wire format.
pub trait Decode: Sized {
    /// The fewest bytes one value takes on the wire: a sequence's count is
    /// checked against it before any element is read.
    const MIN_BYTES: usize = 1;

    /// Reads one value, refusing any whose parts do not fit together.
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Serializes a value into a fresh buffer in the checkpoint wire format.
/// Paths that write many values into one buffer call [`Encode::put`].
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Restores a value from [`to_bytes`] output. Fails on truncated or
/// malformed input and on trailing garbage.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(bytes);
    let value = T::take(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError::new(format!("{} trailing bytes", r.remaining())));
    }
    Ok(value)
}

/// Sequential reader over checkpoint bytes: what every [`Decode`] impl and
/// the engine's hand-packed bulk sections read from. A read that runs
/// short consumes nothing.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Reads a `u64` count of elements taking at least `min_elem_bytes`
    /// each, refusing one the remaining bytes cannot hold. A caller that
    /// allocates for the count still reserves no more than
    /// [`reserve`](Self::reserve) allows, because an element can be larger
    /// in memory than on the wire.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = u64::take(self)?;
        let fits = self.buf.len() / min_elem_bytes.max(1);
        if n > fits as u64 {
            return Err(CodecError::new(format!(
                "a count of {n} cannot fit in {} bytes",
                self.buf.len()
            )));
        }
        Ok(n as usize)
    }

    /// How many of `n` elements, each taking `elem_bytes` in memory, to
    /// reserve room for up front: no more than the unread bytes cover. A
    /// collection grows past that only as its elements actually decode, so
    /// what a count can reserve is bounded by the input whatever an
    /// element's size in memory.
    pub fn reserve(&self, n: usize, elem_bytes: usize) -> usize {
        n.min(self.buf.len() / elem_bytes.max(1))
    }

    /// How many unread bytes remain.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Reads the next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(CodecError::new(format!(
                "truncated: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Codec failure: truncated input, a count the input cannot hold, or a
/// decoded state that contradicts itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    /// Creates a codec error with the given message.
    ///
    /// Layers that extend the wire format beyond fd-core's summaries — the
    /// engine's aggregator and whole-engine checkpoints — use this to report
    /// their own failures in the same error type.
    pub fn new(m: impl Into<String>) -> Self {
        Self(m.into())
    }
}

/// A decoded parameter that its constructor refuses.
impl From<crate::Error> for CodecError {
    fn from(e: crate::Error) -> Self {
        Self(e.to_string())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "checkpoint codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// The most a decoded counter may hold: 2⁶² arrivals, 146 years of them at
/// a billion a second. Counting on from it, or adding two such counters in
/// a merge, cannot overflow a `u64`.
pub const MAX_COUNT: u64 = 1 << 62;

/// The longest a decoded duration may be, in seconds: 2⁶² µs, some 146 000
/// years. A decoded timestamp, itself within 2⁶² µs of the epoch, shifted
/// by it stays on the clock.
pub const MAX_SPAN_SECS: f64 = (1u64 << 62) as f64 * 1e-6;

/// `Ok` if `ok` holds, else an error saying `what` — the shape of the
/// consistency check a decoded state passes before it is accepted.
pub fn require(ok: bool, what: &str) -> Result<(), CodecError> {
    if ok {
        Ok(())
    } else {
        Err(CodecError::new(what))
    }
}

// ---------------------------------------------------------------------------
// What state is made of: primitives and containers, once
// ---------------------------------------------------------------------------

macro_rules! fixed_width {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }

        impl Decode for $t {
            const MIN_BYTES: usize = size_of::<$t>();

            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

fixed_width!(u8, u32, u64, i64, f64);

/// What it points at.
impl<T: Encode + ?Sized> Encode for &T {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
}

/// As a `u64`.
impl Encode for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
}

impl Decode for usize {
    const MIN_BYTES: usize = 8;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        usize::try_from(u64::take(r)?).map_err(|_| CodecError::new("usize overflow"))
    }
}

/// One byte, `0` or `1`.
impl Encode for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::new(format!("invalid bool byte {b}"))),
        }
    }
}

/// A one-byte tag, `0` for `None`, `1` before the value.
impl<T: Encode> Encode for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::take(r)? {
            0 => Ok(None),
            1 => T::take(r).map(Some),
            b => Err(CodecError::new(format!("invalid option tag {b}"))),
        }
    }
}

macro_rules! tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Encode),+> Encode for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }
        }

        impl<$($t: Decode),+> Decode for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;

            fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($t::take(r)?,)+))
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);

/// The count, then the elements in order.
impl<T: Encode> Encode for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.iter().for_each(|x| x.put(out));
    }
}

/// The one place a sequence's count is checked before it is allocated.
impl<T: Decode> Decode for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(r.reserve(n, size_of::<T>()));
        for _ in 0..n {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

/// A `Vec`'s layout, front to back.
impl<T: Encode> Encode for VecDeque<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.iter().for_each(|x| x.put(out));
    }
}

impl<T: Decode> Decode for VecDeque<T> {
    const MIN_BYTES: usize = 8;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Vec::take(r).map(VecDeque::from)
    }
}

/// The count, then `(key, value)` pairs sorted by key: the bytes are a
/// function of the contents, not of the hasher's iteration order. Any
/// order reads back; a repeated key does not.
impl<K: Encode + Ord, V: Encode, S> Encode for HashMap<K, V, S> {
    fn put(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.put(out);
    }
}

impl<K: Decode + Eq + Hash, V: Decode, S: BuildHasher + Default> Decode for HashMap<K, V, S> {
    const MIN_BYTES: usize = 8;

    fn take(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.count(K::MIN_BYTES + V::MIN_BYTES)?;
        // A table rounds its buckets up to a power of two above 8/7 of the
        // capacity and adds a control byte to each: reserving a quarter of
        // the entries the bytes would hold keeps it within them.
        let reserve = r.reserve(n, 4 * size_of::<(K, V)>());
        let mut map = HashMap::with_capacity_and_hasher(reserve, S::default());
        for _ in 0..n {
            if map.insert(K::take(r)?, V::take(r)?).is_some() {
                return Err(CodecError::new("a map repeats a key"));
            }
        }
        Ok(map)
    }
}

/// Implements [`Encode`] and [`Decode`] for a plain struct, written as its
/// fields in wire order: each is put, and taken back, in turn. A generic
/// parameter is bound by the trait being implemented plus at most one
/// bound of its own (`Name<T, G: Bound>`); a trailing `check` is a
/// function of the decoded `&Self` whose `Err` refuses it, for a struct
/// whose fields must agree with each other.
///
/// ```
/// use fd_core::checkpoint::{from_bytes, require, to_bytes};
///
/// struct Span {
///     lo: u64,
///     hi: u64,
/// }
///
/// fd_core::codec_struct!(Span { lo: u64, hi: u64 }
///     check |s| require(s.lo <= s.hi, "an empty span"));
///
/// let bytes = to_bytes(&Span { lo: 1, hi: 2 });
/// assert_eq!(bytes.len(), 16);
/// assert!(from_bytes::<Span>(&bytes).is_ok());
/// assert!(from_bytes::<Span>(&[&bytes[8..], &bytes[..8]].concat()).is_err());
/// ```
#[macro_export]
macro_rules! codec_struct {
    ($ty:ident $(<$($g:ident $(: $bound:path)?),+>)?
        { $($field:ident: $fty:ty),* $(,)? } $(check $check:expr)?) => {
        impl$(<$($g: $crate::checkpoint::Encode $(+ $bound)?),+>)? $crate::checkpoint::Encode
            for $ty$(<$($g),+>)?
        {
            fn put(&self, _out: &mut Vec<u8>) {
                $($crate::checkpoint::Encode::put(&self.$field, _out);)*
            }
        }

        impl$(<$($g: $crate::checkpoint::Decode $(+ $bound)?),+>)? $crate::checkpoint::Decode
            for $ty$(<$($g),+>)?
        {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::checkpoint::Decode>::MIN_BYTES)*;

            fn take(
                _r: &mut $crate::checkpoint::Reader<'_>,
            ) -> Result<Self, $crate::checkpoint::CodecError> {
                let value = Self {
                    $($field: <$fty as $crate::checkpoint::Decode>::take(_r)?),*
                };
                $(
                    let check: fn(&Self) -> Result<_, _> = $check;
                    check(&value)?;
                )?
                Ok(value)
            }
        }
    };
}

// IEEE CRC-32 (reflected, polynomial 0xEDB88320), slicing-by-8. Built at
// compile time: table[0] is the classic byte-at-a-time table, and
// table[j][i] advances table[j-1][i] by one more zero byte, so eight
// lookups fold eight input bytes per step instead of one. It is the
// reference, the fallback on a CPU without carry-less multiply, and what
// checksums the tail of fewer than 16 bytes the fold leaves ([`clmul`]).
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// IEEE CRC-32 of `bytes` — the checksum guarding every WAL record and
/// on-disk checkpoint frame. The WAL writer checksums every streamed batch
/// and every persisted snapshot, on cores it shares with the dispatcher,
/// so 64 bytes and more fold by carry-less multiply where the CPU has it
/// (≈ 9× the table's speed); the value is the table's either way.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((c, tail)) = clmul::update(!0, bytes) {
        return !table_update(c, tail);
    }
    !table_update(!0, bytes)
}

/// The CRC register `c` (not inverted) after `bytes`, by the tables.
fn table_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 by carry-less multiply (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009): four
/// 128-bit lanes fold 64 bytes a step, one lane then folds what is left in
/// 16-byte blocks, and a Barrett reduction takes the 128-bit remainder to
/// the 32-bit register. Each constant is a power of `x` modulo the
/// polynomial, bit-reflected as the CRC is.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32)` and `x^(4·128−32)`: four lanes, 64 bytes apart.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128−32)`: one lane, 16 bytes on.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64`: 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial and `⌊x^64 / P⌋`, for the Barrett reduction.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The register `c` after the 16-byte blocks of `bytes`, and the tail
    /// of fewer than 16 bytes left for the table; `None` under 64 bytes or
    /// on a CPU without PCLMULQDQ and SSE4.1 (std detects them once).
    // The third unsafe site in the workspace (the others are
    // `fd_engine::groups::prefetch` and `fd_engine::telemetry::
    // thread_cpu_ns`): a `#[target_feature]` fn is called only where the
    // features are detected.
    #[allow(unsafe_code)]
    pub(super) fn update(c: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        let detected = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
        if bytes.len() < 64 || !detected {
            return None;
        }
        // SAFETY: the CPU has every feature `fold` is compiled for,
        // detected just above.
        Some(unsafe { fold(c, bytes) })
    }

    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `a` folded forward by the distance `keys` encode, onto `b`.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(c: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, blocks)) = blocks.split_first_chunk::<4>() else {
            return (c, bytes);
        };
        let mut lanes = first.map(|block| load(&block));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(c as i32));
        let (fours, ones) = blocks.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for four in fours {
            for (lane, block) in lanes.iter_mut().zip(four) {
                *lane = reduce(*lane, load(block), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [a, b, c, d] = lanes;
        let mut x = reduce(reduce(reduce(a, b, k3k4), c, k3k4), d, k3k4);
        for block in ones {
            x = reduce(x, load(block), k3k4);
        }
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        // 128 bits to 96, then to 64.
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (x mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // register is the high half of x ⊕ T2 (bit-reflected).
        let pu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        (_mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32, tail)
    }
}

/// Appends one CRC-framed record: `[len: u32][crc32(payload): u32][payload]`.
///
/// This is the unit of torn-write detection for the durability layer's WAL
/// and checkpoint files: [`read_frame`] refuses a record whose length
/// prefix overruns the buffer or whose payload fails its checksum, so a
/// crash mid-append is detected and cleanly truncated rather than replayed
/// as garbage.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    (payload.len() as u32).put(out);
    crc32(payload).put(out);
    out.extend_from_slice(payload);
}

/// Outcome of [`read_frame`] on the head of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete, checksum-verified record. `consumed` is the total
    /// framed size (header + payload) to advance past.
    Complete {
        /// The verified payload.
        payload: &'a [u8],
        /// Bytes to advance (8-byte header plus payload).
        consumed: usize,
    },
    /// The buffer is empty: a clean end of log.
    End,
    /// A torn record: short header, length overrunning the buffer, or a
    /// checksum mismatch. Everything from this offset on is untrustworthy
    /// and should be truncated.
    Torn,
}

/// Reads one [`put_frame`] record off the head of `buf` without panicking
/// on any input. Hostile length prefixes (including `u32::MAX`) land in
/// [`Frame::Torn`], never an overflow or allocation.
pub fn read_frame(buf: &[u8]) -> Frame<'_> {
    if buf.is_empty() {
        return Frame::End;
    }
    // The header is the length then the checksum, each a `u32` LE: the low
    // and high halves of one `u64` LE.
    let Some((header, rest)) = buf.split_first_chunk::<8>() else {
        return Frame::Torn;
    };
    let header = u64::from_le_bytes(*header);
    let (len, want) = (header as u32 as usize, (header >> 32) as u32);
    let Some(payload) = rest.get(..len) else {
        return Frame::Torn;
    };
    if crc32(payload) != want {
        return Frame::Torn;
    }
    Frame::Complete {
        payload,
        consumed: 8 + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("deserialize");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&-0.0f64);
        roundtrip(&f64::MAX);
        roundtrip(&usize::MAX);
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<f64>::new());
        roundtrip(&Some(3.5f64));
        roundtrip(&Option::<u32>::None);
        roundtrip(&VecDeque::from(vec![(1u64, -2i64), (3, 4)]));
        let mut m = HashMap::new();
        m.insert((1u32, 2u64), 3.0f64);
        m.insert((4, 5), 6.0);
        roundtrip(&m);
    }

    #[test]
    fn maps_write_sorted_and_refuse_a_repeated_key() {
        let m: HashMap<u64, u8> = (0..64).map(|k| (k * 7 % 64, 1)).collect();
        let bytes = to_bytes(&m);
        let keys: Vec<u64> = (0..64)
            .map(|i| u64::from_le_bytes(bytes[8 + 9 * i..16 + 9 * i].try_into().unwrap()))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let mut twice = 2u64.to_le_bytes().to_vec();
        twice.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0, 1]);
        twice.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert!(from_bytes::<HashMap<u64, u8>>(&twice).is_err());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_bytes(&12345u64);
        assert!(from_bytes::<u64>(&bytes[..4]).is_err());
        // Trailing garbage too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(from_bytes::<u64>(&extended).is_err());
    }

    #[test]
    fn implausible_lengths_are_rejected() {
        // A claimed 2^60-element vector in a 16-byte payload.
        let mut bytes = (1u64 << 60).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
    }

    #[test]
    fn a_count_is_checked_against_the_element_size() {
        // Two 16-byte elements claimed, 31 bytes to hold them: refused
        // before anything is allocated, not after the first element.
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 31]);
        assert!(from_bytes::<Vec<(u64, f64)>>(&bytes).is_err());
        let mut r = Reader::new(&bytes);
        assert!(r.count(16).is_err());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.count(15).unwrap(), 2);
    }

    #[test]
    fn tags_outside_their_range_are_refused() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[2, 0]).is_err());
    }

    #[test]
    fn nan_survives() {
        let bytes = to_bytes(&f64::NAN);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value ("123456789" → 0xCBF43926) plus edges, and
        // three inputs long enough to fold, as zlib's `crc32` gives them.
        let known: [(&[u8], u32); 6] = [
            (b"123456789", 0xCBF4_3926),
            (b"", 0),
            (b"a", 0xE8B7_BE43),
            (&b"123456789".repeat(100), 0x09FD_0FD7),
            (
                &(0..=255).cycle().take(1024).collect::<Vec<u8>>(),
                0xB70B_4C26,
            ),
            (&[0; 4096], 0xC71C_0011),
        ];
        for (bytes, want) in known {
            assert_eq!(crc32(bytes), want, "{} bytes", bytes.len());
            assert_eq!(!table_update(!0, bytes), want, "{} bytes", bytes.len());
        }
    }

    #[test]
    fn crc32_folds_as_the_table_does() {
        // Every length from 0 to 4 096 bytes, three seeds: the fold, where
        // this CPU has it, and the table agree, and past 64 bytes the fold
        // does run.
        for seed in [1u64, 2, 3] {
            let mut state = seed;
            let bytes: Vec<u8> = (0..4096)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 32) as u8
                })
                .collect();
            for len in 0..=bytes.len() {
                let bytes = &bytes[..len];
                assert_eq!(
                    crc32(bytes),
                    !table_update(!0, bytes),
                    "seed {seed}, {len} bytes"
                );
            }
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            assert!(clmul::update(!0, &[0; 63]).is_none());
            assert!(clmul::update(!0, &[0; 64]).is_some());
        }
    }

    #[test]
    fn frames_roundtrip_and_concatenate() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"first");
        put_frame(&mut buf, b"");
        put_frame(&mut buf, &[0xFFu8; 300]);
        let mut cursor = &buf[..];
        let mut seen = Vec::new();
        loop {
            match read_frame(cursor) {
                Frame::Complete { payload, consumed } => {
                    seen.push(payload.to_vec());
                    cursor = &cursor[consumed..];
                }
                Frame::End => break,
                Frame::Torn => panic!("clean log must not read torn"),
            }
        }
        assert_eq!(seen, vec![b"first".to_vec(), vec![], vec![0xFF; 300]]);
    }

    #[test]
    fn every_strict_prefix_of_a_frame_is_torn() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"payload bytes");
        for cut in 1..buf.len() {
            assert_eq!(read_frame(&buf[..cut]), Frame::Torn, "cut at {cut}");
        }
        assert_eq!(read_frame(&[]), Frame::End);
    }

    #[test]
    fn corrupt_frames_are_torn_never_panic() {
        let mut clean = Vec::new();
        put_frame(&mut clean, b"some payload");
        // Flip every single byte in turn: header, crc, or payload damage
        // must all land in Torn (flipping len may also make it Torn via
        // overrun) — never a panic or a bogus Complete.
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            assert_eq!(read_frame(&bad), Frame::Torn, "flipped byte {i}");
        }
        // Hostile length prefix: u32::MAX must not overflow or allocate.
        let mut hostile = vec![0xFF, 0xFF, 0xFF, 0xFF];
        hostile.extend_from_slice(&[0; 12]);
        assert_eq!(read_frame(&hostile), Frame::Torn);
    }

    #[test]
    fn reader_errors_on_short_buffers() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(u64::take(&mut r).is_err());
        // A failed read consumes nothing: smaller reads still succeed.
        assert_eq!(r.remaining(), 3);
        assert!(u8::take(&mut r).is_ok());
        let mut r = Reader::new(&[1, 2]);
        assert!(u32::take(&mut r).is_err());
        // Huge requests cannot wrap.
        let mut r = Reader::new(&[0; 4]);
        assert!(r.bytes(usize::MAX).is_err());
    }
}
