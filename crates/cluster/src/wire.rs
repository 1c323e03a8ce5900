//! Explicit wire codec for cluster messages.
//!
//! Every message crosses the cluster as bytes, on the simulator as over
//! TCP, so every type that crosses implements [`Wire`]: a fixed
//! little-endian encoding plus a 32-bit structural fingerprint
//! ([`Wire::WIRE_ID`]). A receive that names the wrong type fails the
//! fingerprint check and surfaces a typed error instead of misinterpreting
//! bytes. The communicator wraps each [`encode_msg`] message in a
//! `[seq u32][check u32]` envelope (see [`crate::comm`]), whose check is
//! [`fnv1a`]'s step taken a word at a time.
//!
//! Decoding follows the framing discipline established by the serve
//! protocol (PR 6): every read is bounds-checked, collection lengths are
//! validated against the bytes actually remaining *before* any allocation
//! (a forged length cannot cause a huge preallocation), and trailing bytes
//! after a complete value are rejected. Malformed input of any shape —
//! garbage, truncation, forged lengths — produces a [`WireError`], never a
//! panic.

use std::fmt;

/// Errors produced while decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// The message's type fingerprint does not match the requested type:
    /// the receive named the wrong type.
    TypeMismatch {
        /// Fingerprint the receiver expected.
        expected: u32,
        /// Fingerprint carried by the message.
        got: u32,
    },
    /// Structurally invalid bytes (bad bool/option discriminant, forged
    /// collection length, non-UTF-8 string, trailing bytes, ...).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::TypeMismatch { expected, got } => write!(
                f,
                "wire type mismatch: expected fingerprint {expected:#010x}, got {got:#010x}"
            ),
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked little-endian read cursor over a received message.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes, or fails with `Truncated`.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fails with `Malformed` if any bytes remain unconsumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after message"));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a collection length and validates it against the bytes left:
    /// every element of every wire type occupies at least one byte, so a
    /// length exceeding `remaining()` is forged. This check runs before the
    /// caller allocates anything.
    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| WireError::Malformed("length overflows usize"))?;
        if n > self.remaining() {
            return Err(WireError::Malformed("forged collection length"));
        }
        Ok(n)
    }
}

/// A type with a cluster wire encoding.
///
/// Implementations must be **canonical**: equal values encode to equal
/// bytes. The collectives equivalence suite relies on this to assert that
/// sim and TCP backends produce bit-identical results.
pub trait Wire: Sized {
    /// Structural fingerprint of this type's encoding. Two types with
    /// different layouts get different fingerprints (with the usual 32-bit
    /// hash caveats); the receive path checks it before decoding.
    const WIRE_ID: u32;

    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one value from the cursor.
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError>;
}

/// FNV-1a-32 offset basis: the state [`fnv1a`] starts a fresh hash from.
pub const FNV_OFFSET: u32 = 0x811c_9dc5;

/// FNV-1a-32 prime: the odd multiplier of [`fnv1a`]'s step.
pub const FNV_PRIME: u32 = 0x0100_0193;

/// FNV-1a-32 over `bytes`, continuing from state `h`. Each step is a
/// bijection of the state, so changing any single byte changes the result.
pub const fn fnv1a(mut h: u32, bytes: &[u8]) -> u32 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u32;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// FNV-1a step used to mix component fingerprints into composite ones.
pub const fn wire_mix(h: u32, x: u32) -> u32 {
    fnv1a(h, &x.to_le_bytes())
}

/// Fingerprint seed for a primitive, derived from a short name.
const fn prim_id(name: &str) -> u32 {
    fnv1a(FNV_OFFSET, name.as_bytes())
}

macro_rules! wire_int {
    ($ty:ty, $name:literal, $read:ident) => {
        impl Wire for $ty {
            const WIRE_ID: u32 = prim_id($name);
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(cur.$read()? as $ty)
            }
        }
    };
}

wire_int!(u8, "u8", u8);
wire_int!(u16, "u16", u16);
wire_int!(u32, "u32", u32);
wire_int!(u64, "u64", u64);

impl Wire for i32 {
    const WIRE_ID: u32 = prim_id("i32");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(cur.u32()? as i32)
    }
}

impl Wire for i64 {
    const WIRE_ID: u32 = prim_id("i64");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(cur.u64()? as i64)
    }
}

impl Wire for usize {
    const WIRE_ID: u32 = prim_id("usize");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        usize::try_from(cur.u64()?).map_err(|_| WireError::Malformed("usize overflows platform"))
    }
}

impl Wire for f32 {
    const WIRE_ID: u32 = prim_id("f32");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(cur.u32()?))
    }
}

impl Wire for f64 {
    const WIRE_ID: u32 = prim_id("f64");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(cur.u64()?))
    }
}

impl Wire for bool {
    const WIRE_ID: u32 = prim_id("bool");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        match cur.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bad bool discriminant")),
        }
    }
}

// `()` deliberately occupies one byte on the wire. A zero-size encoding
// would defeat the forged-length check for `Vec<()>` (any claimed length
// would "fit" in zero remaining bytes); one byte keeps the invariant that
// every element costs at least a byte.
impl Wire for () {
    const WIRE_ID: u32 = prim_id("unit");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(0);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        match cur.u8()? {
            0 => Ok(()),
            _ => Err(WireError::Malformed("bad unit byte")),
        }
    }
}

impl Wire for String {
    const WIRE_ID: u32 = prim_id("string");
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let n = cur.len()?;
        let bytes = cur.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    const WIRE_ID: u32 = wire_mix(prim_id("vec"), T::WIRE_ID);
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for v in self {
            v.encode(buf);
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        let n = cur.len()?;
        // `len()` proved n ≤ remaining bytes, so this allocation is bounded
        // by the message size we already hold in memory.
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(cur)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    const WIRE_ID: u32 = wire_mix(prim_id("option"), T::WIRE_ID);
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
        match cur.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(cur)?)),
            _ => Err(WireError::Malformed("bad option discriminant")),
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            const WIRE_ID: u32 = {
                let mut h = prim_id("tuple");
                $(h = wire_mix(h, $name::WIRE_ID);)+
                h
            };
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(($($name::decode(cur)?,)+))
            }
        }
    };
}

wire_tuple!(A.0);
wire_tuple!(A.0, B.1);
wire_tuple!(A.0, B.1, C.2);
wire_tuple!(A.0, B.1, C.2, D.3);
wire_tuple!(A.0, B.1, C.2, D.3, E.4);
wire_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);
wire_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
wire_tuple!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

/// Encodes a complete message: `[WIRE_ID u32 LE][payload]`.
pub fn encode_msg<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&T::WIRE_ID.to_le_bytes());
    value.encode(&mut buf);
    buf
}

/// Decodes a complete message produced by [`encode_msg`]: checks the type
/// fingerprint, decodes the value, and rejects trailing bytes.
pub fn decode_msg<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut cur = Cursor::new(bytes);
    let got = cur.u32().map_err(|_| WireError::Truncated)?;
    if got != T::WIRE_ID {
        return Err(WireError::TypeMismatch {
            expected: T::WIRE_ID,
            got,
        });
    }
    let value = T::decode(&mut cur)?;
    cur.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_msg(&v);
        assert_eq!(decode_msg::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-1i32);
        round_trip(i64::MIN);
        round_trip(usize::MAX);
        round_trip(1.5f32);
        round_trip(-0.0f64);
        round_trip(true);
        round_trip(false);
        round_trip(());
        round_trip(String::from("peptide"));
        round_trip(String::new());
    }

    #[test]
    fn nan_bits_preserved() {
        let weird = f32::from_bits(0x7fc0_dead);
        let bytes = encode_msg(&weird);
        assert_eq!(
            decode_msg::<f32>(&bytes).unwrap().to_bits(),
            weird.to_bits()
        );
    }

    #[test]
    fn composites_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(vec![vec![1u8], vec![], vec![2, 3]]);
        round_trip(Some(7u32));
        round_trip(Option::<String>::None);
        round_trip((1u32, String::from("x"), vec![2.5f64]));
        round_trip(vec![(1u32, 2u16, 3u16, 0.5f32); 4]);
        round_trip(vec![(), (), ()]);
    }

    #[test]
    fn distinct_types_get_distinct_fingerprints() {
        let ids = [
            u8::WIRE_ID,
            u16::WIRE_ID,
            u32::WIRE_ID,
            u64::WIRE_ID,
            i32::WIRE_ID,
            usize::WIRE_ID,
            f32::WIRE_ID,
            f64::WIRE_ID,
            bool::WIRE_ID,
            <()>::WIRE_ID,
            String::WIRE_ID,
            <Vec<u32>>::WIRE_ID,
            <Vec<u64>>::WIRE_ID,
            <Vec<Vec<u32>>>::WIRE_ID,
            <Option<u32>>::WIRE_ID,
            <(u32, u32)>::WIRE_ID,
            <(u32, u32, u32)>::WIRE_ID,
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn type_mismatch_is_typed_error() {
        let bytes = encode_msg(&7u32);
        match decode_msg::<String>(&bytes) {
            Err(WireError::TypeMismatch { .. }) => {}
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed_error() {
        let bytes = encode_msg(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r = decode_msg::<Vec<u64>>(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn forged_length_rejected_before_allocation() {
        // Claim 10^12 elements with a 4-byte body.
        let mut bytes = u64::WIRE_ID.to_le_bytes().to_vec(); // wrong id caught first...
        bytes.extend_from_slice(&[0; 4]);
        assert!(decode_msg::<Vec<u64>>(&bytes).is_err());

        let mut bytes = <Vec<u64>>::WIRE_ID.to_le_bytes().to_vec();
        bytes.extend_from_slice(&1_000_000_000_000u64.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(
            decode_msg::<Vec<u64>>(&bytes),
            Err(WireError::Malformed("forged collection length"))
        );
        // Same for Vec<()> — units occupy a byte precisely so this holds.
        let mut bytes = <Vec<()>>::WIRE_ID.to_le_bytes().to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_msg::<Vec<()>>(&bytes).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_msg(&5u32);
        bytes.push(0);
        assert_eq!(
            decode_msg::<u32>(&bytes),
            Err(WireError::Malformed("trailing bytes after message"))
        );
    }
}
