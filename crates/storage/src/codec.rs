//! Binary encoding of tuples and primitive fields.
//!
//! The codec backs the write-ahead log (tuples in change records); the
//! proptest round-trip suite checks encode∘decode = id.
//!
//! Layout of an encoded tuple: `varint(arity)` followed by one encoded value
//! per column. Values are a tag byte then a tag-specific payload. Integers
//! use zigzag + LEB128 varints so small values (the common case for keys)
//! stay small in the log.

use rolljoin_common::{Error, Result, Tuple, Value};

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint, advancing `pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| Error::WalCorrupt("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(Error::WalCorrupt("varint overflow".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-encode a signed integer so small magnitudes encode small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed varint.
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, zigzag(v));
}

/// Read a signed varint.
pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> Result<i64> {
    Ok(unzigzag(get_varint(buf, pos)?))
}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;

/// Append one encoded value.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_FALSE),
        Value::Bool(true) => buf.push(TAG_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_ivarint(buf, *i);
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
    }
}

/// Read one encoded value, advancing `pos`.
pub fn get_value(buf: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = *buf
        .get(*pos)
        .ok_or_else(|| Error::WalCorrupt("truncated value tag".into()))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(get_ivarint(buf, pos)?)),
        TAG_FLOAT => {
            let end = *pos + 8;
            let bytes = buf
                .get(*pos..end)
                .ok_or_else(|| Error::WalCorrupt("truncated float".into()))?;
            *pos = end;
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(
                bytes.try_into().expect("8-byte slice"),
            ))))
        }
        TAG_STR => {
            let len = get_varint(buf, pos)? as usize;
            let end = *pos + len;
            let bytes = buf
                .get(*pos..end)
                .ok_or_else(|| Error::WalCorrupt("truncated string".into()))?;
            *pos = end;
            let s = std::str::from_utf8(bytes)
                .map_err(|_| Error::WalCorrupt("invalid utf-8 in string".into()))?;
            Ok(Value::str(s))
        }
        t => Err(Error::WalCorrupt(format!("unknown value tag {t}"))),
    }
}

/// Encode a whole tuple.
pub fn encode_tuple(tuple: &Tuple) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + tuple.arity() * 4);
    put_tuple(&mut buf, tuple);
    buf
}

/// Append a whole tuple's encoding to `buf`.
pub fn put_tuple(buf: &mut Vec<u8>, tuple: &Tuple) {
    put_varint(buf, tuple.arity() as u64);
    for v in tuple.values() {
        put_value(buf, v);
    }
}

/// Decode a tuple from the front of `buf`, advancing `pos`.
pub fn decode_tuple_at(buf: &[u8], pos: &mut usize) -> Result<Tuple> {
    let arity = get_varint(buf, pos)? as usize;
    if arity > 1 << 20 {
        return Err(Error::WalCorrupt(format!("implausible arity {arity}")));
    }
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(buf, pos)?);
    }
    Ok(Tuple::from(values))
}

/// Decode a tuple that occupies the entire buffer.
pub fn decode_tuple(buf: &[u8]) -> Result<Tuple> {
    let mut pos = 0;
    let t = decode_tuple_at(buf, &mut pos)?;
    if pos != buf.len() {
        return Err(Error::WalCorrupt(format!(
            "{} trailing bytes after tuple",
            buf.len() - pos
        )));
    }
    Ok(t)
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) used to guard
/// WAL records. Every commit CRCs its frames and capture re-checks every
/// frame it reads, so this is on the commit and capture paths: one table
/// lookup per byte instead of eight shift/xor rounds.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[usize::from((crc as u8) ^ b)];
    }
    !crc
}

/// `CRC32_TABLE[i]` is the CRC register after shifting byte `i` through
/// eight rounds of the bitwise algorithm.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use rolljoin_common::tup;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn ivarint_round_trip() {
        let mut buf = Vec::new();
        for v in [0i64, 1, -1, 63, -64, 1 << 40, i64::MIN, i64::MAX] {
            buf.clear();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_encode_small() {
        let mut buf = Vec::new();
        put_ivarint(&mut buf, -2);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn tuple_round_trip() {
        let t = tup![42, "hello", 2.5, true, Value::Null, -7];
        use rolljoin_common::Value;
        let enc = encode_tuple(&t);
        assert_eq!(decode_tuple(&enc).unwrap(), t);
        let _ = Value::Null; // silence unused import in macro expansion paths
    }

    #[test]
    fn empty_tuple_round_trip() {
        let t = rolljoin_common::Tuple::empty();
        assert_eq!(decode_tuple(&encode_tuple(&t)).unwrap(), t);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let t = tup![1, "abcdef"];
        let enc = encode_tuple(&t);
        for cut in 0..enc.len() {
            assert!(decode_tuple(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode_tuple(&tup![1]);
        enc.push(0);
        assert!(decode_tuple(&enc).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xCBF43926 (IEEE).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        // The textbook bit-at-a-time CRC-32: eight shift/xor rounds a byte.
        fn bitwise(data: &[u8]) -> u32 {
            let mut crc: u32 = !0;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let mut data = Vec::new();
        let mut x: u32 = 0x1234_5678;
        for len in 0..600 {
            assert_eq!(crc32(&data), bitwise(&data), "length {len}");
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            data.push((x >> 24) as u8);
        }
        // Every single-byte input, so every table entry is exercised.
        for b in 0..=255u8 {
            assert_eq!(crc32(&[b]), bitwise(&[b]));
        }
    }
}
