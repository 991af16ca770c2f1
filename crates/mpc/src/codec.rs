//! The payload codec: how every typed message crosses the fabric.
//!
//! [`encode`] lowers a value with the `serde` facade's `Serialize` into a
//! [`Value`] tree and writes that tree as compact little-endian binary;
//! [`decode`] parses it back and lifts it with `Deserialize`. It is the
//! analog of mpi4py pickling an object into a buffer: numbers travel as
//! their 8-byte bit patterns, never as decimal text, so every `f64` —
//! NaN, ±∞ and −0.0 included — arrives bit for bit.
//!
//! Every value is a one-byte tag followed by its body:
//!
//! ```text
//! tag  value        body
//!   0  null         —
//!   1  false        —
//!   2  true         —
//!   3  i64          8 bytes, two's complement
//!   4  u64          8 bytes
//!   5  f64          8 bytes, IEEE-754 bit pattern
//!   6  string       u32 byte length, then UTF-8 bytes
//!   7  array        u32 element count, then the elements
//!   8  object       u32 entry count, then per entry a key
//!                   (u32 byte length + UTF-8 bytes) and a value
//! ```
//!
//! All integers are little-endian. The decoder reads bytes another
//! process wrote, so it trusts none of them: every read is
//! bounds-checked, no allocation is sized beyond the bytes that remain,
//! nesting deeper than [`MAX_DEPTH`] is refused, and unknown tags,
//! invalid UTF-8 and trailing bytes are [`MpcError::Decode`] errors —
//! never panics.
//!
//! ```
//! use pdc_mpc::codec::{decode, encode};
//!
//! let bytes = encode(&vec![1.5f64, f64::NEG_INFINITY]).unwrap();
//! assert_eq!(bytes.len(), 1 + 4 + 2 * 9); // array tag, count, 2 × (tag + f64)
//! let back: Vec<f64> = decode(&bytes).unwrap();
//! assert_eq!(back, [1.5, f64::NEG_INFINITY]);
//! ```

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::{Map, Serialize, Value};

use crate::error::{MpcError, Result};

/// Deepest nesting of arrays and objects that [`encode`] writes and
/// [`decode`] accepts, so a hostile frame of repeated one-element array
/// tags cannot overflow the decoder's stack.
pub const MAX_DEPTH: usize = 128;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
const I64: u8 = 3;
const U64: u8 = 4;
const F64: u8 = 5;
const STRING: u8 = 6;
const ARRAY: u8 = 7;
const OBJECT: u8 = 8;

/// Serialize a payload into its wire bytes.
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Result<Bytes> {
    let mut out = Vec::new();
    write_value(&value.to_json_value(), 0, &mut out)?;
    Ok(Bytes::from(out))
}

/// Deserialize a payload from its wire bytes.
pub fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut reader = Reader { rest: bytes };
    let value = reader.value(0)?;
    if !reader.rest.is_empty() {
        return Err(malformed(format!(
            "{} trailing bytes after the payload",
            reader.rest.len()
        )));
    }
    T::from_json_value(&value).map_err(|e| MpcError::Decode(e.to_string()))
}

fn malformed(msg: impl Into<String>) -> MpcError {
    MpcError::Decode(msg.into())
}

fn too_deep() -> MpcError {
    malformed(format!("payload nests deeper than {MAX_DEPTH} levels"))
}

fn write_value(v: &Value, depth: usize, out: &mut Vec<u8>) -> Result<()> {
    if depth > MAX_DEPTH {
        return Err(too_deep());
    }
    match v {
        Value::Null => out.push(NULL),
        Value::Bool(false) => out.push(FALSE),
        Value::Bool(true) => out.push(TRUE),
        Value::I64(n) => {
            out.push(I64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::U64(n) => {
            out.push(U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::String(s) => {
            out.push(STRING);
            write_str(s, out)?;
        }
        Value::Array(items) => {
            out.push(ARRAY);
            write_len(items.len(), out)?;
            for item in items {
                write_value(item, depth + 1, out)?;
            }
        }
        Value::Object(map) => {
            out.push(OBJECT);
            write_len(map.len(), out)?;
            for (key, item) in map {
                write_str(key, out)?;
                write_value(item, depth + 1, out)?;
            }
        }
    }
    Ok(())
}

fn write_len(len: usize, out: &mut Vec<u8>) -> Result<()> {
    let len = u32::try_from(len)
        .map_err(|_| malformed(format!("encode: length {len} exceeds the u32 prefix")))?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

fn write_str(s: &str, out: &mut Vec<u8>) -> Result<()> {
    write_len(s.len(), out)?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A cursor over untrusted bytes; every read checks what remains.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.rest.len() {
            return Err(malformed(format!(
                "truncated payload: needs {n} more bytes, {} remain",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    fn length(&mut self) -> Result<usize> {
        let len = u32::from_le_bytes(self.fixed()?);
        usize::try_from(len).map_err(|_| malformed(format!("length {len} overflows usize")))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.length()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|e| malformed(format!("invalid UTF-8 in string: {e}")))
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(too_deep());
        }
        let [tag] = self.fixed()?;
        Ok(match tag {
            NULL => Value::Null,
            FALSE => Value::Bool(false),
            TRUE => Value::Bool(true),
            I64 => Value::I64(i64::from_le_bytes(self.fixed()?)),
            U64 => Value::U64(u64::from_le_bytes(self.fixed()?)),
            F64 => Value::F64(f64::from_bits(u64::from_le_bytes(self.fixed()?))),
            STRING => Value::String(self.string()?),
            ARRAY => {
                let len = self.length()?;
                // Every element takes at least its tag byte, so a count
                // beyond the remaining bytes is a lie; never allocate for it.
                let mut items = Vec::with_capacity(len.min(self.rest.len()));
                for _ in 0..len {
                    items.push(self.value(depth + 1)?);
                }
                Value::Array(items)
            }
            OBJECT => {
                let len = self.length()?;
                let mut map = Map::new();
                for _ in 0..len {
                    let key = self.string()?;
                    map.insert(key, self.value(depth + 1)?);
                }
                Value::Object(map)
            }
            other => return Err(malformed(format!("unknown value tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_arrays(levels: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        for _ in 0..levels {
            bytes.push(ARRAY);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(NULL);
        bytes
    }

    #[test]
    fn depth_cap_is_exact() {
        assert!(decode::<Value>(&nested_arrays(MAX_DEPTH)).is_ok());
        let err = decode::<Value>(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("deeper"), "{err}");
        let mut deep = Value::Null;
        for _ in 0..=MAX_DEPTH {
            deep = Value::Array(vec![deep]);
        }
        assert!(encode(&deep).is_err());
    }

    #[test]
    fn malformed_inputs_are_decode_errors() {
        let cases: [(&[u8], &str); 5] = [
            (&[], "truncated"),
            (&[42], "unknown value tag 42"),
            (&[NULL, NULL], "trailing"),
            (&[F64, 0, 0, 0], "truncated"),
            (&[STRING, 2, 0, 0, 0, 0xff, 0xfe], "UTF-8"),
        ];
        for (bytes, want) in cases {
            match decode::<Value>(bytes) {
                Err(MpcError::Decode(msg)) => assert!(msg.contains(want), "{bytes:?}: {msg}"),
                other => panic!("{bytes:?} decoded to {other:?}"),
            }
        }
    }
}
