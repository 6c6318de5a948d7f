//! Decimal integer rendering without `core::fmt`.
//!
//! The serving edge writes every integer it sends — node ids, numeric
//! literals, model epochs, stage timings, cache-key fields, HTTP lengths —
//! as plain bytes. `core::fmt` pays for a formatter, padding and width
//! logic per call; this writer renders two digits per step from a table
//! into an inline buffer, the same digits `{}` prints.

/// `"00" "01" … "99"`: two ASCII digits per entry.
const PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The decimal digits of a `u64` (at most 20), rendered into an inline
/// buffer: `Decimal::new(v).as_str() == v.to_string()`.
pub struct Decimal {
    buf: [u8; 20],
    start: usize,
}

impl Decimal {
    /// Render `v`.
    #[inline]
    pub fn new(mut v: u64) -> Self {
        let mut buf = [0u8; 20];
        let mut start = buf.len();
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            start -= 2;
            buf[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            start -= 2;
            buf[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            start -= 1;
            buf[start] = b'0' + v as u8;
        }
        Self { buf, start }
    }

    #[inline]
    fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// The digits as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("decimal digits are ASCII")
    }
}

/// Append `v` in decimal to `out`.
#[inline]
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(Decimal::new(v).as_bytes());
}

/// Append `v` in decimal to `out`, with a leading `-` when negative.
#[inline]
pub fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<u64> {
        let mut values = vec![0, u64::MAX, u64::MAX - 1, i64::MAX as u64];
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            values.extend([p - 1, p, p + 1]);
            p = next;
        }
        values.extend([p - 1, p, p + 1]);
        values.extend(0..1000);
        values
    }

    #[test]
    fn unsigned_matches_display() {
        for v in edges() {
            assert_eq!(Decimal::new(v).as_str(), v.to_string());
            let mut out = b"x".to_vec();
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}").into_bytes());
        }
    }

    #[test]
    fn signed_matches_display() {
        let mut values: Vec<i64> = vec![i64::MIN, i64::MIN + 1, i64::MAX, -1, 0];
        for v in edges() {
            if let Ok(v) = i64::try_from(v) {
                values.extend([v, -v]);
            }
        }
        for v in values {
            let mut out = Vec::new();
            push_i64(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
