//! The text form of a skyline: the body of a query reply and what a
//! cached item keeps for exact repeats (DESIGN.md §17.5).
//!
//! A coordinate is written by [`push_f64`], whose contract is the bytes
//! of `f64`'s `Display`: the shortest digits that read back as the same
//! `f64`, with no exponent. The digits come from Ryū's `d2d` (Adams,
//! "Ryū: fast float-to-string conversion", PLDI 2018) over `u128`
//! products, with one change: an exact tie between two shortest
//! candidates rounds half up, as `Display` does, where Ryū rounds half to
//! even. The `5^k` tables Ryū reads are computed at compile time.

/// Appends a skyline to `out` in its one text form: ` x,y,..` per point
/// (each coordinate the bytes of `f64`'s `Display`, written by this
/// module's shortest-digit writer), points in ascending order of their
/// coordinates' bit patterns — so equal point sets always render to
/// equal bytes, whatever order they arrive in. This is the body of a
/// query reply on the wire and what a [`crate::CacheItem`] keeps of its
/// skyline for exact repeats.
pub fn render_points<'a>(out: &mut String, rows: impl Iterator<Item = &'a [f64]>) {
    let mut sky: Vec<&[f64]> = rows.collect();
    // Unstable: rows that compare equal are bit-identical, so their
    // order cannot show in the text.
    sky.sort_unstable_by(|a, b| a.iter().map(|x| x.to_bits()).cmp(b.iter().map(|x| x.to_bits())));
    // The writer appends bytes to `out`'s own buffer, which comes back
    // checked once, not once a coordinate.
    let mut text = std::mem::take(out).into_bytes();
    // One growth for the usual skyline: a coordinate in (-1, 1) takes at
    // most 21 bytes (`-0.0` and 17 digits) and its separator one.
    text.reserve(sky.iter().map(|coords| coords.len() * 22).sum());
    for coords in sky {
        let mut sep = b' ';
        for &c in coords {
            text.push(sep);
            sep = b',';
            push_f64(&mut text, c);
        }
    }
    // ASCII appended to UTF-8 is UTF-8: the fallback never runs.
    *out = String::from_utf8(text)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
}

/// Appends `x` to `out` as `format!("{x}")` would: `NaN`, `inf`, `-inf`,
/// `0`, `-0`, or the shortest round-trip digits laid out without an
/// exponent (`1e21` as all its digits, `1e-7` as `0.0000001`).
fn push_f64(out: &mut Vec<u8>, x: f64) {
    if x.is_nan() {
        out.extend_from_slice(b"NaN");
        return;
    }
    if x.is_sign_negative() {
        out.push(b'-');
    }
    if x == 0.0 || x.is_infinite() {
        out.extend_from_slice(if x == 0.0 { b"0".as_slice() } else { b"inf" });
        return;
    }
    let (digits, exp) = shortest(x.to_bits());
    let len = digits.ilog10() as usize + 1;
    // The decimal point's place, counted from the first digit: the
    // value is 0.d₁d₂…dₙ × 10^point.
    let point = len as i32 + exp;
    // Almost every value fits the small buffer; the extremes (up to 309
    // integer digits, or 323 zeros after the point) take the large one.
    if point.unsigned_abs() < 40 {
        lay_out::<64>(out, digits, len, point);
    } else {
        lay_out::<344>(out, digits, len, point);
    }
}

/// Lays out the `len` digits of `digits` and the point that `point`
/// places in one stack buffer of `N` bytes, then appends it.
fn lay_out<const N: usize>(out: &mut Vec<u8>, digits: u64, len: usize, point: i32) {
    let mut buf = [b'0'; N];
    // Before the digits, room for "0." and the zeros after the point;
    // every byte not written stays '0'.
    let lead = (-point).max(0) as usize;
    let end = (2 + lead + len).max(17);
    write_digits(&mut buf, end, digits);
    let first = end - len;
    let point = point.max(0) as usize;
    let (start, end) = if point == 0 {
        buf[first - lead - 1] = b'.';
        (first - lead - 2, end)
    } else if point < len {
        buf.copy_within(first..first + point, first - 1);
        buf[first - 1 + point] = b'.';
        (first - 1, end)
    } else {
        (first, first + point)
    };
    out.extend_from_slice(&buf[start..end]);
}

/// Writes `v < 10^17` as 17 digits, leading zeros included, to end at
/// `buf[end]`: one digit and two groups of eight, each group two
/// independent chains of two digits a step.
fn write_digits(buf: &mut [u8], end: usize, v: u64) {
    let (high, low) = ((v / 100_000_000) as u32, (v % 100_000_000) as u32);
    buf[end - 17] = b'0' + (high / 100_000_000) as u8;
    for (at, group) in [(end - 16, high % 100_000_000), (end - 8, low)] {
        let (hi, lo) = (group / 10_000, group % 10_000);
        for (i, pair) in [hi / 100, hi % 100, lo / 100, lo % 100].into_iter().enumerate() {
            buf[at + 2 * i..at + 2 * i + 2].copy_from_slice(&PAIRS[pair as usize]);
        }
    }
}

/// `"00"`, `"01"`, … `"99"`.
const PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + i as u8 / 10, b'0' + i as u8 % 10];
        i += 1;
    }
    pairs
};

/// Ryū's `d2d` for a finite non-zero `f64` (its sign bit ignored): the
/// shortest digits `d` and exponent `e` with `d × 10^e` inside the
/// interval that rounds to it, the closest such to the exact value, and
/// an exact tie rounded up.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << 52) - 1);
    let exponent = ((bits >> 52) & 0x7ff) as i32;
    // The value is m2 × 2^e2; the interval's ends sit a quarter step
    // apart in mv = 4 × m2.
    let e2 = exponent.max(1) - 1023 - 52 - 2;
    let m2 = mantissa | u64::from(exponent != 0) << 52;
    // The interval is closed when the mantissa is even: round-half-even
    // reading brings its ends back to this value.
    let closed = m2.is_multiple_of(2);
    let mv = 4 * m2;
    // The gap below is half the gap above at a power of two.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let mm = mv - 1 - mm_shift;
    // Scale by 10^-e10 with a table entry; note where the lower end
    // (`vm_zeros`) or the upper (`vp_exact`) is an exact multiple.
    let (mul, j, e10, mut vm_zeros, vp_exact) = if e2 >= 0 {
        let q = ((e2 as u32 * 78_913) >> 18) - u32::from(e2 > 3); // ⌊log₁₀ 2^e2⌋, less one
        let j = (pow5bits(q as i32) - 1 + POW5_BITS - e2 + q as i32) as u32;
        // Only one of mm, mv and mv + 2 can be a multiple of 5.
        let small = q <= 21 && !mv.is_multiple_of(5);
        let (vm_zeros, vp_exact) = (
            small && closed && mm.is_multiple_of(5u64.pow(q)),
            small && !closed && (mv + 2).is_multiple_of(5u64.pow(q)),
        );
        (POW5_INV[q as usize], j, q as i32, vm_zeros, vp_exact)
    } else {
        let q = ((-e2 as u32 * 732_923) >> 20) - u32::from(-e2 > 1); // ⌊log₁₀ 5^-e2⌋, less one
        let i = -e2 - q as i32;
        let j = (q as i32 - pow5bits(i) + POW5_BITS) as u32;
        (POW5[i as usize], j, q as i32 + e2, q <= 1 && closed && mm_shift == 1, q <= 1 && !closed)
    };
    let (mut vr, mut vm) = (mul_shift(mv, mul, j), mul_shift(mm, mul, j));
    let mut vp = mul_shift(mv + 2, mul, j) - u64::from(vp_exact);
    // Drop digits while the interval still holds a shorter candidate.
    let mut removed = 0;
    let mut last = 0;
    while vp / 10 > vm / 10 {
        vm_zeros &= vm.is_multiple_of(10);
        last = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_zeros {
        while vm.is_multiple_of(10) {
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round the last dropped digit half up; step up from a lower end the
    // interval does not hold.
    let up = (vr == vm && !(closed && vm_zeros)) || last >= 5;
    (vr + u64::from(up), e10 + removed)
}

/// `(m × mul) >> j`, for `m < 2^55` and a 126-bit `mul`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The bit length of `5^e` for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// The table entries' width in bits.
const POW5_BITS: i32 = 125;

/// `5^q`, cut to its top 125 bits, for the negative binary exponents
/// (Ryū's `DOUBLE_POW5_SPLIT`).
const POW5: [u128; 326] = pow5_table(false);

/// `⌊2^(b−1+125) / 5^q⌋ + 1`, with `b` the bit length of `5^q`, for the
/// non-negative binary exponents (Ryū's `DOUBLE_POW5_INV_SPLIT`).
const POW5_INV: [u128; 292] = pow5_table(true);

/// Ryū's tables, exact, at compile time. An 832-bit integer in 13
/// little-endian limbs holds `5^q`, or `⌊2^831 / 5^q⌋` for `inverse`: one
/// exact division by 5 a step yields it, since `⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋`.
/// Each entry is that integer shifted to the entry's width.
const fn pow5_table<const N: usize>(inverse: bool) -> [u128; N] {
    let mut big = [0u64; 13];
    big[if inverse { 12 } else { 0 }] = if inverse { 1 << 63 } else { 1 };
    let mut table = [0; N];
    let mut q = 0;
    while q < N {
        let bits = pow5bits(q as i32);
        let shift = if inverse { 831 - (bits - 1 + POW5_BITS) } else { bits - POW5_BITS };
        let mut i = 0;
        while i < 13 {
            // Limb i's place in the entry: a left shift by `at` when
            // non-negative, a right shift by `-at` otherwise.
            let at = 64 * i as i32 - shift;
            if at > -128 && at < 128 {
                table[q] |= if at >= 0 { (big[i] as u128) << at } else { big[i] as u128 >> -at };
            }
            i += 1;
        }
        table[q] += inverse as u128;
        let mut carry = 0;
        let mut i = 0;
        while i < 13 {
            // Down from the top limb when dividing, up when multiplying.
            let limb = if inverse { 12 - i } else { i };
            if inverse {
                let wide = carry << 64 | big[limb] as u128;
                (big[limb], carry) = ((wide / 5) as u64, wide % 5);
            } else {
                let wide = big[limb] as u128 * 5 + carry;
                (big[limb], carry) = (wide as u64, wide >> 64);
            }
            i += 1;
        }
        q += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore, SeedableRng};

    fn written(x: f64) -> String {
        let mut out = Vec::new();
        push_f64(&mut out, x);
        String::from_utf8(out).unwrap()
    }

    /// The writer's contract, over `n` values of `draw`: the number of
    /// values whose bytes differ from `format!("{x}")`, and the first.
    fn mismatches(
        n: usize,
        mut draw: impl FnMut() -> f64,
    ) -> (usize, Option<(u64, String, String)>) {
        let mut out = Vec::new();
        let mut expected = String::new();
        let (mut count, mut first) = (0, None);
        for _ in 0..n {
            let x = draw();
            out.clear();
            expected.clear();
            push_f64(&mut out, x);
            std::fmt::Write::write_fmt(&mut expected, format_args!("{x}")).unwrap();
            if out != expected.as_bytes() {
                count += 1;
                let text = String::from_utf8_lossy(&out).into_owned();
                first.get_or_insert((x.to_bits(), text, expected.clone()));
            }
        }
        (count, first)
    }

    /// End and near-end entries of both tables, as exact integer
    /// arithmetic gives them (`⌊2^127 / 5⌋ + 1` is Ryū's published
    /// `DOUBLE_POW5_INV_SPLIT[1]`).
    #[test]
    fn the_tables_hold_the_exact_entries() {
        let split = |high: u128, low: u128| high << 64 | low;
        assert_eq!(POW5[0], 1 << 124);
        assert_eq!(POW5[1], 5 << 122);
        assert_eq!(POW5[325], split(1_780_059_086_805_761_106, 8_710_297_504_448_807_696));
        assert_eq!(POW5_INV[0], (1 << 125) + 1);
        assert_eq!(POW5_INV[1], split(1_844_674_407_370_955_161, 11_068_046_444_225_730_970));
        assert_eq!(POW5_INV[291], split(1_438_154_507_889_852_726, 3_383_947_335_406_624_054));
    }

    #[test]
    fn pinned_values_write_their_display_bytes() {
        let pinned = [
            (f64::from_bits(0x4317_9085_685d_83c9), "1658206780088562.3"),
            (f64::from_bits(0x42ea_8090_bb0f_6d84), "233115890514796.13"),
            (0.0, "0"),
            (-0.0, "-0"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::NAN, "NaN"),
            (-f64::NAN, "NaN"),
            (1e21, "1000000000000000000000"),
            (1e-7, "0.0000001"),
            (1.5e-7, "0.00000015"),
            (0.3, "0.3"),
            (-1.25, "-1.25"),
            (123_456_789_012_345_680.0, "123456789012345680"),
        ];
        for (x, text) in pinned {
            assert_eq!(written(x), text, "{:#018x}", x.to_bits());
            assert_eq!(written(x), format!("{x}"));
        }
    }

    #[test]
    fn the_writer_writes_display_bytes() {
        let specials = [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff8_0000_0000_00ff),
            1e16,
            1e17,
            1e21,
            1e22,
            9_007_199_254_740_993.0,
            1e-5,
            9.999e-6,
            1e-6,
            1.000_000_000_000_000_2e-300,
        ];
        let mut specials = specials.into_iter();
        assert_eq!(mismatches(specials.len(), || specials.next().unwrap()), (0, None));
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        assert_eq!(mismatches(40_000, || f64::from_bits(rng.next_u64())), (0, None));
        assert_eq!(mismatches(40_000, || rng.gen_range(0.0..1.0)), (0, None));
        // Subnormals, values below 1e-5 and integers near 1e16 … 1e22.
        let mut draw_in = |lo: u64, hi: u64| f64::from_bits(rng.gen_range(lo..hi));
        assert_eq!(mismatches(10_000, || draw_in(1, 1 << 52)), (0, None));
        assert_eq!(
            mismatches(10_000, || draw_in(0x3c00_0000_0000_0000, 1e-5f64.to_bits())),
            (0, None)
        );
        assert_eq!(
            mismatches(10_000, || draw_in(1e16f64.to_bits(), 1e23f64.to_bits()).round()),
            (0, None)
        );
    }

    /// The contract over a long sweep (release: a few seconds):
    /// `cargo test --release -p skycache-core --lib -- --ignored display_bytes_over`.
    #[test]
    #[ignore = "a long sweep: run in release"]
    fn display_bytes_over_twenty_million_bit_patterns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(mismatches(20_000_000, || f64::from_bits(rng.next_u64())), (0, None));
        assert_eq!(mismatches(5_000_000, || rng.gen_range(0.0..1.0)), (0, None));
    }
}
