//! Exact byte images of the model's protocol state.
//!
//! `san-mc` keeps every state it has discovered but not yet expanded as
//! one image, and unpacks it into a reused state when its turn comes.
//! An image holds every field — absolute sequence numbers, generations,
//! pool slots, times — so unpacking restores the state exactly. The
//! checker's canonical key is smaller but erases what a counterexample
//! still needs. Integers and lengths are LEB128 varints. The firmware
//! never calls these codecs.

use std::collections::VecDeque;

use san_nic::BufId;
use san_sim::Time;

/// A value with an exact byte image.
pub trait Image {
    /// Append the image of `self` to `out`.
    fn pack(&self, out: &mut Vec<u8>);
    /// Overwrite `self` with the value imaged at the front of `r`. Like
    /// `clone_from`, this keeps `self`'s buffers; every container is
    /// cleared or cut to the imaged length before it is refilled.
    fn unpack(&mut self, r: &mut Reader<'_>);
}

/// Implement [`Image`] for a struct by packing the listed fields in
/// order. Both codecs destructure `Self` with every field named and no
/// rest pattern, so a new field fails to compile until it is listed.
#[macro_export]
macro_rules! image_fields {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::image::Image for $ty {
            fn pack(&self, out: &mut Vec<u8>) {
                let Self { $($field),* } = self;
                $($crate::image::Image::pack($field, out);)*
            }

            fn unpack(&mut self, r: &mut $crate::image::Reader<'_>) {
                let Self { $($field),* } = self;
                $($crate::image::Image::unpack($field, r);)*
            }
        }
    };
}

/// Replace `out` with the image of `v`.
pub fn pack_into<T: Image>(v: &T, out: &mut Vec<u8>) {
    out.clear();
    v.pack(out);
}

/// Overwrite `v` with the value imaged in `bytes`, which must hold
/// exactly one image. A malformed image is a bug in its packer: this
/// panics on one.
pub fn unpack_from<T: Image>(v: &mut T, bytes: &[u8]) {
    let mut r = Reader { rest: bytes };
    v.unpack(&mut r);
    assert!(
        r.rest.is_empty(),
        "{} bytes left over after unpacking an image",
        r.rest.len()
    );
}

/// A cursor over an image.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl Reader<'_> {
    /// Read one LEB128 varint.
    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let (&b, rest) = self.rest.split_first().expect("image ends inside a varint");
            self.rest = rest;
            assert!(shift < 64, "varint longer than 64 bits");
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }
}

/// Append `v` as a LEB128 varint: seven bits a byte, low bits first, the
/// high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

macro_rules! uint_image {
    ($($t:ty),*) => {$(
        impl Image for $t {
            fn pack(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u64);
            }

            fn unpack(&mut self, r: &mut Reader<'_>) {
                *self = <$t>::try_from(r.varint()).expect("image integer out of range");
            }
        }
    )*};
}

uint_image!(u8, u16, u32, u64, usize);

/// Zigzag-mapped, so `-1` takes one byte.
impl Image for i16 {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(((*self << 1) ^ (*self >> 15)) as u16));
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        let z = u16::try_from(r.varint()).expect("image integer out of range");
        *self = (z >> 1) as i16 ^ -((z & 1) as i16);
    }
}

impl Image for bool {
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        *self = match r.varint() {
            0 => false,
            1 => true,
            b => panic!("image bool reads {b}"),
        };
    }
}

impl Image for Time {
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        self.0.unpack(r);
    }
}

impl Image for BufId {
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        self.0.unpack(r);
    }
}

impl<A: Image, B: Image> Image for (A, B) {
    fn pack(&self, out: &mut Vec<u8>) {
        self.0.pack(out);
        self.1.pack(out);
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        self.0.unpack(r);
        self.1.unpack(r);
    }
}

/// Fixed length, so no length prefix.
impl<T: Image, const N: usize> Image for [T; N] {
    fn pack(&self, out: &mut Vec<u8>) {
        for v in self {
            v.pack(out);
        }
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        for v in self {
            v.unpack(r);
        }
    }
}

impl<T: Image + Default> Image for Option<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.is_some().pack(out);
        if let Some(v) = self {
            v.pack(out);
        }
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        let mut some = false;
        some.unpack(r);
        if some {
            self.get_or_insert_with(T::default).unpack(r);
        } else {
            *self = None;
        }
    }
}

/// Cut or grown to the imaged length, so the elements kept are unpacked
/// in place with their own buffers.
impl<T: Image + Default> Image for Vec<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        for v in self {
            v.pack(out);
        }
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        let mut len = 0usize;
        len.unpack(r);
        self.resize_with(len, T::default);
        for v in self {
            v.unpack(r);
        }
    }
}

impl<T: Image + Default> Image for VecDeque<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        self.len().pack(out);
        for v in self {
            v.pack(out);
        }
    }

    fn unpack(&mut self, r: &mut Reader<'_>) {
        let mut len = 0usize;
        len.unpack(r);
        self.clear();
        for _ in 0..len {
            let mut v = T::default();
            v.unpack(r);
            self.push_back(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Image + Default + PartialEq + std::fmt::Debug>(v: T) -> usize {
        let mut bytes = Vec::new();
        pack_into(&v, &mut bytes);
        let mut back = T::default();
        unpack_from(&mut back, &bytes);
        assert_eq!(back, v);
        bytes.len()
    }

    #[test]
    fn varints_take_seven_bits_a_byte() {
        assert_eq!(roundtrip(0u32), 1);
        assert_eq!(roundtrip(127u32), 1);
        assert_eq!(roundtrip(128u32), 2);
        assert_eq!(roundtrip(u16::MAX), 3);
        assert_eq!(roundtrip(u32::MAX), 5);
        assert_eq!(roundtrip(u64::MAX), 10);
        assert_eq!(roundtrip(-1i16), 1);
        for v in [i16::MIN, -2, 0, 1, i16::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn containers_refill_from_scratch() {
        let mut q: VecDeque<u32> = VecDeque::from([9, 9, 9]);
        let mut bytes = Vec::new();
        pack_into(&VecDeque::from([1u32, 2]), &mut bytes);
        unpack_from(&mut q, &bytes);
        assert_eq!(q, [1, 2]);
        let mut v: Vec<Option<u64>> = vec![Some(5), None, Some(7)];
        pack_into(&vec![None, Some(u64::MAX)], &mut bytes);
        unpack_from(&mut v, &bytes);
        assert_eq!(v, [None, Some(u64::MAX)]);
    }

    #[test]
    #[should_panic(expected = "left over")]
    fn trailing_bytes_are_a_bug() {
        unpack_from(&mut 0u32, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "inside a varint")]
    fn a_truncated_image_is_a_bug() {
        unpack_from(&mut 0u32, &[0x80]);
    }
}
