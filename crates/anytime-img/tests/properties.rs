//! Property tests for the image substrate: codec round trips, metric
//! axioms, and convolution invariants.

use anytime_img::io::{read_netpbm, write_netpbm};
use anytime_img::{convolve, convolve_padded, metrics, ImageBuf, Kernel, PaddedGray};
use proptest::prelude::*;

fn arb_image(max_side: usize, channels: usize) -> impl Strategy<Value = ImageBuf<u8>> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(w, h)| {
        prop::collection::vec(any::<u8>(), w * h * channels)
            .prop_map(move |data| ImageBuf::from_vec(w, h, channels, data).unwrap())
    })
}

/// Two independent images of the same shape.
fn arb_image_pair(
    max_side: usize,
    channels: usize,
) -> impl Strategy<Value = (ImageBuf<u8>, ImageBuf<u8>)> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(w, h)| {
        let n = w * h * channels;
        (
            prop::collection::vec(any::<u8>(), n),
            prop::collection::vec(any::<u8>(), n),
        )
            .prop_map(move |(a, b)| {
                (
                    ImageBuf::from_vec(w, h, channels, a).unwrap(),
                    ImageBuf::from_vec(w, h, channels, b).unwrap(),
                )
            })
    })
}

/// Kernels of every odd size from 1 to 9, with negative weights, and one
/// whose weights are neither symmetric nor normalized, so a transposed or
/// mirrored tap order changes its bytes.
fn plane_kernels() -> Vec<Kernel> {
    let lopsided = (0..25)
        .map(|i| f64::from(i * 7 % 11) / 40.0 - 0.08)
        .collect();
    vec![
        Kernel::box_blur(1),
        Kernel::box_blur(3),
        Kernel::box_blur(5),
        Kernel::gaussian(7, 1.5),
        Kernel::gaussian(9, 2.0),
        Kernel::sharpen(),
        Kernel::new(5, lopsided),
    ]
}

proptest! {
    #[test]
    fn netpbm_round_trips_gray(img in arb_image(24, 1)) {
        let mut bytes = Vec::new();
        write_netpbm(&mut bytes, &img).unwrap();
        prop_assert_eq!(read_netpbm(bytes.as_slice()).unwrap(), img);
    }

    #[test]
    fn netpbm_round_trips_rgb(img in arb_image(16, 3)) {
        let mut bytes = Vec::new();
        write_netpbm(&mut bytes, &img).unwrap();
        prop_assert_eq!(read_netpbm(bytes.as_slice()).unwrap(), img);
    }

    #[test]
    fn snr_is_infinite_iff_identical((a, b) in arb_image_pair(12, 1)) {
        let snr = metrics::snr_db(&a, &b);
        if a == b {
            prop_assert_eq!(snr, f64::INFINITY);
        } else {
            prop_assert!(snr < f64::INFINITY);
        }
    }

    #[test]
    fn mse_is_symmetric_and_nonnegative((a, b) in arb_image_pair(12, 1)) {
        let m1 = metrics::mse(&a, &b);
        let m2 = metrics::mse(&b, &a);
        prop_assert_eq!(m1, m2);
        prop_assert!(m1 >= 0.0);
    }

    #[test]
    fn box_blur_stays_within_input_range(img in arb_image(16, 1)) {
        prop_assume!(img.width() >= 3 && img.height() >= 3);
        let out = convolve(&img, &Kernel::box_blur(3));
        let min = *img.as_slice().iter().min().unwrap();
        let max = *img.as_slice().iter().max().unwrap();
        for &v in out.as_slice() {
            // Averages of clamped values stay within [min, max] up to
            // rounding.
            prop_assert!(v >= min.saturating_sub(1) && v <= max.saturating_add(1));
        }
    }

    #[test]
    fn pixel_roundtrip(img in arb_image(16, 3), x in 0usize..16, y in 0usize..16) {
        prop_assume!(x < img.width() && y < img.height());
        let px: Vec<u8> = img.pixel(x, y).to_vec();
        let mut copy = img.clone();
        copy.set_pixel(x, y, &px);
        prop_assert_eq!(copy, img);
    }

    #[test]
    fn plane_gather_matches_apply_at(
        img in arb_image(24, 1),
        picks in prop::collection::vec(any::<u32>(), 0..=64),
    ) {
        // Any run of 0 to 64 pixels, in any order and with repeats: full
        // groups of eight and a short last group, border pixels and
        // interior ones.
        let pixels = img.pixel_count() as u32;
        let indices: Vec<u32> = picks.iter().map(|&p| p % pixels).collect();
        for kernel in plane_kernels() {
            let plane = PaddedGray::new(&img, kernel.size() / 2);
            let mut values = vec![0u8; indices.len()];
            kernel.apply_gray_indices(&plane, &indices, &mut values);
            for (&idx, &v) in indices.iter().zip(&values) {
                let (x, y) = img.pixel_coords(idx as usize);
                let expected = kernel.apply_at(&img, x, y)[0];
                prop_assert_eq!(v, expected, "pixel {}, k{}", idx, kernel.size());
            }
        }
    }

    #[test]
    fn plane_convolution_matches_apply_at(img in arb_image(24, 1)) {
        for kernel in plane_kernels() {
            let expected: Vec<u8> = (0..img.pixel_count())
                .map(|i| {
                    let (x, y) = img.pixel_coords(i);
                    kernel.apply_at(&img, x, y)[0]
                })
                .collect();
            let plane = PaddedGray::new(&img, kernel.size() / 2);
            let padded = convolve_padded(&plane, &kernel);
            prop_assert_eq!(padded.as_slice(), &expected[..], "k{}", kernel.size());
            let whole = convolve(&img, &kernel);
            prop_assert_eq!(whole.as_slice(), &expected[..], "k{}", kernel.size());
        }
    }
}
