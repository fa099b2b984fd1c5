use crate::image::ImageBuf;
use crate::simd::LANES;
use std::fmt;

/// A single-channel image padded on every side by `pad` pixels that
/// repeat its nearest border pixel: [`crate::Kernel::apply_at`]'s
/// clamp-to-edge border, paid once when the plane is built instead of on
/// every tap.
///
/// With `pad` a kernel's radius, the window of every pixel, border pixels
/// included, lies inside the plane, so the kernels that read it
/// ([`crate::Kernel::apply_gray_indices`], [`crate::convolve_padded`])
/// clamp nothing and have no border path.
///
/// # Examples
///
/// ```
/// use anytime_img::{convolve, convolve_padded, synth, Kernel, PaddedGray};
///
/// let img = synth::value_noise(20, 10, 1);
/// let kernel = Kernel::gaussian(5, 1.0);
/// let plane = PaddedGray::new(&img, 2); // the kernel's radius
/// assert_eq!(convolve_padded(&plane, &kernel), convolve(&img, &kernel));
/// ```
#[derive(Clone)]
pub struct PaddedGray {
    width: usize,
    height: usize,
    pad: usize,
    /// Row-major samples, `width + 2·pad` to a row, then `LANES - 1`
    /// spare bytes: a row kernel reads each row in whole groups of
    /// [`LANES`] pixels, and a short last group of the last row reads
    /// that far past the plane. Those lanes' values are discarded.
    data: Vec<u8>,
}

impl PaddedGray {
    /// Pads a single-channel image by `pad` pixels on every side.
    ///
    /// # Panics
    ///
    /// Panics if the image is not single-channel.
    pub fn new(img: &ImageBuf<u8>, pad: usize) -> Self {
        assert_eq!(img.channels(), 1, "single-channel images only");
        let (width, height) = (img.width(), img.height());
        let stride = width + 2 * pad;
        let mut data = Vec::with_capacity((height + 2 * pad) * stride + LANES - 1);
        for py in 0..height + 2 * pad {
            let y = py.saturating_sub(pad).min(height - 1);
            let row = &img.as_slice()[y * width..(y + 1) * width];
            data.extend(std::iter::repeat_n(row[0], pad));
            data.extend_from_slice(row);
            data.extend(std::iter::repeat_n(row[width - 1], pad));
        }
        data.resize(data.len() + LANES - 1, 0);
        Self {
            width,
            height,
            pad,
            data,
        }
    }

    /// Width of the image, without the padding.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Height of the image, without the padding.
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Pixels of padding on each side.
    pub(crate) fn pad(&self) -> usize {
        self.pad
    }

    /// Samples from one padded row to the next.
    pub(crate) fn stride(&self) -> usize {
        self.width + 2 * self.pad
    }

    /// The padded samples, spare bytes included.
    pub(crate) fn samples(&self) -> &[u8] {
        &self.data
    }

    /// Index in [`PaddedGray::samples`] of the top-left tap of the window
    /// of radius `pad` around pixel `(x, y)`.
    pub(crate) fn window_origin(&self, x: usize, y: usize) -> usize {
        y * self.stride() + x
    }
}

impl fmt::Debug for PaddedGray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PaddedGray")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("pad", &self.pad)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn padding_repeats_the_nearest_border_pixel() {
        for (w, h) in [(1usize, 1usize), (3, 2), (9, 5)] {
            let img = synth::value_noise(w, h, 4);
            for pad in [0usize, 1, 4] {
                let plane = PaddedGray::new(&img, pad);
                let stride = plane.stride();
                let padded = (h + 2 * pad) * stride;
                assert_eq!(plane.samples().len(), padded + LANES - 1);
                for py in 0..h + 2 * pad {
                    for px in 0..stride {
                        let (x, y) = (px as isize - pad as isize, py as isize - pad as isize);
                        assert_eq!(
                            plane.samples()[py * stride + px],
                            img.pixel_clamped(x, y)[0],
                            "({x}, {y}) padded by {pad} in {w}x{h}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "single-channel")]
    fn rejects_multichannel() {
        let img = ImageBuf::<u8>::new(8, 8, 3).unwrap();
        let _ = PaddedGray::new(&img, 1);
    }
}
