//! `kmeans` — k-means clustering over image pixels (AxBench).
//!
//! Clusters RGB pixels by Euclidean distance and recolors each pixel with
//! its cluster's mean color. The automaton follows the paper's two-stage
//! asynchronous pipeline (§IV-A2):
//!
//! 1. **assign** (diffusive, tree output sampling): visits pixels in tree
//!    order, assigning each to its nearest seed centroid and accumulating
//!    per-cluster color sums — the partial sums a multi-threaded
//!    implementation would keep thread-private;
//! 2. **reduce** (non-anytime): reduces the partial sums into cluster
//!    means and renders the clustered image. Pixels not yet sampled keep
//!    their original color, so every intermediate output is a whole,
//!    valid image.
//!
//! Like the paper's version, the non-anytime reduction re-runs per
//! upstream version and delays the precise output relative to the
//! single-stage benchmarks (paper Figure 15). We run one
//! assignment/update round (a single Lloyd step) in both the baseline and
//! the automaton so the two compute identical precise outputs.

use crate::error::Result;
use anytime_core::{BufferReader, Pipeline, PipelineBuilder, Precise, SampledMap, StageOptions};
use anytime_img::ImageBuf;
use anytime_permute::DynPermutation;

/// Sentinel for "pixel not yet sampled".
const UNASSIGNED: u8 = u8::MAX;

/// Pixels assigned per anytime step.
pub const CHUNK: usize = 64;

/// Partial clustering state streamed from the assignment stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialClusters {
    /// Per-pixel cluster index, [`u8::MAX`] when not yet sampled.
    pub assignments: Vec<u8>,
    /// Per-cluster RGB color sums over sampled pixels.
    pub sums: Vec<[u64; 3]>,
    /// Per-cluster sampled-pixel counts.
    pub counts: Vec<u64>,
}

impl PartialClusters {
    fn empty(pixels: usize, k: usize) -> Self {
        Self {
            assignments: vec![UNASSIGNED; pixels],
            sums: vec![[0; 3]; k],
            counts: vec![0; k],
        }
    }

    /// Cluster mean colors; clusters with no samples fall back to the
    /// provided seed centroids.
    pub fn means(&self, seeds: &[[u8; 3]]) -> Vec<[u8; 3]> {
        self.sums
            .iter()
            .zip(&self.counts)
            .zip(seeds)
            .map(|((sum, &count), &seed)| {
                let mean = |s: u64| s.checked_div(count).map(|v| v as u8);
                match (mean(sum[0]), mean(sum[1]), mean(sum[2])) {
                    (Some(r), Some(g), Some(b)) => [r, g, b],
                    _ => seed, // empty cluster: keep its seed color
                }
            })
            .collect()
    }
}

fn nearest(px: &[u8], centroids: &[[u8; 3]]) -> u8 {
    let mut best = 0usize;
    let mut best_d = u64::MAX;
    for (c, cen) in centroids.iter().enumerate() {
        let d: u64 = (0..3)
            .map(|i| {
                let diff = i64::from(px[i]) - i64::from(cen[i]);
                (diff * diff) as u64
            })
            .sum();
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best as u8
}

/// The whole-application output of the kmeans automaton: per-pixel
/// assignments plus the reduced cluster means.
///
/// This is the paper's stage-2 product (the reduced centroid
/// computations); [`Kmeans::compose`] turns it into the displayable
/// clustered image.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusteredFrame {
    /// Per-pixel cluster index, [`u8::MAX`] when not yet sampled.
    pub assignments: Vec<u8>,
    /// Cluster mean colors.
    pub means: Vec<[u8; 3]>,
}

/// The `kmeans` benchmark over an RGB image.
#[derive(Debug, Clone)]
pub struct Kmeans {
    image: ImageBuf<u8>,
    k: usize,
    perm: DynPermutation,
}

impl Kmeans {
    /// Creates the benchmark with `k` clusters.
    ///
    /// The image's tree permutation is built here, once: every automaton
    /// built from this value or its clones shares its sample order, which
    /// the first build materializes.
    ///
    /// # Panics
    ///
    /// Panics unless `image` is RGB and `2 <= k <= 254`. The tree
    /// permutation fails only on an empty image, which [`ImageBuf`]
    /// rejects.
    pub fn new(image: ImageBuf<u8>, k: usize) -> Self {
        assert_eq!(image.channels(), 3, "kmeans expects an RGB image");
        assert!((2..=254).contains(&k), "k must be in 2..=254");
        Self {
            perm: crate::tree_permutation(&image),
            image,
            k,
        }
    }

    /// The input image.
    pub fn image(&self) -> &ImageBuf<u8> {
        &self.image
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Deterministic seed centroids: pixels sampled at evenly spaced
    /// positions.
    pub fn seed_centroids(&self) -> Vec<[u8; 3]> {
        let n = self.image.pixel_count();
        (0..self.k)
            .map(|c| {
                let idx = (c * n + n / 2) / self.k;
                let px = self.image.pixel_at(idx.min(n - 1));
                [px[0], px[1], px[2]]
            })
            .collect()
    }

    /// The precise baseline: assign every pixel to its nearest seed
    /// centroid, compute cluster means, recolor every pixel with its
    /// cluster's mean.
    pub fn precise(&self) -> ImageBuf<u8> {
        let seeds = self.seed_centroids();
        let n = self.image.pixel_count();
        let mut partial = PartialClusters::empty(n, self.k);
        for idx in 0..n {
            let px = self.image.pixel_at(idx);
            let c = nearest(px, &seeds);
            partial.assignments[idx] = c;
            let s = &mut partial.sums[c as usize];
            for i in 0..3 {
                s[i] += u64::from(px[i]);
            }
            partial.counts[c as usize] += 1;
        }
        self.render(&partial)
    }

    /// Renders a clustered image from partial state: sampled pixels take
    /// their cluster's mean color, unsampled pixels keep their original
    /// color.
    pub fn render(&self, partial: &PartialClusters) -> ImageBuf<u8> {
        let seeds = self.seed_centroids();
        let means = partial.means(&seeds);
        let mut out = self.image.clone();
        for (idx, &a) in partial.assignments.iter().enumerate() {
            if a != UNASSIGNED {
                out.set_pixel_at(idx, &means[a as usize]);
            }
        }
        out
    }

    /// Builds the two-stage automaton.
    ///
    /// `publish_every` is in pixels, rounded to whole [`CHUNK`]s. Stage 2
    /// mirrors the paper's non-anytime reduction: it folds the partial
    /// sums into cluster means — a tiny computation per version — and
    /// forwards the assignments. Composing the displayable image from a
    /// [`ClusteredFrame`] is an evaluation/display concern
    /// ([`Kmeans::compose`]), like the preview reconstruction of the
    /// sampled image benchmarks.
    ///
    /// # Errors
    ///
    /// Does not fail: the permutation is built once, by [`Kmeans::new`].
    ///
    /// # Panics
    ///
    /// The first build materializes the sample order, which panics for an
    /// image of 2³² pixels or more (indices are narrowed to `u32`).
    pub fn automaton(
        &self,
        publish_every: u64,
    ) -> Result<(Pipeline, BufferReader<ClusteredFrame>)> {
        let seeds = self.seed_centroids();
        let k = self.k;
        let mut pb = PipelineBuilder::new();
        // Stage 1: tree-order assignment with partial-sum accumulation.
        let assign = pb.source(
            "assign",
            self.image.clone(),
            SampledMap::new(
                self.perm.clone(),
                move |img: &ImageBuf<u8>| PartialClusters::empty(img.pixel_count(), k),
                move |img: &ImageBuf<u8>, out: &mut PartialClusters, idx| {
                    let px = img.pixel_at(idx);
                    let c = nearest(px, &seeds);
                    out.assignments[idx] = c;
                    let s = &mut out.sums[c as usize];
                    for i in 0..3 {
                        s[i] += u64::from(px[i]);
                    }
                    out.counts[c as usize] += 1;
                },
            )
            .with_chunk(CHUNK),
            StageOptions::with_publish_every(publish_every.div_ceil(CHUNK as u64)),
        );
        // Stage 2: non-anytime reduction of the partial sums into means.
        let seeds = self.seed_centroids();
        let out = pb.stage(
            "reduce",
            &assign,
            Precise::new(move |partial: &PartialClusters| ClusteredFrame {
                assignments: partial.assignments.clone(),
                means: partial.means(&seeds),
            }),
            StageOptions::default(),
        );
        Ok((pb.build(), out))
    }

    /// Composes the displayable clustered image from a pipeline frame:
    /// assigned pixels take their cluster's mean color, unsampled pixels
    /// keep the original image's color.
    ///
    /// # Panics
    ///
    /// Panics if the frame's assignment count differs from the image's
    /// pixel count.
    pub fn compose(&self, frame: &ClusteredFrame) -> ImageBuf<u8> {
        assert_eq!(
            frame.assignments.len(),
            self.image.pixel_count(),
            "frame does not match this image"
        );
        let mut out = self.image.clone();
        for (idx, &a) in frame.assignments.iter().enumerate() {
            if a != UNASSIGNED {
                out.set_pixel_at(idx, &frame.means[a as usize]);
            }
        }
        out
    }
}

impl Default for PartialClusters {
    fn default() -> Self {
        Self::empty(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anytime_img::{metrics, synth};
    use std::time::Duration;

    fn app() -> Kmeans {
        Kmeans::new(synth::rgb_scene(32, 32, 17), 4)
    }

    #[test]
    fn nearest_picks_minimum_distance() {
        let centroids = vec![[0, 0, 0], [255, 255, 255], [128, 0, 0]];
        assert_eq!(nearest(&[10, 10, 10], &centroids), 0);
        assert_eq!(nearest(&[250, 240, 240], &centroids), 1);
        assert_eq!(nearest(&[120, 10, 10], &centroids), 2);
    }

    #[test]
    fn seed_centroids_are_deterministic_and_distinct_positions() {
        let app = app();
        assert_eq!(app.seed_centroids(), app.seed_centroids());
        assert_eq!(app.seed_centroids().len(), 4);
    }

    #[test]
    fn precise_output_uses_at_most_k_colors() {
        let app = app();
        let out = app.precise();
        let mut colors = std::collections::HashSet::new();
        for i in 0..out.pixel_count() {
            let p = out.pixel_at(i);
            colors.insert((p[0], p[1], p[2]));
        }
        assert!(colors.len() <= 4, "got {} colors", colors.len());
    }

    #[test]
    fn clustering_reduces_color_variance() {
        let app = app();
        let out = app.precise();
        // The clustered image should still resemble the input.
        let snr = metrics::snr_db(&out, app.image());
        assert!(snr > 5.0, "clustered image unrecognizable: {snr}");
    }

    #[test]
    fn automaton_reaches_precise_output() {
        let app = app();
        let precise = app.precise();
        let (pipeline, out) = app.automaton(128).unwrap();
        let auto = pipeline.launch().unwrap();
        let snap = out.wait_final_timeout(Duration::from_secs(120)).unwrap();
        assert_eq!(app.compose(snap.value()), precise);
        auto.join().unwrap();
    }

    #[test]
    fn compose_matches_render() {
        let app = app();
        let n = app.image().pixel_count();
        let seeds = app.seed_centroids();
        let mut partial = PartialClusters::empty(n, app.k());
        for idx in 0..n / 3 {
            let px = app.image().pixel_at(idx);
            let c = nearest(px, &seeds);
            partial.assignments[idx] = c;
            for (i, &v) in px.iter().enumerate().take(3) {
                partial.sums[c as usize][i] += u64::from(v);
            }
            partial.counts[c as usize] += 1;
        }
        let frame = ClusteredFrame {
            assignments: partial.assignments.clone(),
            means: partial.means(&seeds),
        };
        assert_eq!(app.compose(&frame), app.render(&partial));
    }

    #[test]
    fn partial_render_blends_original_and_clustered() {
        let app = app();
        let n = app.image().pixel_count();
        let mut partial = PartialClusters::empty(n, app.k());
        // Assign only the first half of the pixels.
        let seeds = app.seed_centroids();
        for idx in 0..n / 2 {
            let px = app.image().pixel_at(idx);
            let c = nearest(px, &seeds);
            partial.assignments[idx] = c;
            for (i, &v) in px.iter().enumerate().take(3) {
                partial.sums[c as usize][i] += u64::from(v);
            }
            partial.counts[c as usize] += 1;
        }
        let out = app.render(&partial);
        // Second half untouched.
        for idx in n / 2..n {
            assert_eq!(out.pixel_at(idx), app.image().pixel_at(idx));
        }
    }

    #[test]
    fn empty_clusters_fall_back_to_seeds() {
        let partial = PartialClusters::empty(10, 2);
        let seeds = vec![[1, 2, 3], [4, 5, 6]];
        assert_eq!(partial.means(&seeds), seeds);
    }

    #[test]
    #[should_panic(expected = "RGB")]
    fn grayscale_input_rejected() {
        Kmeans::new(synth::value_noise(8, 8, 1), 3);
    }
}
