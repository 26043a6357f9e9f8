//! Stroke-rendered digit images: the MNIST substitute (see crate docs).
//!
//! Each digit class is a set of line segments in the unit square (a
//! seven-segment skeleton plus diagonals where it helps disambiguation). A
//! sample is rendered by applying a random affine jitter (translation, scale),
//! random stroke thickness, rasterizing at `side × side`, and adding pixel
//! noise. Classes are well separated for a 1-NN classifier while neighboring
//! digits (4 vs 9, 3 vs 8) differ in a small set of pixels — the property
//! Figure 1's counterfactual visualization depends on.

use knn_space::{BitVec, BooleanDataset, ContinuousDataset, Label};
use rand::Rng;

/// A line segment in the unit square.
#[derive(Clone, Copy, Debug)]
struct Seg {
    x1: f64,
    y1: f64,
    x2: f64,
    y2: f64,
}

const fn seg(x1: f64, y1: f64, x2: f64, y2: f64) -> Seg {
    Seg { x1, y1, x2, y2 }
}

// Seven-segment skeleton (y grows downward).
const TOP: Seg = seg(0.25, 0.15, 0.75, 0.15);
const TOP_LEFT: Seg = seg(0.25, 0.15, 0.25, 0.5);
const TOP_RIGHT: Seg = seg(0.75, 0.15, 0.75, 0.5);
const MIDDLE: Seg = seg(0.25, 0.5, 0.75, 0.5);
const BOT_LEFT: Seg = seg(0.25, 0.5, 0.25, 0.85);
const BOT_RIGHT: Seg = seg(0.75, 0.5, 0.75, 0.85);
const BOTTOM: Seg = seg(0.25, 0.85, 0.75, 0.85);

fn template(digit: u8) -> Vec<Seg> {
    match digit {
        0 => vec![TOP, TOP_LEFT, TOP_RIGHT, BOT_LEFT, BOT_RIGHT, BOTTOM],
        1 => vec![TOP_RIGHT, BOT_RIGHT],
        2 => vec![TOP, TOP_RIGHT, MIDDLE, BOT_LEFT, BOTTOM],
        3 => vec![TOP, TOP_RIGHT, MIDDLE, BOT_RIGHT, BOTTOM],
        4 => vec![TOP_LEFT, TOP_RIGHT, MIDDLE, BOT_RIGHT],
        5 => vec![TOP, TOP_LEFT, MIDDLE, BOT_RIGHT, BOTTOM],
        6 => vec![TOP, TOP_LEFT, MIDDLE, BOT_LEFT, BOT_RIGHT, BOTTOM],
        7 => vec![TOP, TOP_RIGHT, BOT_RIGHT],
        8 => vec![TOP, TOP_LEFT, TOP_RIGHT, MIDDLE, BOT_LEFT, BOT_RIGHT, BOTTOM],
        9 => vec![TOP, TOP_LEFT, TOP_RIGHT, MIDDLE, BOT_RIGHT, BOTTOM],
        _ => panic!("digit must be 0–9, got {digit}"),
    }
}

fn point_segment_dist(px: f64, py: f64, s: &Seg) -> f64 {
    let (dx, dy) = (s.x2 - s.x1, s.y2 - s.y1);
    let len_sq = dx * dx + dy * dy;
    let t = if len_sq == 0.0 {
        0.0
    } else {
        (((px - s.x1) * dx + (py - s.y1) * dy) / len_sq).clamp(0.0, 1.0)
    };
    let (cx, cy) = (s.x1 + t * dx, s.y1 + t * dy);
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

/// Rendering parameters for the digit generator.
#[derive(Clone, Copy, Debug)]
pub struct DigitsConfig {
    /// Image side length (the paper sweeps 12..=28).
    pub side: usize,
    /// Max |translation| of the glyph, as a fraction of the unit square.
    pub jitter: f64,
    /// Scale range around 1.0 (e.g. 0.12 → scales in [0.88, 1.12]).
    pub scale_jitter: f64,
    /// Base stroke thickness (fraction of the unit square).
    pub thickness: f64,
    /// Standard deviation of additive pixel noise (grayscale).
    pub noise: f64,
}

impl DigitsConfig {
    /// Defaults matching the qualitative look of low-resolution MNIST.
    pub fn new(side: usize) -> Self {
        DigitsConfig { side, jitter: 0.05, scale_jitter: 0.10, thickness: 0.09, noise: 0.04 }
    }
}

/// Renders one random sample of `digit` as a grayscale image in `[0,1]^{side²}`
/// (row-major).
pub fn render_digit(rng: &mut impl Rng, digit: u8, cfg: &DigitsConfig) -> Vec<f64> {
    let segs = template(digit);
    let (tx, ty) =
        (rng.gen_range(-cfg.jitter..=cfg.jitter), rng.gen_range(-cfg.jitter..=cfg.jitter));
    let scale = 1.0 + rng.gen_range(-cfg.scale_jitter..=cfg.scale_jitter);
    let thick = cfg.thickness * (1.0 + rng.gen_range(-0.25..=0.25));
    let side = cfg.side;
    let mut img = vec![0.0f64; side * side];
    for row in 0..side {
        for col in 0..side {
            // Pixel center mapped back through the inverse jitter transform.
            let px = ((col as f64 + 0.5) / side as f64 - 0.5 - tx) / scale + 0.5;
            let py = ((row as f64 + 0.5) / side as f64 - 0.5 - ty) / scale + 0.5;
            let d =
                segs.iter().map(|s| point_segment_dist(px, py, s)).fold(f64::INFINITY, f64::min);
            let mut v = if d <= thick {
                1.0
            } else if d <= 2.0 * thick {
                // Soft falloff emulating anti-aliased handwriting edges.
                1.0 - (d - thick) / thick
            } else {
                0.0
            };
            if cfg.noise > 0.0 {
                // Box-Muller Gaussian noise.
                let (u1, u2): (f64, f64) = (rng.gen_range(1e-9..1.0), rng.gen_range(0.0..1.0));
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                v += cfg.noise * g;
            }
            img[row * side + col] = v.clamp(0.0, 1.0);
        }
    }
    img
}

/// Binarizes a grayscale image at the given threshold.
pub fn binarize(img: &[f64], threshold: f64) -> BitVec {
    img.iter().map(|&v| v >= threshold).collect()
}

/// Generates a grayscale one-vs-rest digits dataset: `n_per_class` samples of
/// each digit in `classes`, with `positive_digit` labeled positive and every
/// other class negative — mirroring §9.1's protocol ("all images of digit d
/// are positive, images of d′ ≠ d negative").
pub fn digits_dataset(
    rng: &mut impl Rng,
    cfg: &DigitsConfig,
    classes: &[u8],
    positive_digit: u8,
    n_per_class: usize,
) -> ContinuousDataset<f64> {
    assert!(classes.contains(&positive_digit));
    let mut ds = ContinuousDataset::new(cfg.side * cfg.side);
    for &c in classes {
        for _ in 0..n_per_class {
            let img = render_digit(rng, c, cfg);
            let label = if c == positive_digit { Label::Positive } else { Label::Negative };
            ds.push(img, label);
        }
    }
    ds
}

/// The binarized variant of [`digits_dataset`] (the discrete setting of Fig 1).
pub fn binary_digits_dataset(
    rng: &mut impl Rng,
    cfg: &DigitsConfig,
    classes: &[u8],
    positive_digit: u8,
    n_per_class: usize,
) -> BooleanDataset {
    assert!(classes.contains(&positive_digit));
    let mut ds = BooleanDataset::new(cfg.side * cfg.side);
    for &c in classes {
        for _ in 0..n_per_class {
            let img = render_digit(rng, c, cfg);
            let label = if c == positive_digit { Label::Positive } else { Label::Negative };
            ds.push(binarize(&img, 0.5), label);
        }
    }
    ds
}

/// ASCII-art rendering of a grayscale image (for the examples and harnesses).
pub fn ascii_art(img: &[f64], side: usize) -> String {
    let ramp = [' ', '.', ':', '+', '#', '@'];
    let mut out = String::with_capacity((side + 1) * side);
    for row in 0..side {
        for col in 0..side {
            let v = img[row * side + col].clamp(0.0, 1.0);
            let idx = ((v * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1);
            out.push(ramp[idx]);
        }
        out.push('\n');
    }
    out
}

/// ASCII-art rendering of a binary image, optionally highlighting `marks`
/// (pixel indices) with `*` — used for Figure 1's diff maps.
pub fn ascii_art_binary(img: &BitVec, side: usize, marks: &[usize]) -> String {
    let mut out = String::with_capacity((side + 1) * side);
    for row in 0..side {
        for col in 0..side {
            let i = row * side + col;
            let c = if marks.contains(&i) {
                '*'
            } else if img.get(i) {
                '#'
            } else {
                '.'
            };
            out.push(c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn renders_have_ink() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = DigitsConfig::new(16);
        for d in 0..10u8 {
            let img = render_digit(&mut rng, d, &cfg);
            assert_eq!(img.len(), 256);
            let ink: f64 = img.iter().sum();
            assert!(ink > 5.0, "digit {d} rendered blank (ink {ink})");
            // Guards against a fully-solid render (ink 256); thick-stroke
            // digits like 6/8 legitimately land around 200 at unlucky jitter.
            assert!(ink < 235.0, "digit {d} rendered solid (ink {ink})");
        }
    }

    #[test]
    fn same_class_closer_than_other_class_on_average() {
        // The 1-NN usefulness criterion: intra-class Hamming distance of the
        // binarized images must be clearly below inter-class distance.
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = DigitsConfig::new(16);
        let fours: Vec<BitVec> =
            (0..12).map(|_| binarize(&render_digit(&mut rng, 4, &cfg), 0.5)).collect();
        let nines: Vec<BitVec> =
            (0..12).map(|_| binarize(&render_digit(&mut rng, 9, &cfg), 0.5)).collect();
        let avg = |xs: &[BitVec], ys: &[BitVec]| -> f64 {
            let mut total = 0usize;
            let mut count = 0usize;
            for (i, a) in xs.iter().enumerate() {
                for (j, b) in ys.iter().enumerate() {
                    if std::ptr::eq(xs, ys) && i == j {
                        continue;
                    }
                    total += a.hamming(b);
                    count += 1;
                }
            }
            total as f64 / count as f64
        };
        let intra = avg(&fours, &fours);
        let inter = avg(&fours, &nines);
        assert!(intra < inter, "intra-class distance {intra} should be below inter-class {inter}");
    }

    #[test]
    fn dataset_labels_one_vs_rest() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = DigitsConfig::new(12);
        let ds = digits_dataset(&mut rng, &cfg, &[4, 9], 4, 7);
        assert_eq!(ds.len(), 14);
        assert_eq!(ds.count_of(Label::Positive), 7);
        assert_eq!(ds.dim(), 144);
    }

    #[test]
    fn binarized_dataset() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = DigitsConfig::new(12);
        let ds = binary_digits_dataset(&mut rng, &cfg, &[3, 8], 8, 5);
        assert_eq!(ds.len(), 10);
        assert!(ds.point(0).to_bitvec().weight() > 0);
    }

    #[test]
    fn ascii_art_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = DigitsConfig::new(10);
        let img = render_digit(&mut rng, 0, &cfg);
        let art = ascii_art(&img, 10);
        assert_eq!(art.lines().count(), 10);
        assert!(art.lines().all(|l| l.chars().count() == 10));
        let b = binarize(&img, 0.5);
        let art2 = ascii_art_binary(&b, 10, &[0]);
        assert!(art2.starts_with('*'));
    }
}
