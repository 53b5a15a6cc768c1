//! Named (x, y) series — the "figure" half of experiment output.
//!
//! The paper's quantitative claims are mostly *curves* (write amplification
//! vs. overprovisioning, latency vs. load) or *factors* between two curves.
//! A [`Series`] captures one labelled curve and offers the comparisons the
//! harness asserts on: monotonicity and point lookup/interpolation.

/// A named sequence of (x, y) points, kept in insertion order.
///
/// # Examples
///
/// ```
/// use bh_metrics::Series;
/// let mut s = Series::new("waf-vs-op");
/// s.push(0.0, 15.2);
/// s.push(0.25, 2.4);
/// assert_eq!(s.len(), 2);
/// assert!(s.is_monotone_decreasing());
/// ```
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Creates an empty series sized for `points` pushes, so callers
    /// that know the sample count up front avoid regrowth.
    pub fn with_capacity(name: impl Into<String>, points: usize) -> Self {
        Series {
            name: name.into(),
            points: Vec::with_capacity(points),
        }
    }

    /// Returns the series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Returns the number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns true when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Returns the points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Linearly interpolates y at `x`; clamps to the end values outside the
    /// x range. Returns `None` for an empty series. Assumes points were
    /// pushed in increasing x order.
    pub fn interpolate(&self, x: f64) -> Option<f64> {
        let first = self.points.first()?;
        let last = self.points.last()?;
        if x <= first.0 {
            return Some(first.1);
        }
        if x >= last.0 {
            return Some(last.1);
        }
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x >= x0 && x <= x1 {
                if (x1 - x0).abs() < 1e-12 {
                    return Some(y0);
                }
                let t = (x - x0) / (x1 - x0);
                return Some(y0 + t * (y1 - y0));
            }
        }
        Some(last.1)
    }

    /// Returns true when y never increases as x advances in insertion
    /// order. Vacuously true for series with fewer than two points.
    pub fn is_monotone_decreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12)
    }

    /// Returns true when y never decreases as x advances in insertion
    /// order. Vacuously true for series with fewer than two points.
    pub fn is_monotone_increasing(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 + 1e-12 >= w[0].1)
    }

    /// Aligns several series onto the union of their x grids and reduces
    /// them pointwise with `reduce` (over the per-series interpolated y
    /// values). Series sampled at different instants — e.g. per-shard
    /// interval-WA curves from a fleet run — become one comparable curve.
    ///
    /// Empty inputs are skipped; the result is empty when every input is.
    /// Inputs are assumed x-sorted (as sampled curves are).
    pub fn aligned(
        name: impl Into<String>,
        series: &[Series],
        reduce: impl Fn(&[f64]) -> f64,
    ) -> Series {
        let mut xs: Vec<f64> = series
            .iter()
            .flat_map(|s| s.points().iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("sample x must not be NaN"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let mut out = Series::new(name);
        let mut ys = Vec::with_capacity(series.len());
        for x in xs {
            ys.clear();
            ys.extend(series.iter().filter_map(|s| s.interpolate(x)));
            if !ys.is_empty() {
                out.push(x, reduce(&ys));
            }
        }
        out
    }

    /// [`Series::aligned`] with a mean reducer — the fleet-level view of
    /// per-shard curves.
    pub fn mean_aligned(name: impl Into<String>, series: &[Series]) -> Series {
        Series::aligned(name, series, |ys| ys.iter().sum::<f64>() / ys.len() as f64)
    }

    /// Renders the series as simple aligned `x y` lines, one per point,
    /// prefixed by a `# name` header — gnuplot-compatible.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n", self.name);
        for (x, y) in &self.points {
            out.push_str(&format!("{x:>12.4} {y:>14.4}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("t");
        s.push(0.0, 10.0);
        s.push(1.0, 5.0);
        s.push(2.0, 2.5);
        s
    }

    #[test]
    fn interpolation_midpoint_and_clamping() {
        let s = sample();
        assert_eq!(s.interpolate(0.5), Some(7.5));
        assert_eq!(s.interpolate(-1.0), Some(10.0));
        assert_eq!(s.interpolate(5.0), Some(2.5));
        assert_eq!(Series::new("e").interpolate(0.0), None);
    }

    #[test]
    fn monotonicity_checks() {
        let s = sample();
        assert!(s.is_monotone_decreasing());
        assert!(!s.is_monotone_increasing());
        let mut flat = Series::new("flat");
        flat.push(0.0, 1.0);
        flat.push(1.0, 1.0);
        assert!(flat.is_monotone_decreasing());
        assert!(flat.is_monotone_increasing());
    }

    #[test]
    fn render_has_header_and_rows() {
        let r = sample().render();
        assert!(r.starts_with("# t\n"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    fn aligned_unions_grids_and_interpolates() {
        let mut a = Series::new("a");
        a.push(0.0, 0.0);
        a.push(2.0, 2.0);
        let mut b = Series::new("b");
        b.push(1.0, 3.0);
        b.push(3.0, 3.0);
        let m = Series::mean_aligned("m", &[a, b]);
        // Union grid {0, 1, 2, 3}; b clamps to 3 at x=0, a clamps to 2 at x=3.
        assert_eq!(
            m.points(),
            &[(0.0, 1.5), (1.0, 2.0), (2.0, 2.5), (3.0, 2.5)]
        );
    }

    #[test]
    fn aligned_skips_empty_inputs() {
        let empty = Series::new("e");
        let mut a = Series::new("a");
        a.push(1.0, 7.0);
        let m = Series::mean_aligned("m", &[empty.clone(), a]);
        assert_eq!(m.points(), &[(1.0, 7.0)]);
        assert!(Series::mean_aligned("m", &[empty]).is_empty());
        assert!(Series::mean_aligned("m", &[]).is_empty());
    }

    #[test]
    fn aligned_dedups_shared_grid_points() {
        let mut a = Series::new("a");
        a.push(0.0, 1.0);
        a.push(1.0, 1.0);
        let mut b = Series::new("b");
        b.push(0.0, 3.0);
        b.push(1.0, 3.0);
        let m = Series::mean_aligned("m", &[a, b]);
        assert_eq!(m.points(), &[(0.0, 2.0), (1.0, 2.0)]);
    }
}
