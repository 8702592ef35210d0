//! ASCII chart rendering — the paper's figures are CDFs and line series;
//! the experiment runners render them as terminal plots so the *shape*
//! (crossovers, tails) is visible without leaving the shell.

use crate::cdf::Cdf;

/// Marker characters assigned to series in order.
const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// Plot one or more CDFs on a shared axis (log-x when the value range spans
/// more than two decades). Returns a multi-line string.
pub fn plot_cdfs(series: &[(String, &Cdf)], width: usize, height: usize) -> String {
    let width = width.clamp(20, 200);
    let height = height.clamp(5, 60);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, cdf) in series {
        for p in cdf.points() {
            lo = lo.min(p.value);
            hi = hi.max(p.value);
        }
    }
    if !lo.is_finite() || !hi.is_finite() || series.is_empty() {
        return String::from("(no data)\n");
    }
    let lo = lo.max(1e-9);
    let hi = hi.max(lo * 1.0001);
    let log_x = hi / lo > 100.0;
    let x_of = |v: f64| -> usize {
        let v = v.max(lo);
        let frac = if log_x {
            (v.ln() - lo.ln()) / (hi.ln() - lo.ln())
        } else {
            (v - lo) / (hi - lo)
        };
        ((frac * (width - 1) as f64).round() as usize).min(width - 1)
    };
    let y_of = |f: f64| -> usize {
        // Row 0 is the top (fraction 1.0).
        let r = ((1.0 - f) * (height - 1) as f64).round() as usize;
        r.min(height - 1)
    };
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, cdf)) in series.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        // March along x; for each column find the CDF fraction there.
        #[allow(clippy::needless_range_loop)] // col drives both v and grid
        for col in 0..width {
            let v = if log_x {
                (lo.ln() + (hi.ln() - lo.ln()) * col as f64 / (width - 1) as f64).exp()
            } else {
                lo + (hi - lo) * col as f64 / (width - 1) as f64
            };
            let f = cdf.fraction_at(v);
            if f > 0.0 {
                grid[y_of(f)][col] = marker;
            }
        }
        // Ensure every actual point lands on the grid too (sparse tails).
        for p in cdf.points() {
            grid[y_of(p.fraction)][x_of(p.value)] = marker;
        }
    }
    let mut out = String::new();
    for (row, line) in grid.iter().enumerate() {
        let frac = 1.0 - row as f64 / (height - 1) as f64;
        out.push_str(&format!("{frac:5.2} |"));
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!("      +{}\n", "-".repeat(width)));
    out.push_str(&format!(
        "       {:<w$.4}{:>r$.4}{}\n",
        lo,
        hi,
        if log_x { "  (log x)" } else { "" },
        w = width / 2,
        r = width - width / 2,
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("       {} {}\n", MARKERS[si % MARKERS.len()], name));
    }
    out
}

/// Intensity ramp for [`sparkline`]: space = empty, '@' = the series max.
const SPARK_RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];

/// Render a compact one-line sparkline of `values`, rescaled to `width`
/// columns (each column shows the maximum of the values it covers, so
/// short spikes stay visible). All-zero input renders as spaces; empty
/// input as the empty string. One pass over `values`.
pub fn sparkline(mut values: impl ExactSizeIterator<Item = u64>, width: usize) -> String {
    let n = values.len();
    if n == 0 || width == 0 {
        return String::new();
    }
    let width = width.min(n);
    // Column `c` covers values `c·n/width .. (c+1)·n/width`: at least one
    // each, since `width ≤ n`.
    let cols: Vec<u64> = (0..width)
        .map(|c| {
            let take = (c + 1) * n / width - c * n / width;
            values.by_ref().take(take).max().unwrap_or(0)
        })
        .collect();
    let max = cols.iter().copied().max().unwrap_or(0);
    cols.into_iter()
        .map(|v| {
            let level = if max == 0 {
                0
            } else {
                // Nonzero values never map to the blank level.
                let scaled = (v as u128 * (SPARK_RAMP.len() - 1) as u128).div_ceil(max as u128);
                scaled as usize
            };
            SPARK_RAMP[level]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::Samples;

    fn cdf_of(values: Vec<f64>) -> Cdf {
        Cdf::from_samples(&mut Samples::from_vec(values))
    }

    #[test]
    fn plot_contains_markers_and_legend() {
        let a = cdf_of((1..=100).map(|v| v as f64).collect());
        let b = cdf_of((1..=100).map(|v| (v * 3) as f64).collect());
        let s = plot_cdfs(&[("fast".into(), &a), ("slow".into(), &b)], 60, 12);
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("fast"));
        assert!(s.contains("slow"));
        assert!(s.lines().count() >= 14, "grid + axis + legend");
    }

    #[test]
    fn log_axis_kicks_in_for_wide_ranges() {
        let wide = cdf_of(vec![1.0, 10.0, 100.0, 10_000.0]);
        let s = plot_cdfs(&[("wide".into(), &wide)], 40, 8);
        assert!(s.contains("(log x)"));
        let narrow = cdf_of(vec![1.0, 2.0, 3.0]);
        let s = plot_cdfs(&[("narrow".into(), &narrow)], 40, 8);
        assert!(!s.contains("(log x)"));
    }

    #[test]
    fn empty_series_is_graceful() {
        assert_eq!(plot_cdfs(&[], 40, 10), "(no data)\n");
    }

    #[test]
    fn single_value_cdf_renders() {
        let c = cdf_of(vec![5.0]);
        let s = plot_cdfs(&[("point".into(), &c)], 30, 6);
        assert!(s.contains('*'));
    }

    #[test]
    fn sparkline_scales_and_preserves_spikes() {
        let mut v = vec![0u64; 100];
        v[50] = 1000; // a one-sample spike must survive downsampling
        let s = sparkline(v.iter().copied(), 20);
        assert_eq!(s.chars().count(), 20);
        assert!(s.contains('@'), "max maps to the top ramp char: {s:?}");
        let zeros = sparkline([0, 0, 0].into_iter(), 3);
        assert_eq!(zeros, "   ");
        assert_eq!(sparkline([].into_iter(), 10), "");
        // Nonzero values never render blank, however small.
        let tiny = sparkline([1, 1_000_000].into_iter(), 2);
        assert!(!tiny.starts_with(' '), "small nonzero visible: {tiny:?}");
    }
}
