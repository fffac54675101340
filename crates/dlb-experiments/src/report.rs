//! Plain-text rendering (tables, line plots) and CSV output for the
//! experiment binaries.

use std::io::Write;
use std::path::Path;

/// Renders an aligned ASCII table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
        out.push('\n');
    }
    out
}

/// Renders one or more named series as a crude ASCII line plot
/// (`height` rows, one column per sample; series are marked with
/// distinct glyphs, collisions show the later series).
pub fn ascii_plot(series: &[(&str, &[f64])], height: usize) -> String {
    const GLYPHS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    assert!(
        !series.is_empty() && height >= 2,
        "need data and height >= 2"
    );
    let width = series
        .iter()
        .map(|(_, s)| s.len())
        .max()
        .expect("non-empty");
    let lo = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .fold(f64::INFINITY, f64::min);
    let hi = series
        .iter()
        .flat_map(|(_, s)| s.iter().copied())
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if (hi - lo).abs() < 1e-12 {
        1.0
    } else {
        hi - lo
    };
    let mut grid = vec![vec![' '; width]; height];
    for (k, (_, s)) in series.iter().enumerate() {
        let glyph = GLYPHS[k % GLYPHS.len()];
        for (x, &v) in s.iter().enumerate() {
            // `v` lies in [lo, hi], so `y` is at most `height - 1`.
            #[allow(clippy::cast_possible_truncation)]
            let y = ((v - lo) / span * (height - 1) as f64).round() as usize;
            grid[height - 1 - y][x] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("max = {hi:.4}\n"));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("min = {lo:.4}   legend: "));
    for (k, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("{}={} ", GLYPHS[k % GLYPHS.len()], name));
    }
    out.push('\n');
    out
}

/// Writes rows as CSV (creating parent directories as needed).
pub fn write_csv<P: AsRef<Path>>(
    path: P,
    headers: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "{}", headers.join(","))?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(())
}

/// Convenience: formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("long-name"));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn plot_contains_extremes_and_legend() {
        let data = [1.0, 2.0, 3.0, 2.0, 1.0];
        let out = ascii_plot(&[("loads", &data)], 5);
        assert!(out.contains("max = 3.0000"));
        assert!(out.contains("min = 1.0000"));
        assert!(out.contains("*=loads"));
    }

    #[test]
    fn plot_flat_series_does_not_divide_by_zero() {
        let data = [2.0, 2.0, 2.0];
        let out = ascii_plot(&[("flat", &data)], 3);
        assert!(out.contains("max = 2.0000"));
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("dlb_report_test");
        let path = dir.join("nested").join("out.csv");
        write_csv(&path, &["t", "mean"], &[vec!["0".into(), "1.5".into()]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "t,mean\n0,1.5\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
