//! Dependency-free SVG line charts for the figure rows.
//!
//! An experiment row writes the paper's figures as standalone SVG files
//! beside its CSV (`results/figX.svg`): multi-series line charts with
//! axes, ticks, and a legend.  The writer is deliberately
//! small — axis scaling, polyline generation and text escaping — but
//! fully tested, since broken SVG fails silently in viewers.

use std::fmt::Write as _;
use std::path::Path;

/// One named data series (x shared implicitly: sample index or explicit
/// x-values).
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` samples, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Builds a series from y-values at x = 0, 1, 2, …
    pub(crate) fn from_ys(name: &str, ys: &[f64]) -> Self {
        Series {
            name: name.to_string(),
            points: ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect(),
        }
    }
}

/// Chart configuration.
#[derive(Debug, Clone)]
pub struct ChartConfig {
    /// Chart title.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// Total width in pixels.
    pub width: u32,
    /// Total height in pixels.
    pub height: u32,
}

impl Default for ChartConfig {
    fn default() -> Self {
        ChartConfig {
            title: String::new(),
            x_label: String::new(),
            y_label: String::new(),
            width: 720,
            height: 420,
        }
    }
}

const PALETTE: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
];
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 150.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 48.0;

/// Escapes text for SVG/XML content.
pub(crate) fn escape(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '&' => "&amp;".chars().collect::<Vec<_>>(),
            '<' => "&lt;".chars().collect(),
            '>' => "&gt;".chars().collect(),
            '"' => "&quot;".chars().collect(),
            '\'' => "&apos;".chars().collect(),
            other => vec![other],
        })
        .collect()
}

/// Renders a multi-series line chart to an SVG string.
///
/// # Panics
///
/// Panics if no series contains any point.
pub(crate) fn line_chart(config: &ChartConfig, series: &[Series]) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    assert!(!all.is_empty(), "need at least one data point");
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if (x_max - x_min).abs() < 1e-12 {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < 1e-12 {
        y_max = y_min + 1.0;
    }
    // Pad the y-range slightly and include zero when close.
    let pad = (y_max - y_min) * 0.05;
    let y_lo = if y_min >= 0.0 && y_min < (y_max - y_min) * 0.5 {
        0.0
    } else {
        y_min - pad
    };
    let y_hi = y_max + pad;

    let (w, h) = (config.width as f64, config.height as f64);
    let plot_w = w - MARGIN_L - MARGIN_R;
    let plot_h = h - MARGIN_T - MARGIN_B;
    let sx = |x: f64| MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w;
    let sy = |y: f64| MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h;

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{}" height="{}" viewBox="0 0 {} {}" font-family="sans-serif" font-size="12">"#,
        config.width, config.height, config.width, config.height
    );
    let _ = writeln!(out, r#"<rect width="{w}" height="{h}" fill="white"/>"#);
    // Title.
    let _ = writeln!(
        out,
        r#"<text x="{}" y="20" text-anchor="middle" font-size="14">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        escape(&config.title)
    );
    // Axes.
    let _ = writeln!(
        out,
        r#"<line x1="{MARGIN_L}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        MARGIN_T + plot_h,
        MARGIN_L + plot_w,
        MARGIN_T + plot_h
    );
    let _ = writeln!(
        out,
        r#"<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{}" stroke="black"/>"#,
        MARGIN_T + plot_h
    );
    // Ticks: 5 per axis.
    for k in 0..=5 {
        let fx = x_min + (x_max - x_min) * k as f64 / 5.0;
        let fy = y_lo + (y_hi - y_lo) * k as f64 / 5.0;
        let px = sx(fx);
        let py = sy(fy);
        let _ = writeln!(
            out,
            r#"<line x1="{px}" y1="{}" x2="{px}" y2="{}" stroke="black"/><text x="{px}" y="{}" text-anchor="middle">{}</text>"#,
            MARGIN_T + plot_h,
            MARGIN_T + plot_h + 5.0,
            MARGIN_T + plot_h + 20.0,
            format_tick(fx)
        );
        let _ = writeln!(
            out,
            r#"<line x1="{}" y1="{py}" x2="{MARGIN_L}" y2="{py}" stroke="black"/><text x="{}" y="{}" text-anchor="end">{}</text>"#,
            MARGIN_L - 5.0,
            MARGIN_L - 8.0,
            py + 4.0,
            format_tick(fy)
        );
    }
    // Axis labels.
    let _ = writeln!(
        out,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        h - 8.0,
        escape(&config.x_label)
    );
    let _ = writeln!(
        out,
        r#"<text x="14" y="{}" text-anchor="middle" transform="rotate(-90 14 {})">{}</text>"#,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
        escape(&config.y_label)
    );
    // Series.
    for (k, s) in series.iter().enumerate() {
        if s.points.is_empty() {
            continue;
        }
        let colour = PALETTE[k % PALETTE.len()];
        let path: String = s
            .points
            .iter()
            .map(|&(x, y)| format!("{:.2},{:.2}", sx(x), sy(y)))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            r#"<polyline points="{path}" fill="none" stroke="{colour}" stroke-width="1.5"/>"#
        );
        // Legend entry.
        let ly = MARGIN_T + 16.0 * k as f64;
        let lx = MARGIN_L + plot_w + 10.0;
        let _ = writeln!(
            out,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{colour}" stroke-width="2"/><text x="{}" y="{}">{}</text>"#,
            lx + 18.0,
            lx + 24.0,
            ly + 4.0,
            escape(&s.name)
        );
    }
    out.push_str("</svg>\n");
    out
}

fn format_tick(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Writes a chart to a file in a directory that exists.
pub fn write_chart<P: AsRef<Path>>(
    path: P,
    config: &ChartConfig,
    series: &[Series],
) -> std::io::Result<()> {
    std::fs::write(path, line_chart(config, series))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basic_config() -> ChartConfig {
        ChartConfig {
            title: "t < 5 & \"quoted\"".into(),
            x_label: "time".into(),
            y_label: "load".into(),
            ..Default::default()
        }
    }

    #[test]
    fn escape_covers_xml_specials() {
        assert_eq!(escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn chart_is_wellformed_and_contains_series() {
        let series = vec![
            Series::from_ys("mean", &[1.0, 2.0, 3.0, 2.5]),
            Series::from_ys("max", &[2.0, 3.0, 4.0, 3.5]),
        ];
        let svg = line_chart(&basic_config(), &series);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("mean") && svg.contains("max"));
        // The title is escaped.
        assert!(svg.contains("t &lt; 5 &amp; &quot;quoted&quot;"));
        // Tags balance.
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn flat_series_does_not_divide_by_zero() {
        let svg = line_chart(&basic_config(), &[Series::from_ys("flat", &[5.0, 5.0])]);
        assert!(svg.contains("polyline"));
        assert!(!svg.contains("NaN") && !svg.contains("inf"), "{svg}");
    }

    #[test]
    fn single_point_is_handled() {
        let series = vec![Series {
            name: "dot".into(),
            points: vec![(3.0, 7.0)],
        }];
        let svg = line_chart(&basic_config(), &series);
        assert!(!svg.contains("NaN"));
    }

    #[test]
    #[should_panic(expected = "at least one data point")]
    fn empty_chart_panics() {
        line_chart(
            &basic_config(),
            &[Series {
                name: "empty".into(),
                points: vec![],
            }],
        );
    }

    #[test]
    fn write_chart_makes_no_directory() {
        let dir = std::env::temp_dir().join("dlb_svg_test");
        let series = [Series::from_ys("s", &[1.0, 2.0])];
        let missing = dir.join("sub").join("chart.svg");
        assert!(write_chart(&missing, &basic_config(), &series).is_err());
        assert!(!dir.join("sub").exists());
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chart.svg");
        write_chart(&path, &basic_config(), &series).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("</svg>"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
