//! Rendering traffic-flow estimates (Figure 9 of the paper).
//!
//! "The results are plotted on a visual display and shaded according to
//! their value. High values obtain a red colour while low values obtain
//! green colour." This module maps vertex values to a green→red ramp and
//! renders them as a PPM image (dots at vertex coordinates) or a compact
//! ASCII heat map for terminal output.

use crate::graph::Graph;

/// An RGB colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rgb(pub u8, pub u8, pub u8);

/// Maps `value ∈ [lo, hi]` onto the green→yellow→red ramp of Figure 9.
/// Values outside the range clamp to the endpoints.
pub(crate) fn green_to_red(value: f64, lo: f64, hi: f64) -> Rgb {
    let t = if hi > lo { ((value - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.5 };
    // green (0,200,0) -> yellow (230,230,0) -> red (220,0,0)
    if t < 0.5 {
        let u = t * 2.0;
        Rgb((230.0 * u) as u8, (200.0 + 30.0 * u) as u8, 0)
    } else {
        let u = (t - 0.5) * 2.0;
        Rgb((230.0 - 10.0 * u) as u8, (230.0 * (1.0 - u)) as u8, 0)
    }
}

/// Renders per-vertex values as a PPM (P3) image: white background, one
/// filled square dot per vertex, coloured by value.
pub fn render_ppm(
    graph: &Graph,
    values: &[(usize, f64)],
    width: usize,
    height: usize,
    dot_radius: usize,
) -> String {
    let mut pixels = vec![Rgb(255, 255, 255); width * height];
    if graph.is_empty() || values.is_empty() || width == 0 || height == 0 {
        return to_ppm(&pixels, width, height);
    }

    let (min_x, max_x, min_y, max_y) = bounds(graph);
    let lo = values.iter().map(|v| v.1).fold(f64::INFINITY, f64::min);
    let hi = values.iter().map(|v| v.1).fold(f64::NEG_INFINITY, f64::max);

    let project = |x: f64, y: f64| -> (usize, usize) {
        let px = if max_x > min_x { (x - min_x) / (max_x - min_x) } else { 0.5 };
        let py = if max_y > min_y { (y - min_y) / (max_y - min_y) } else { 0.5 };
        (
            (px * (width.saturating_sub(1)) as f64).round() as usize,
            // flip y: north up
            ((1.0 - py) * (height.saturating_sub(1)) as f64).round() as usize,
        )
    };

    for &(v, value) in values {
        if v >= graph.len() {
            continue;
        }
        let (x, y) = graph.coords(v);
        let (cx, cy) = project(x, y);
        let colour = green_to_red(value, lo, hi);
        let r = dot_radius as isize;
        for dy in -r..=r {
            for dx in -r..=r {
                let px = cx as isize + dx;
                let py = cy as isize + dy;
                if px >= 0 && py >= 0 && (px as usize) < width && (py as usize) < height {
                    pixels[py as usize * width + px as usize] = colour;
                }
            }
        }
    }
    to_ppm(&pixels, width, height)
}

fn bounds(graph: &Graph) -> (f64, f64, f64, f64) {
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for &(x, y) in graph.all_coords() {
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    (min_x, max_x, min_y, max_y)
}

fn to_ppm(pixels: &[Rgb], width: usize, height: usize) -> String {
    let mut out = String::with_capacity(pixels.len() * 12 + 32);
    out.push_str(&format!("P3\n{width} {height}\n255\n"));
    for row in pixels.chunks(width.max(1)) {
        for p in row {
            out.push_str(&format!("{} {} {} ", p.0, p.1, p.2));
        }
        out.push('\n');
    }
    out
}

/// Renders per-vertex values as an ASCII heat map (`.` = no vertex,
/// `0`–`9` = low→high), suitable for terminal output.
pub fn render_ascii(graph: &Graph, values: &[(usize, f64)], width: usize, height: usize) -> String {
    let mut cells = vec![None::<f64>; width * height];
    if graph.is_empty() || values.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    let (min_x, max_x, min_y, max_y) = bounds(graph);
    let lo = values.iter().map(|v| v.1).fold(f64::INFINITY, f64::min);
    let hi = values.iter().map(|v| v.1).fold(f64::NEG_INFINITY, f64::max);
    for &(v, value) in values {
        if v >= graph.len() {
            continue;
        }
        let (x, y) = graph.coords(v);
        let px = if max_x > min_x { (x - min_x) / (max_x - min_x) } else { 0.5 };
        let py = if max_y > min_y { (y - min_y) / (max_y - min_y) } else { 0.5 };
        let cx = (px * (width - 1) as f64).round() as usize;
        let cy = ((1.0 - py) * (height - 1) as f64).round() as usize;
        let cell = &mut cells[cy * width + cx];
        // Several vertices may fall in one cell: keep the max (worst traffic).
        *cell = Some(cell.map_or(value, |prev: f64| prev.max(value)));
    }
    let mut out = String::with_capacity((width + 1) * height);
    for row in cells.chunks(width) {
        for cell in row {
            match cell {
                None => out.push('.'),
                Some(v) => {
                    let t = if hi > lo { ((v - lo) / (hi - lo)).clamp(0.0, 1.0) } else { 0.5 };
                    let digit = (t * 9.0).round() as u32;
                    out.push(char::from_digit(digit, 10).expect("0..=9"));
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_endpoints() {
        assert_eq!(green_to_red(0.0, 0.0, 1.0), Rgb(0, 200, 0));
        let red = green_to_red(1.0, 0.0, 1.0);
        assert!(red.0 > 200 && red.1 == 0, "high end is red, got {red:?}");
        let mid = green_to_red(0.5, 0.0, 1.0);
        assert!(mid.0 > 200 && mid.1 > 200, "midpoint is yellow, got {mid:?}");
    }

    #[test]
    fn ramp_clamps_and_handles_degenerate_range() {
        assert_eq!(green_to_red(-5.0, 0.0, 1.0), green_to_red(0.0, 0.0, 1.0));
        assert_eq!(green_to_red(5.0, 0.0, 1.0), green_to_red(1.0, 0.0, 1.0));
        let _ = green_to_red(3.0, 3.0, 3.0); // must not panic / divide by zero
    }

    #[test]
    fn ppm_has_header_and_size() {
        let g = Graph::grid(3, 3);
        let values: Vec<(usize, f64)> = (0..9).map(|v| (v, v as f64)).collect();
        let ppm = render_ppm(&g, &values, 30, 20, 1);
        assert!(ppm.starts_with("P3\n30 20\n255\n"));
        // 20 pixel rows + 3 header lines
        assert_eq!(ppm.lines().count(), 23);
    }

    #[test]
    fn ppm_colours_extremes_differently() {
        let g = Graph::grid(2, 1);
        let ppm_text = render_ppm(&g, &[(0, 0.0), (1, 100.0)], 10, 3, 0);
        assert!(ppm_text.contains("0 200 0"), "low vertex green");
        assert!(ppm_text.contains("220 0 0"), "high vertex red");
    }

    #[test]
    fn ascii_shape_and_symbols() {
        let g = Graph::grid(5, 1);
        let values: Vec<(usize, f64)> = (0..5).map(|v| (v, v as f64)).collect();
        let art = render_ascii(&g, &values, 5, 1);
        assert_eq!(art, "02579\n".to_string());
    }

    #[test]
    fn empty_inputs_are_safe() {
        let g = Graph::new(vec![(0.0, 0.0); 0], &[]).unwrap();
        assert!(render_ascii(&g, &[], 5, 5).is_empty());
        let ppm = render_ppm(&g, &[], 4, 4, 1);
        assert!(ppm.starts_with("P3\n4 4\n"));
    }
}
