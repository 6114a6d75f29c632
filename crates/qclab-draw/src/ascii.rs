//! Terminal (Unicode box-drawing) circuit rendering — QCLAB's `draw`
//! command (paper Sec. 4).
//!
//! Each qubit occupies three text rows (box top, wire, box bottom); items
//! are placed by the shared [`crate::layout`](mod@crate::layout) and connected with vertical
//! lines, producing the "musical score" diagrams the paper shows in the
//! MATLAB command window.

use crate::layout::{layout, Glyph, Layout, PlacedItem};
use qclab_core::QCircuit;

/// Cell classification used to pick connector characters.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Empty,
    Wire,
    BoxTop,
    BoxBottom,
    Inside,
    Symbol,
}

struct Canvas {
    chars: Vec<Vec<char>>,
    kinds: Vec<Vec<Kind>>,
}

impl Canvas {
    fn new(rows: usize, width: usize) -> Self {
        Canvas {
            chars: vec![vec![' '; width]; rows],
            kinds: vec![vec![Kind::Empty; width]; rows],
        }
    }

    fn put(&mut self, y: usize, x: usize, ch: char, kind: Kind) {
        self.chars[y][x] = ch;
        self.kinds[y][x] = kind;
    }
}

/// Width in columns a glyph needs.
fn glyph_width(g: &Glyph) -> usize {
    match g {
        Glyph::Box(label) => label.chars().count() + 4,
        Glyph::Meter(basis) => meter_label(basis).chars().count() + 4,
        Glyph::Reset => 3 + 4,
        Glyph::Control(_) | Glyph::Cross | Glyph::Barrier => 1,
    }
}

fn meter_label(basis: &str) -> String {
    if basis.is_empty() {
        "M".to_string()
    } else {
        format!("M{basis}")
    }
}

fn item_width(item: &PlacedItem) -> usize {
    if let Some(label) = &item.big_box {
        return label.chars().count() + 4;
    }
    item.glyphs.values().map(glyph_width).max().unwrap_or(1)
}

/// Draws a box spanning wires `q_lo..=q_hi`, centered at `xc`, and
/// returns nothing; the label is centered on the middle wire row.
#[allow(clippy::too_many_arguments)]
fn draw_box(canvas: &mut Canvas, q_lo: usize, q_hi: usize, xc: usize, label: &str) {
    let w = label.chars().count() + 4;
    let xl = xc - w / 2;
    let xr = xl + w - 1;
    let y_top = 3 * q_lo;
    let y_bot = 3 * q_hi + 2;

    for x in xl..=xr {
        let (tc, bc) = if x == xl {
            ('┌', '└')
        } else if x == xr {
            ('┐', '┘')
        } else {
            ('─', '─')
        };
        canvas.put(y_top, x, tc, Kind::BoxTop);
        canvas.put(y_bot, x, bc, Kind::BoxBottom);
    }
    for y in y_top + 1..y_bot {
        for x in xl..=xr {
            let is_wire_row = (y % 3) == 1;
            if x == xl {
                canvas.put(y, x, if is_wire_row { '┤' } else { '│' }, Kind::Symbol);
            } else if x == xr {
                canvas.put(y, x, if is_wire_row { '├' } else { '│' }, Kind::Symbol);
            } else {
                canvas.put(y, x, ' ', Kind::Inside);
            }
        }
    }
    // center the label on the middle wire row of the span
    let mid_q = (q_lo + q_hi) / 2;
    let y_label = 3 * mid_q + 1;
    let start = xc - label.chars().count() / 2;
    for (i, ch) in label.chars().enumerate() {
        canvas.put(y_label, start + i, ch, Kind::Inside);
    }
}

/// Renders a laid-out circuit to text.
pub fn render(l: &Layout) -> String {
    let margin = format!("q{}: ", l.nb_qubits - 1).chars().count();
    const GAP: usize = 1;
    const MIN_COL: usize = 3;

    // column widths
    let mut col_w = vec![MIN_COL; l.nb_columns.max(1)];
    for item in &l.items {
        col_w[item.column] = col_w[item.column].max(item_width(item));
    }
    // x position of each column
    let mut col_x = Vec::with_capacity(col_w.len());
    let mut x = margin + GAP;
    for w in &col_w {
        col_x.push(x);
        x += w + GAP;
    }
    let width = x + GAP;
    let rows = 3 * l.nb_qubits;
    let mut canvas = Canvas::new(rows, width);

    // wires
    for q in 0..l.nb_qubits {
        let y = 3 * q + 1;
        for xx in margin..width {
            canvas.put(y, xx, '─', Kind::Wire);
        }
        let label = format!("q{q}: ");
        for (i, ch) in label.chars().enumerate() {
            canvas.put(y, i, ch, Kind::Symbol);
        }
    }

    // items: boxes and symbols first
    for item in &l.items {
        let xc = col_x[item.column] + col_w[item.column] / 2;
        if let Some(label) = &item.big_box {
            draw_box(&mut canvas, item.span.0, item.span.1, xc, label);
            continue;
        }
        for (&q, glyph) in &item.glyphs {
            let y = 3 * q + 1;
            match glyph {
                Glyph::Box(label) => draw_box(&mut canvas, q, q, xc, label),
                Glyph::Meter(basis) => draw_box(&mut canvas, q, q, xc, &meter_label(basis)),
                Glyph::Reset => draw_box(&mut canvas, q, q, xc, "|0>"),
                Glyph::Control(filled) => {
                    canvas.put(y, xc, if *filled { '●' } else { '○' }, Kind::Symbol)
                }
                Glyph::Cross => canvas.put(y, xc, '×', Kind::Symbol),
                Glyph::Barrier => {
                    canvas.put(y, xc, '╫', Kind::Symbol);
                    canvas.put(y - 1, xc, '║', Kind::Symbol);
                    canvas.put(y + 1, xc, '║', Kind::Symbol);
                }
            }
        }
        // connector between the outermost glyph wires
        if item.span.1 > item.span.0 && item.glyphs.len() > 1 {
            let y_lo = 3 * item.span.0 + 1;
            let y_hi = 3 * item.span.1 + 1;
            for y in y_lo + 1..y_hi {
                let ch = match canvas.kinds[y][xc] {
                    Kind::Empty => '│',
                    Kind::Wire => '┼',
                    Kind::BoxTop => '┴',
                    Kind::BoxBottom => '┬',
                    Kind::Inside | Kind::Symbol => continue,
                };
                canvas.put(y, xc, ch, Kind::Symbol);
            }
        }
    }

    let mut out = String::with_capacity(rows * width);
    for row in &canvas.chars {
        let line: String = row.iter().collect();
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Draws a circuit as terminal art (QCLAB's `circuit.draw()`).
pub fn draw_circuit(circuit: &QCircuit) -> String {
    render(&layout(circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qclab_core::gates::factories::*;
    use qclab_core::Measurement;

    fn bell() -> QCircuit {
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(CNOT::new(0, 1));
        c.push_back(Measurement::z(0));
        c.push_back(Measurement::z(1));
        c
    }

    #[test]
    fn paper_circuit_rendering_structure() {
        let art = draw_circuit(&bell());
        assert!(art.contains("┤ H ├"), "missing H box:\n{art}");
        assert!(art.contains("┤ X ├"), "missing CNOT target box:\n{art}");
        assert!(art.contains("┤ M ├"), "missing measurement boxes:\n{art}");
        assert!(art.contains('●'), "missing control dot:\n{art}");
        assert!(art.contains("q0: ") && art.contains("q1: "));
    }

    #[test]
    fn control_dot_aligns_with_target_connector() {
        let art = draw_circuit(&bell());
        let lines: Vec<&str> = art.lines().collect();
        let dot_x = lines[1].chars().position(|c| c == '●').unwrap();
        // the connector entering the target box top edge sits below the dot
        let top_edge: Vec<char> = lines[3].chars().collect();
        assert_eq!(top_edge[dot_x], '┴', "connector misaligned:\n{art}");
        let wire1: Vec<char> = lines[4].chars().collect();
        // the X label is centered above the same column
        assert_eq!(wire1[dot_x], 'X');
    }

    #[test]
    fn nonadjacent_gate_crosses_middle_wire() {
        let mut c = QCircuit::new(3);
        c.push_back(CNOT::new(0, 2));
        let art = draw_circuit(&c);
        let lines: Vec<&str> = art.lines().collect();
        let dot_x = lines[1].chars().position(|c| c == '●').unwrap();
        let mid_wire: Vec<char> = lines[4].chars().collect();
        assert_eq!(
            mid_wire[dot_x], '┼',
            "middle wire should be crossed:\n{art}"
        );
    }

    #[test]
    fn open_control_renders_hollow_dot() {
        let mut c = QCircuit::new(2);
        c.push_back(CNOT::with_control_state(0, 1, 0));
        let art = draw_circuit(&c);
        assert!(art.contains('○'));
    }

    #[test]
    fn swap_and_barrier_and_reset() {
        let mut c = QCircuit::new(2);
        c.push_back(SwapGate::new(0, 1));
        c.push_back(qclab_core::CircuitItem::Barrier(vec![0, 1]));
        c.push_back(qclab_core::CircuitItem::Reset(0));
        let art = draw_circuit(&c);
        assert_eq!(art.matches('×').count(), 2);
        assert!(art.contains('╫'));
        assert!(art.contains("|0>"));
    }

    #[test]
    fn block_draws_as_named_box() {
        let mut oracle = QCircuit::new(2);
        oracle.push_back(CZ::new(0, 1));
        oracle.as_block("oracle");
        let mut c = QCircuit::new(2);
        c.push_back(Hadamard::new(0));
        c.push_back(oracle);
        let art = draw_circuit(&c);
        assert!(art.contains("oracle"), "missing block label:\n{art}");
        // block box spans both wires: left edge appears on both wire rows
        let lines: Vec<&str> = art.lines().collect();
        let label_x = lines.iter().find_map(|l| l.find("oracle")).unwrap();
        let _ = label_x;
        assert!(art.matches('┤').count() >= 3); // H box + both block wire entries
    }

    #[test]
    fn measurement_basis_shown_in_box() {
        let mut c = QCircuit::new(1);
        c.push_back(Measurement::x(0));
        let art = draw_circuit(&c);
        assert!(art.contains("Mx"), "basis label missing:\n{art}");
    }

    #[test]
    fn rotation_gate_label() {
        let mut c = QCircuit::new(1);
        c.push_back(RotationX::new(0, 1.0));
        let art = draw_circuit(&c);
        assert!(art.contains("RX"));
    }

    #[test]
    fn every_line_is_trimmed() {
        let art = draw_circuit(&bell());
        for line in art.lines() {
            assert_eq!(line, line.trim_end());
        }
    }
}
