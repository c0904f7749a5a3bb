//! Small text-rendering helpers shared by the experiment reports and the
//! `mb-bench` binaries.

/// A fixed-width text table builder.
///
/// # Examples
///
/// ```
/// use montblanc::report::TextTable;
///
/// let mut t = TextTable::new(vec!["cores".into(), "speedup".into()]);
/// t.row(vec!["4".into(), "4.0".into()]);
/// t.row(vec!["16".into(), "15.1".into()]);
/// let text = t.render();
/// assert!(text.contains("cores"));
/// assert!(text.lines().count() == 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `header` is empty.
    pub fn new(header: Vec<String>) -> Self {
        assert!(!header.is_empty(), "table needs at least one column");
        TextTable {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with per-column width fitting; first column
    /// left-justified, the rest right-justified.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{:<width$}", c, width = widths[0]));
                } else {
                    line.push_str(&format!("  {:>width$}", c, width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Renders an ASCII scatter/line plot of `(x, y)` points — the bench
/// binaries use it for the speedup and bandwidth figures.
///
/// # Panics
///
/// Panics if `points` is empty or `width`/`height` is zero.
pub fn ascii_plot(points: &[(f64, f64)], width: usize, height: usize, label: &str) -> String {
    assert!(!points.is_empty(), "nothing to plot");
    assert!(width > 0 && height > 0, "plot must have positive size");
    let xmax = points.iter().map(|p| p.0).fold(f64::MIN, f64::max);
    let xmin = points.iter().map(|p| p.0).fold(f64::MAX, f64::min);
    let ymax = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let ymin = points.iter().map(|p| p.1).fold(f64::MAX, f64::min).min(0.0);
    let xspan = (xmax - xmin).max(f64::EPSILON);
    let yspan = (ymax - ymin).max(f64::EPSILON);
    let mut grid = vec![vec![' '; width]; height];
    for &(x, y) in points {
        let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col] = '*';
    }
    let mut out = format!("{label}  (y: {ymin:.1}..{ymax:.1}, x: {xmin:.1}..{xmax:.1})\n");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out
}

/// Quarantine-aware completion accounting for a slot campaign.
///
/// A long measurement campaign on failure-prone hardware (the paper's
/// clusters lost nodes routinely) can end three ways per slot:
/// measured, still outstanding, or *quarantined* — fenced off by the
/// supervisor after repeatedly crashing its worker. The headline
/// number "campaign complete" must distinguish "every slot measured"
/// from "every slot accounted for, some fenced", because only the
/// former may be digest-checked against a pinned figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignAccounting {
    /// Total slot count of the campaign.
    pub total: usize,
    /// Slots with a recorded measurement.
    pub completed: usize,
    /// Slots fenced off by the supervisor, ascending. A slot that was
    /// quarantined *and* later measured counts as completed, not here.
    pub quarantined: Vec<usize>,
}

impl CampaignAccounting {
    /// Builds the accounting from the recorded and quarantined slot
    /// sets. Quarantined slots that nonetheless have a record (an
    /// earlier attempt journaled them before the fence went up) are
    /// reclassified as completed.
    ///
    /// # Panics
    ///
    /// Panics when a slot index is out of range — accounting over
    /// foreign slots means the caller mixed up campaigns.
    pub fn new(total: usize, completed_slots: &[usize], quarantined_slots: &[usize]) -> Self {
        let mut seen = vec![false; total];
        for &slot in completed_slots {
            assert!(slot < total, "completed slot {slot} out of range {total}");
            seen[slot] = true;
        }
        let mut quarantined: Vec<usize> = quarantined_slots
            .iter()
            .inspect(|&&slot| assert!(slot < total, "quarantined slot {slot} out of range {total}"))
            .filter(|&&slot| !seen[slot])
            .copied()
            .collect();
        quarantined.sort_unstable();
        quarantined.dedup();
        CampaignAccounting {
            total,
            completed: seen.iter().filter(|&&s| s).count(),
            quarantined,
        }
    }

    /// Slots neither measured nor fenced — the work still to do.
    pub fn outstanding(&self) -> usize {
        self.total - self.completed - self.quarantined.len()
    }

    /// Every slot measured: the only state whose finalized stream may
    /// be checked against a pinned digest.
    pub fn is_full(&self) -> bool {
        self.completed == self.total
    }

    /// One-line human summary, e.g. `14/16 slots (2 quarantined: [5, 9])`.
    pub fn summary(&self) -> String {
        if self.quarantined.is_empty() {
            format!("{}/{} slots", self.completed, self.total)
        } else {
            format!(
                "{}/{} slots ({} quarantined: {:?})",
                self.completed,
                self.total,
                self.quarantined.len(),
                self.quarantined
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let mut t = TextTable::new(vec!["name".into(), "value".into()]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["a-much-longer-name".into(), "123456".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equally wide (trailing spaces aside).
        assert!(lines[1].starts_with('-'));
        assert!(text.contains("a-much-longer-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn mismatched_row_panics() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn plot_contains_points() {
        let pts: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64, i as f64)).collect();
        let p = ascii_plot(&pts, 40, 10, "ideal");
        assert!(p.starts_with("ideal"));
        assert!(p.contains('*'));
        assert_eq!(p.lines().count(), 12);
    }

    #[test]
    #[should_panic(expected = "nothing to plot")]
    fn empty_plot_panics() {
        let _ = ascii_plot(&[], 10, 10, "x");
    }

    #[test]
    fn accounting_distinguishes_full_from_degraded_complete() {
        let full = CampaignAccounting::new(4, &[0, 1, 2, 3], &[]);
        assert!(full.is_full());
        assert_eq!(full.outstanding(), 0);
        assert_eq!(full.summary(), "4/4 slots");

        let degraded = CampaignAccounting::new(4, &[0, 2, 3], &[1]);
        assert!(!degraded.is_full());
        assert_eq!(degraded.outstanding(), 0);
        assert_eq!(degraded.summary(), "3/4 slots (1 quarantined: [1])");

        let running = CampaignAccounting::new(4, &[0], &[1]);
        assert_eq!(running.outstanding(), 2);
    }

    #[test]
    fn accounting_reclassifies_measured_quarantine_as_completed() {
        // Slot 1 was fenced but an earlier attempt journaled it: the
        // measurement wins, quarantine only permits absence.
        let a = CampaignAccounting::new(4, &[0, 1, 2, 3], &[1, 1, 3]);
        assert!(a.quarantined.is_empty());
        assert!(a.is_full());
        // Duplicate and unsorted quarantine input normalizes.
        let b = CampaignAccounting::new(6, &[0, 2], &[5, 3, 5]);
        assert_eq!(b.quarantined, vec![3, 5]);
        assert_eq!(b.outstanding(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn accounting_rejects_foreign_slots() {
        let _ = CampaignAccounting::new(4, &[9], &[]);
    }
}
