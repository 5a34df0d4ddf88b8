//! Benchmark harness regenerating every figure of the BMcast evaluation.
//!
//! One module per figure. Each exposes `run(scale) -> Figure`, where
//! [`Scale`] trades image size / run length for wall-clock time:
//! [`Scale::Paper`] uses the paper's parameters (32-GB image, 20-minute
//! database runs), [`Scale::Quick`] shrinks them for CI and Criterion
//! while preserving every mechanism.
//!
//! The measured fleet experiments (`ext_scaleout`, `ext_transport`,
//! `ext_elasticity`) share one harness, [`experiment`]: worker pool,
//! digest, rerun lock and `BENCH_*.json` writer. The `reproduce` binary
//! prints figures and the paper-vs-measured comparison table recorded
//! in `EXPERIMENTS.md`.

pub mod ext_ablation;
pub mod ext_elasticity;
pub mod ext_scaleout;
pub mod ext_transport;
pub mod experiment;
pub mod faults;
pub mod fig04_startup;
pub mod fig05_database;
pub mod fig06_mpi;
pub mod fig07_kernbench;
pub mod fig08_threads;
pub mod fig09_memory;
pub mod fig10_storage_tput;
pub mod fig11_storage_lat;
pub mod fig12_ib_tput;
pub mod fig13_ib_lat;
pub mod fig14_moderation;
pub mod flight;
pub mod obs;
pub mod telemetry;

use std::fmt;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's parameters.
    #[default]
    Paper,
    /// Shrunk for fast iteration; same mechanisms, same shape.
    Quick,
}

/// One reproduced figure: labeled rows of named series values.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id, e.g. `"fig04"`.
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Unit of the values.
    pub unit: &'static str,
    /// Rows (x-axis points or bars).
    pub rows: Vec<Row>,
    /// Paper-vs-measured checks for the experiment log.
    pub checks: Vec<Check>,
}

/// One row of a figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (bar name or x value).
    pub label: String,
    /// `(series name, value)` pairs.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Builds a row.
    pub fn new(label: impl Into<String>, values: Vec<(String, f64)>) -> Row {
        Row {
            label: label.into(),
            values,
        }
    }
}

/// A paper-vs-measured comparison point.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is being compared.
    pub metric: String,
    /// The paper's reported value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit for display.
    pub unit: &'static str,
}

impl Check {
    /// Builds a check.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Check {
        Check {
            metric: metric.into(),
            paper,
            measured,
            unit,
        }
    }

    /// Relative deviation from the paper value (0.0 = exact).
    pub fn deviation(&self) -> f64 {
        if self.paper == 0.0 {
            return self.measured.abs();
        }
        (self.measured - self.paper).abs() / self.paper.abs()
    }
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} [{}] ==", self.id, self.title, self.unit)?;
        // Collect the full series set, in first-appearance order.
        let mut series: Vec<&str> = Vec::new();
        for row in &self.rows {
            for (name, _) in &row.values {
                if !series.contains(&name.as_str()) {
                    series.push(name);
                }
            }
        }
        write!(f, "{:<26}", "")?;
        for s in &series {
            write!(f, "{s:>14}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<26}", row.label)?;
            for s in &series {
                match row.values.iter().find(|(n, _)| n == s) {
                    Some((_, v)) => write!(f, "{v:>14.2}")?,
                    None => write!(f, "{:>14}", "-")?,
                }
            }
            writeln!(f)?;
        }
        if !self.checks.is_empty() {
            writeln!(f, "  paper vs measured:")?;
            for c in &self.checks {
                writeln!(
                    f,
                    "    {:<44} paper {:>9.2} {:<6} measured {:>9.2} {:<6} ({:+.1}%)",
                    c.metric,
                    c.paper,
                    c.unit,
                    c.measured,
                    c.unit,
                    (c.measured - c.paper) / if c.paper != 0.0 { c.paper } else { 1.0 } * 100.0
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_renders_all_series() {
        let fig = Figure {
            id: "figXX",
            title: "demo",
            unit: "s",
            rows: vec![
                Row::new("a", vec![("x".into(), 1.0), ("y".into(), 2.0)]),
                Row::new("b", vec![("y".into(), 3.0)]),
            ],
            checks: vec![Check::new("a.x", 1.0, 1.1, "s")],
        };
        let s = fig.to_string();
        assert!(s.contains("figXX"));
        assert!(s.contains("x") && s.contains("y"));
        assert!(s.contains("+10.0%"));
    }

    #[test]
    fn check_deviation() {
        assert!((Check::new("m", 100.0, 110.0, "s").deviation() - 0.1).abs() < 1e-12);
        assert_eq!(Check::new("m", 0.0, 0.5, "s").deviation(), 0.5);
    }
}
