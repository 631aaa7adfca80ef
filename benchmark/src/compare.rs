//! `compare A.json B.json`: hold two result sets of the all-workloads form
//! against each end-to-end metric's bound.

use crate::stats::{median, spread};
use fedzkt_fl::json::{parse, Value};
use std::path::Path;
use std::process::ExitCode;

/// How one (workload, metric) pair moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound, or every run
    /// of B reads better than every run of A.
    Improved,
    /// Within the bound either way, and both sets are steady enough to
    /// say so.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The rep spread `(max − min) / median` of A or B exceeds the bound:
    /// the sets cannot resolve a change this small.
    Unresolved,
}

/// Judge one metric from its per-rep values. `bound` is a share of A's
/// median; an exact metric (`bound == 0`) must not move at all.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (mid_a, mid_b) = (median(a), median(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mid_b - mid_a) / mid_a.abs().max(f64::MIN_POSITIVE);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    if worse_by > bound {
        Verdict::Regressed
    } else if all_better {
        Verdict::Improved
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn numbers(v: &Value) -> Option<Vec<f64>> {
    v.as_array()?.iter().map(|x| x.as_number()?.parse().ok()).collect()
}

fn load(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (text_a, text_b) = (load(a)?, load(b)?);
    let doc_a = parse(&text_a).map_err(|e| format!("{}: {e}", a.display()))?;
    let doc_b = parse(&text_b).map_err(|e| format!("{}: {e}", b.display()))?;
    let workloads = |doc: &Value| -> Result<Vec<String>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or("not a result set: no \"workloads\" object")?
            .iter()
            .map(|(name, _)| name.to_string())
            .collect())
    };
    let mut clean = true;
    println!(
        "{:<12} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for name in workloads(&doc_a)? {
        let side = |doc| Value::get(doc, "workloads").and_then(|w| w.get(&name));
        let (Some(wa), Some(wb)) = (side(&doc_a), side(&doc_b)) else {
            return Err(format!("workload {name} is missing from {}", b.display()));
        };
        let metrics =
            wa.get("end_to_end").and_then(Value::as_object).ok_or("no end_to_end object")?;
        for (metric, ma) in metrics {
            let mb = wb
                .get("end_to_end")
                .and_then(|m| m.get(metric))
                .ok_or(format!("{name}.{metric} is missing from {}", b.display()))?;
            let values = |m: &Value| m.get("values").and_then(numbers).filter(|v| !v.is_empty());
            let (Some(va), Some(vb)) = (values(ma), values(mb)) else {
                return Err(format!("{name}.{metric} has no values"));
            };
            let bound: f64 = ma
                .get("bound")
                .and_then(Value::as_number)
                .and_then(|n| n.parse().ok())
                .ok_or(format!("{name}.{metric} has no bound"))?;
            let lower = ma.get("better").and_then(Value::as_str) != Some("higher");
            let verdict = judge(&va, &vb, lower, bound);
            clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
            let (mid_a, mid_b) = (median(&va), median(&vb));
            println!(
                "{name:<12} {metric:<12} {mid_a:>14.6} {mid_b:>14.6} {:>+8.2}% {:>6.1}%  {verdict:?}",
                100.0 * (mid_b - mid_a) / mid_a,
                100.0 * bound
            );
        }
        // Failures are exact: any new failed operation is a regression.
        let fail_share = |w: &Value| -> Option<f64> {
            w.get("fail_share").and_then(Value::as_number)?.parse().ok()
        };
        let (fa, fb) =
            (fail_share(wa).ok_or("no fail_share")?, fail_share(wb).ok_or("no fail_share")?);
        let verdict = judge(&[fa], &[fb], true, 0.0);
        clean &= matches!(verdict, Verdict::Improved | Verdict::Unchanged);
        println!(
            "{name:<12} {:<12} {fa:>14.6} {fb:>14.6} {:>9} {:>6.1}%  {verdict:?}",
            "fail_share", "", 0.0
        );
    }
    Ok(clean)
}

/// Entry point of the `compare` subcommand: exit 0 when every metric of
/// every workload is `Improved` or `Unchanged`.
pub fn main(a: &Path, b: &Path) -> ExitCode {
    match compare(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("at least one metric regressed or could not be resolved");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            judge(&steady, &[10.2, 10.3, 10.1, 10.2, 10.25], true, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(judge(&steady, &[11.5, 11.6, 11.4, 11.5, 11.5], true, 0.10), Verdict::Regressed);
        assert_eq!(judge(&steady, &[8.0, 8.1, 7.9, 8.0, 8.0], true, 0.10), Verdict::Improved);
        // Same medians, but one set swings by 30 %: no verdict at 10 %.
        assert_eq!(judge(&steady, &[9.0, 10.0, 12.0, 10.0, 10.1], true, 0.10), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(judge(&[10.0, 12.0, 13.0], &[7.0, 8.0, 9.9], true, 0.10), Verdict::Improved);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&[0.80, 0.80], &[0.60, 0.60], false, 0.10), Verdict::Regressed);
        assert_eq!(judge(&[0.80, 0.80], &[0.81, 0.81], false, 0.10), Verdict::Improved);
    }

    #[test]
    fn an_exact_metric_may_not_move() {
        assert_eq!(judge(&[5.0, 5.0], &[5.0, 5.0], true, 0.0), Verdict::Unchanged);
        assert_eq!(judge(&[5.0, 5.0], &[5.0001, 5.0001], true, 0.0), Verdict::Regressed);
    }
}
