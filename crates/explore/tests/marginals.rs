//! The one-pass marginals against their definition: a row aggregates
//! every grid point whose axis value renders as the row's label. The
//! reference below matches labels point by point, re-evaluating the grid
//! directly; the sweep's marginals must equal it field for field, floats
//! compared by bits.

use dg_explore::grid::{self, ConfigPoint};
use dg_explore::spec::fuse_label;
use dg_explore::{AxisMarginal, EvalContext, ExploreSpec, MarginalRow, PointEval};

type LabelOf = fn(&ConfigPoint) -> String;

/// Per-axis marginals by label matching: for each row, scan every point
/// and keep those whose rendered axis value equals the row label.
fn reference_marginals(
    spec: &ExploreSpec,
    frontier_ids: &[u64],
) -> Vec<(String, Vec<MarginalRow>)> {
    let ctx = EvalContext::new(spec);
    let evals: Vec<PointEval> = grid::expand(spec)
        .into_iter()
        .map(|p| ctx.evaluate(p))
        .collect();
    let axes: Vec<(&str, Vec<String>, LabelOf)> = vec![
        (
            "tech_nodes",
            spec.tech_nodes
                .iter()
                .map(|n| n.node_nm.to_string())
                .collect(),
            |p| p.node.node_nm.to_string(),
        ),
        (
            "tdp_w",
            spec.tdp_w.iter().map(|v| format!("{v}")).collect(),
            |p| format!("{}", p.tdp_w),
        ),
        (
            "big_perf",
            spec.big_perf.iter().map(|v| format!("{v}")).collect(),
            |p| format!("{}", p.big_perf),
        ),
        (
            "small_perf",
            spec.small_perf.iter().map(|v| format!("{v}")).collect(),
            |p| format!("{}", p.small_perf),
        ),
        (
            "fraction_parallelism",
            spec.fraction_parallelism
                .iter()
                .map(|v| format!("{v}"))
                .collect(),
            |p| format!("{}", p.fraction_parallelism),
        ),
        (
            "fuse",
            spec.fuse
                .iter()
                .map(|v| fuse_label(*v).to_owned())
                .collect(),
            |p| fuse_label(p.fuse).to_owned(),
        ),
        (
            "guardband",
            spec.guardband
                .iter()
                .map(|g| g.label().to_owned())
                .collect(),
            |p| p.guardband.label().to_owned(),
        ),
    ];
    axes.into_iter()
        .map(|(axis, values, label_of)| {
            let rows = values
                .iter()
                .map(|value| {
                    let mut row = MarginalRow {
                        value: value.clone(),
                        points: 0,
                        feasible: 0,
                        frontier_points: 0,
                        best_speedup: 0.0,
                        min_power_w: 0.0,
                        min_dark_ratio: 1.0,
                    };
                    let mut min_power = f64::INFINITY;
                    for e in evals.iter().filter(|e| label_of(&e.point) == *value) {
                        row.points += 1;
                        if !e.feasible {
                            continue;
                        }
                        row.feasible += 1;
                        row.best_speedup = row.best_speedup.max(e.speedup);
                        min_power = min_power.min(e.power_w);
                        row.min_dark_ratio = row.min_dark_ratio.min(e.dark_ratio);
                        if frontier_ids.binary_search(&e.point.id).is_ok() {
                            row.frontier_points += 1;
                        }
                    }
                    if min_power.is_finite() {
                        row.min_power_w = min_power;
                    }
                    row
                })
                .collect();
            (axis.to_owned(), rows)
        })
        .collect()
}

/// Runs the sweep and asserts its marginals equal the reference; returns
/// the (total, feasible) point counts for the caller's own checks.
fn assert_marginals_match(text: &str) -> (u64, u64) {
    let spec = ExploreSpec::from_text(text).expect("valid spec");
    let result = dg_explore::run(&spec).expect("sweep runs");
    let frontier_ids: Vec<u64> = result.frontier.iter().map(|f| f.eval.point.id).collect();
    let want = reference_marginals(&spec, &frontier_ids);
    assert_eq!(result.marginals.len(), want.len(), "axis count");
    for (AxisMarginal { axis, rows }, (want_axis, want_rows)) in result.marginals.iter().zip(&want)
    {
        assert_eq!(axis, want_axis);
        assert_eq!(rows.len(), want_rows.len(), "{axis}: row count");
        for (got, exp) in rows.iter().zip(want_rows) {
            let at = format!("{axis} = {}", exp.value);
            assert_eq!(got.value, exp.value, "{at}: label");
            assert_eq!(got.points, exp.points, "{at}: points");
            assert_eq!(got.feasible, exp.feasible, "{at}: feasible");
            assert_eq!(got.frontier_points, exp.frontier_points, "{at}: frontier");
            assert_eq!(
                got.best_speedup.to_bits(),
                exp.best_speedup.to_bits(),
                "{at}: best speedup"
            );
            assert_eq!(
                got.min_power_w.to_bits(),
                exp.min_power_w.to_bits(),
                "{at}: min power"
            );
            assert_eq!(
                got.min_dark_ratio.to_bits(),
                exp.min_dark_ratio.to_bits(),
                "{at}: min dark ratio"
            );
        }
    }
    (result.total_points, result.feasible_points)
}

#[test]
fn charm_full_marginals_match_label_matching() {
    let (total, _) = assert_marginals_match(include_str!("../specs/charm_full.json"));
    assert_eq!(total, 14_400);
}

/// Small cores faster than the big core, a die too small for the larger
/// big cores, and a 1 W TDP no big core fits: rows with and without
/// feasible points, at the identity order and a shuffled one.
const INFEASIBLE: &str = r#"{"seed":SEED,"chip_area_mm2":40,
    "tech_nodes":[45,16],"tdp_w":[1,35,91],"big_perf":[5,20,45],
    "small_perf":[2,10,30],"fraction_parallelism":[0.99,0.9],"batch":16}"#;

#[test]
fn marginals_with_infeasible_points_match_label_matching() {
    for seed in ["0", "13"] {
        let (total, feasible) = assert_marginals_match(&INFEASIBLE.replace("SEED", seed));
        assert!(feasible > 0, "seed {seed}: some points are buildable");
        assert!(feasible < total, "seed {seed}: some points are infeasible");
    }
    // The 1 W row has no feasible point, so it reports the 0 W / ratio 1
    // defaults.
    let spec = ExploreSpec::from_text(&INFEASIBLE.replace("SEED", "0")).expect("valid spec");
    let result = dg_explore::run(&spec).expect("sweep runs");
    let tdp = result
        .marginals
        .iter()
        .find(|m| m.axis == "tdp_w")
        .expect("tdp axis");
    let one_watt = tdp.rows.iter().find(|r| r.value == "1").expect("1 W row");
    assert!(one_watt.points > 0);
    assert_eq!(one_watt.feasible, 0);
    assert_eq!(one_watt.min_power_w.to_bits(), 0.0f64.to_bits());
    assert_eq!(one_watt.min_dark_ratio.to_bits(), 1.0f64.to_bits());
}

#[test]
fn single_value_axes_match_label_matching() {
    let (total, _) = assert_marginals_match(
        r#"{"tech_nodes":[22],"tdp_w":[65],"big_perf":[20],"small_perf":[4],
        "fraction_parallelism":[0.95],"fuse":["bypassed"],"guardband":["full"]}"#,
    );
    assert_eq!(total, 1);
    // Single-value axes between multi-value ones leave the digits intact.
    assert_marginals_match(
        r#"{"seed":5,"tech_nodes":[45,8],"tdp_w":[65],"big_perf":[10,30],"small_perf":[4],
        "fraction_parallelism":[0.99,0.9,0.8],"fuse":["gated"],"guardband":["none","full"],
        "batch":16}"#,
    );
}
