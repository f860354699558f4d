//! Runs the `e2e` binary at `--quick` scale on every workload, traced and
//! untraced, and holds its output against `BENCHMARK.json`: the metric
//! names, units and bounds the binary prints and the ones the repository
//! promises cannot drift apart.

use crowdfill_docstore::Json;
use crowdfill_e2e::metrics::{end_to_end, per_layer, MetricDef};
use crowdfill_e2e::script::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key:?}"))
}

/// name → (unit, better, bound) of one metric list of `BENCHMARK.json`.
fn promised(bench: &Json, list: &str) -> BTreeMap<String, (String, String, Option<f64>)> {
    bench
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing list {list:?}"))
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                (
                    str_of(m, "unit").to_string(),
                    str_of(m, "better").to_string(),
                    m.get("bound").and_then(Json::as_f64),
                ),
            )
        })
        .collect()
}

fn defined(defs: Vec<MetricDef>) -> BTreeMap<String, (String, String, Option<f64>)> {
    defs.into_iter()
        .map(|d| (d.name, (d.unit.to_string(), d.better.to_string(), d.bound)))
        .collect()
}

/// Runs one quick pass and returns the closing JSON line, parsed.
fn quick(workload: &str, trace: &str) -> Json {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--workload", workload, "--seed", "7", "--quick"])
        .args(["--trace", trace])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("e2e runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} exited {:?}:\n{stdout}\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    if trace == "1" {
        for file in [
            format!("trace-{workload}.jsonl"),
            format!("layers-{workload}.json"),
        ] {
            let len = std::fs::metadata(out_dir.join(&file))
                .unwrap_or_else(|e| panic!("{file}: {e}"))
                .len();
            assert!(len > 0, "{file} is empty");
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    let last = stdout.lines().last().expect("a closing line");
    Json::parse(last).unwrap_or_else(|e| panic!("closing line is not JSON ({e:?}): {last}"))
}

#[test]
fn quick_runs_are_correct_and_print_exactly_the_promised_metrics() {
    let bench = benchmark_json();

    // The binary's definitions and the repository's promise agree on
    // names, units, directions and bounds.
    assert_eq!(promised(&bench, "end_to_end"), defined(end_to_end()));
    assert_eq!(promised(&bench, "per_layer"), defined(per_layer()));

    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.spec().name).collect();
    assert_eq!(workloads, known);

    for workload in workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = quick(workload, trace);
            let context = format!("{workload} trace={trace}");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{context}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_i64),
                Some(0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1,
                "{context}"
            );
            let printed = result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_else(|| panic!("{context}: no metrics"));
            let want = promised(&bench, list);
            assert_eq!(
                printed.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>(),
                "{context}: printed metric names differ from BENCHMARK.json"
            );
            for (name, (unit, _, _)) in &want {
                let m = &printed[name];
                assert_eq!(str_of(m, "unit"), unit, "{context}: {name}");
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{context}: {name}");
                if list == "end_to_end" {
                    assert!(value.unwrap() > 0.0, "{context}: {name} is not positive");
                }
            }
        }
    }
}
