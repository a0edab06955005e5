//! Instance files are validated on load: a mutated `mshc generate`
//! output makes `mshc run` exit with status 2, naming the file and the
//! offending field, and never panics.

use serde::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn mshc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mshc")).args(args).output().expect("mshc starts")
}

/// The paper-size 100×20 high-connectivity instance `mshc generate`
/// writes, parsed into a JSON tree, and a temporary directory for `test`.
fn generated(test: &str) -> (Value, PathBuf) {
    let dir = std::env::temp_dir().join(format!("mshc_validation_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("valid.json");
    let out = mshc(&[
        "generate",
        "--tasks",
        "100",
        "--machines",
        "20",
        "--connectivity",
        "high",
        "--seed",
        "2001",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    (v, dir)
}

/// The value at a dotted field path.
fn at<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('.').fold(v, |v, name| match v {
        Value::Map(entries) => &mut entries.iter_mut().find(|(k, _)| k == name).expect(name).1,
        other => panic!("{name}: {} is not a map", other.kind()),
    })
}

/// The elements of the sequence at a dotted field path.
fn seq<'a>(v: &'a mut Value, path: &str) -> &'a mut Vec<Value> {
    match at(v, path) {
        Value::Seq(items) => items,
        other => panic!("{path}: {} is not a seq", other.kind()),
    }
}

/// Runs SE on `v` after `mutate` and returns the exit status and the
/// standard error, with the instance file's path.
fn run_mutated(test: &str, mutate: impl FnOnce(&mut Value)) -> (Option<i32>, String, String) {
    let (mut v, dir) = generated(test);
    mutate(&mut v);
    let path = dir.join("mutated.json");
    std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
    let path_s = path.to_str().unwrap().to_string();
    let out = mshc(&["run", "--algo", "se", "--iters", "1", "--instance", &path_s]);
    std::fs::remove_dir_all(&dir).unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), path_s)
}

fn assert_rejected(test: &str, mutate: impl FnOnce(&mut Value), field: &str, detail: &str) {
    let (code, stderr, path) = run_mutated(test, mutate);
    assert!(!stderr.contains("panicked"), "{test}: {stderr}");
    assert_eq!(code, Some(2), "{test}: {stderr}");
    let named = format!("error: {path}: invalid instance: {field}: ");
    assert!(stderr.contains(&named), "{test}: expected `{named}` in:\n{stderr}");
    assert!(stderr.contains(detail), "{test}: expected `{detail}` in:\n{stderr}");
}

#[test]
fn unmutated_instance_runs() {
    let (code, stderr, _) = run_mutated("unmutated", |_| {});
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn exec_rows_disagreeing_with_the_data_are_rejected() {
    // On the parent of this check, `rows: 3` on a 20-machine system ran
    // and printed a makespan.
    assert_rejected(
        "rows",
        |v| *at(v, "system.exec.rows") = Value::U64(3),
        "system.exec.data",
        "2000 entries for a 3 x 100 matrix",
    );
}

#[test]
fn truncated_exec_data_is_rejected() {
    assert_rejected(
        "truncated",
        |v| {
            seq(v, "system.exec.data").pop();
        },
        "system.exec.data",
        "1999 entries for a 20 x 100 matrix",
    );
}

#[test]
fn negative_execution_time_is_rejected() {
    assert_rejected(
        "neg_exec",
        |v| seq(v, "system.exec.data")[5] = Value::F64(-4.0),
        "system.exec",
        "E[0][5] = -4",
    );
}

#[test]
fn negative_transfer_time_is_rejected() {
    assert_rejected(
        "neg_transfer",
        |v| seq(v, "system.transfer.data")[7] = Value::F64(-1.5),
        "system.transfer",
        "Tr[0][7] = -1.5",
    );
}

#[test]
fn an_added_reverse_edge_is_rejected_as_a_cycle() {
    assert_rejected(
        "cycle",
        |v| {
            let edges = seq(v, "graph.edges");
            let mut back = edges[0].clone();
            let (src, dst) = (at(&mut back, "src").clone(), at(&mut back, "dst").clone());
            *at(&mut back, "src") = dst;
            *at(&mut back, "dst") = src;
            *at(&mut back, "id") = Value::U64(edges.len() as u64);
            edges.push(back);
        },
        "graph.edges",
        "cycle",
    );
}
