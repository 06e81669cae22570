//! The committed `results/*.json` artifacts are real: every file parses
//! with the repo's JSON codec and carries data. An empty file, `{}` or
//! `[]` is what a broken serializer leaves behind, so each is a failure.

use std::fs;
use std::path::PathBuf;
use tm_bench::json::{parse_json, Json};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn every_result_file_parses_and_carries_data() {
    let mut files: Vec<PathBuf> = fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "results/ holds no JSON files");
    let mut bad = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("readable result file");
        let problem = match parse_json(&text) {
            Err(e) => Some(format!("does not parse: {e}")),
            Ok(Json::Obj(fields)) if fields.is_empty() => Some("is `{}`".to_string()),
            Ok(Json::Arr(items)) if items.is_empty() => Some("is `[]`".to_string()),
            Ok(_) => None,
        };
        if let Some(problem) = problem {
            let name = path.file_name().expect("file path").to_string_lossy();
            bad.push(format!("results/{name}: {problem}"));
        }
    }
    assert!(bad.is_empty(), "broken result files:\n{}", bad.join("\n"));
}
