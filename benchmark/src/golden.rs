//! Pinned correctness goldens (`../golden.json`): FNV-1a digests of every
//! Small trace's `binio` bytes as a cold `Suite::load` produces them
//! (`trace_cold`), of the 18×7 sweep report's JSON (`figures_warm`), and —
//! at the golden seed — of every `trace_delta` trace and output and every
//! `denoise_plain` output (Small shapes, a quarter of the steps). The file is
//! compiled in, so a checkout always checks against the goldens of its own
//! commit. Regenerate with `benchmark/run.sh --regen-golden` after a change
//! that is *meant* to alter model outputs.

use std::sync::OnceLock;

use ditto_core::jsonio::{self, Value};

const GOLDEN_JSON: &str = include_str!("../golden.json");

fn table() -> &'static Vec<(String, u64)> {
    static TABLE: OnceLock<Vec<(String, u64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let Ok(Value::Obj(fields)) = jsonio::parse(GOLDEN_JSON.as_bytes()) else {
            panic!("benchmark/golden.json is not a JSON object")
        };
        fields
            .into_iter()
            .filter_map(|(key, v)| match v {
                Value::Str(hex) => Some((key, u64::from_str_radix(&hex, 16).ok()?)),
                _ => None,
            })
            .collect()
    })
}

/// The digest pinned under `key`, if any.
pub fn lookup(key: &str) -> Option<u64> {
    table().iter().find(|(k, _)| k == key).map(|(_, d)| *d)
}

/// Renders recorded digests as the `golden.json` document.
pub fn render(mut recorded: Vec<(String, u64)>) -> String {
    recorded.sort();
    recorded.dedup();
    let fields = recorded.into_iter().map(|(k, d)| (k, Value::Str(format!("{d:016x}")))).collect();
    let mut text = String::from_utf8(jsonio::to_vec_pretty(&Value::Obj(fields))).expect("UTF-8");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_pins_every_digest_the_workloads_check() {
        for model in ["DDPM", "BED", "CHUR", "IMG", "SDM", "DiT", "Latte"] {
            assert!(lookup(&format!("trace_cold.trace.{model}")).is_some(), "{model}");
            assert!(lookup(&format!("denoise_plain.output.{model}")).is_some(), "{model}");
        }
        for model in ["DDPM", "SDM", "DiT", "Latte"] {
            assert!(lookup(&format!("trace_delta.trace.{model}")).is_some(), "{model}");
            assert!(lookup(&format!("trace_delta.output.{model}")).is_some(), "{model}");
        }
        assert!(lookup("figures_warm.sweep_report").is_some());
        assert!(lookup("no.such.key").is_none());
    }

    #[test]
    fn render_round_trips() {
        let text = render(vec![("b".into(), 2), ("a".into(), 0xdead_beef)]);
        let Value::Obj(fields) = jsonio::parse(text.as_bytes()).unwrap() else { panic!() };
        assert_eq!(fields[0], ("a".to_string(), Value::Str("00000000deadbeef".into())));
        assert_eq!(fields[1].0, "b");
    }
}
