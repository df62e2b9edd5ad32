//! End-to-end: with the global telemetry handle on, `trace_model` opens
//! its `calibrate:` / `hooked_run:` spans and the Ditto hook records one
//! sample per call into each per-model stage series.
//!
//! The global handle reads `DITTO_OBS_STREAM` once per process, so this is
//! the only test of its binary and sets the variable before anything else
//! touches telemetry.

use diffusion::{DiffusionModel, ModelKind, ModelScale};
use ditto_core::jsonio::{self, Value};
use ditto_core::runner::{trace_model, ExecPolicy, HOOK_STAGES};
use ditto_core::telemetry;

#[test]
fn trace_model_emits_spans_and_per_model_stage_series() {
    let stream = std::env::temp_dir().join(format!("ditto-telehook-stream-{}", std::process::id()));
    std::env::set_var("DITTO_OBS_STREAM", &stream);
    assert!(telemetry::init(), "the stream variable turns the global handle on");

    let model = DiffusionModel::build(ModelKind::Ddpm, ModelScale::Tiny, 3);
    let (trace, _) = trace_model(&model, 1, ExecPolicy::TemporalDelta).unwrap();
    let hook_calls = (trace.layer_count() * trace.step_count()) as i128;
    telemetry::flush();

    let text = std::fs::read_to_string(&stream).unwrap();
    let events: Vec<Value> =
        text.lines().map(|l| jsonio::parse(l.as_bytes()).expect("valid JSONL")).collect();
    let named = |name: &str| {
        events.iter().filter(|e| e.get("name") == Ok(&Value::Str(name.to_string()))).count()
    };
    assert_eq!(named("calibrate:DDPM"), 1);
    assert_eq!(named("hooked_run:DDPM"), 1);
    let series = events
        .iter()
        .rev()
        .find(|e| e.get("event") == Ok(&Value::Str("series".to_string())))
        .expect("flush emits the series snapshot");
    for stage in HOOK_STAGES {
        let summary = series
            .get("values")
            .and_then(|v| v.get(&format!("core.hook.DDPM.{stage}_ns")))
            .unwrap_or_else(|_| panic!("no `{stage}` series"));
        assert_eq!(summary.get("count"), Ok(&Value::Int(hook_calls)), "{stage}");
    }
    let _ = std::fs::remove_file(&stream);
}
