//! Regenerates the paper experiment; see DESIGN.md §3.
fn main() {
    // Resolve telemetry before any compute so the probe gates are on.
    ditto_core::telemetry::init();
    bench::experiments::fig03a();
    bench::experiments::fig03b();
    // Drain telemetry sinks (DITTO_OBS_STREAM / DITTO_TRACE_FILE) before
    // exit so the stream is complete on disk.
    ditto_core::telemetry::flush();
}
