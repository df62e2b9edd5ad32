//! The (design × model) sweep engine.
//!
//! The paper's whole evaluation is one grid: every hardware design point
//! crossed with every traced diffusion model (Fig. 13–19, Table I, the
//! ablations). [`run`] executes such a grid as a flat list of independent
//! cell jobs over the work-stealing [`crate::pool`] — a shared atomic job
//! index over `std::thread::scope`, so a worker that finishes a cheap cell
//! immediately claims the next one regardless of which row it belongs to —
//! and returns a [`SweepReport`] of structured [`CellResult`]s that is
//! **bit-identical** to the sequential nested loop (each cell is a pure
//! function of `(design, trace)` and accumulates on exactly one thread).
//!
//! The report is a value, not a printout: experiment drivers (`bench`)
//! render their figure tables from it, the `serve` front-end serializes it
//! as JSON, and both the [`ditto_core::binio`] and [`ditto_core::jsonio`]
//! codecs round-trip it exactly.
//!
//! Cells are additionally **kernel-backend-invariant**: the simulator
//! consumes trace statistics, and the kernel stack that produces traces is
//! bit-identical across every `tensor::backend` selection, so a report —
//! and any memo entry the serve scheduler builds from one — never depends
//! on `DITTO_KERNEL_BACKEND` (asserted end-to-end, one child process per
//! available backend, in the umbrella `backend_invariance` test).
//!
//! # Example
//!
//! ```
//! use accel::design::Design;
//! use accel::grid::{self, SweepSpec};
//! use accel::sim::synth;
//!
//! let traces = [synth::trace(3, 5, 100_000, 64, true)];
//! let spec = SweepSpec::new(
//!     vec![Design::itc(), Design::ditto()],
//!     traces.iter().collect(),
//! );
//! let report = grid::run(&spec)?;
//! assert_eq!(report.designs, vec!["ITC", "Ditto"]);
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.cell(1, 0).speedup_vs_gpu > 0.0);
//! # Ok::<(), accel::grid::SweepError>(())
//! ```

use ditto_core::binio::{BinError, FromBin, Reader, ToBin};
use ditto_core::jsonio::{FromJson, JsonError, ToJson, Value};
use ditto_core::telemetry;
use ditto_core::trace::WorkloadTrace;

use crate::design::Design;
use crate::energy::EnergyBreakdown;
use crate::gpu::simulate_gpu;
use crate::pool;
use crate::sim::{simulate, DefoReport, RunResult};

/// Why a sweep could not run. The single non-panicking error path shared
/// by [`crate::sim::simulate_designs`] and [`run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The design list is empty — there is nothing to simulate.
    EmptyDesigns,
    /// The trace list is empty — there is nothing to simulate on.
    EmptyTraces,
    /// A trace has no layers or no steps; every derived metric would be a
    /// 0/0 `NaN`.
    EmptyTrace {
        /// `WorkloadTrace::model` of the offending trace.
        model: String,
    },
    /// A trace's per-step stats row does not match its layer list, so the
    /// simulator would silently drop layers.
    MismatchedTrace {
        /// `WorkloadTrace::model` of the offending trace.
        model: String,
        /// Step row with the wrong width.
        step: usize,
        /// Expected entries (the layer count).
        expected: usize,
        /// Entries actually present.
        actual: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyDesigns => write!(f, "sweep has no designs"),
            SweepError::EmptyTraces => write!(f, "sweep has no traces"),
            SweepError::EmptyTrace { model } => {
                write!(f, "trace `{model}` has no layers or no steps")
            }
            SweepError::MismatchedTrace { model, step, expected, actual } => write!(
                f,
                "trace `{model}` step {step} has {actual} stat rows for {expected} layers"
            ),
        }
    }
}

impl std::error::Error for SweepError {}

/// Checks that a trace is simulatable: at least one layer, at least one
/// step, and every step row as wide as the layer list.
pub fn validate_trace(trace: &WorkloadTrace) -> Result<(), SweepError> {
    let layers = trace.layer_count();
    if layers == 0 || trace.step_count() == 0 {
        return Err(SweepError::EmptyTrace { model: trace.model.clone() });
    }
    for (step, row) in trace.steps.iter().enumerate() {
        if row.len() != layers {
            return Err(SweepError::MismatchedTrace {
                model: trace.model.clone(),
                step,
                expected: layers,
                actual: row.len(),
            });
        }
    }
    Ok(())
}

/// One (design × model) sweep request: every design is simulated on every
/// trace.
#[derive(Debug, Clone)]
pub struct SweepSpec<'t> {
    /// The design axis, in report column order.
    pub designs: Vec<Design>,
    /// The model axis (traced workloads), in report row order.
    pub traces: Vec<&'t WorkloadTrace>,
}

impl<'t> SweepSpec<'t> {
    /// Bundles the two axes of a sweep.
    pub fn new(designs: Vec<Design>, traces: Vec<&'t WorkloadTrace>) -> Self {
        SweepSpec { designs, traces }
    }

    /// Total number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.designs.len() * self.traces.len()
    }

    /// Checks that the sweep is runnable (non-empty axes, valid traces).
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.designs.is_empty() {
            return Err(SweepError::EmptyDesigns);
        }
        if self.traces.is_empty() {
            return Err(SweepError::EmptyTraces);
        }
        for trace in &self.traces {
            validate_trace(trace)?;
        }
        Ok(())
    }
}

/// One grid cell: a design simulated on a model trace.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Index into [`SweepReport::designs`].
    pub design: usize,
    /// Index into [`SweepReport::models`].
    pub model: usize,
    /// The full simulation result (cycles, energy breakdown, traffic,
    /// Defo report) — names repeated inside for self-describing JSON.
    pub run: RunResult,
    /// Speedup of this design over the GPU reference on the same trace
    /// (`gpu.cycles / run.cycles`).
    pub speedup_vs_gpu: f64,
}

/// The structured result of a full (design × model) sweep.
///
/// Cells are stored model-major: `cells[model * designs.len() + design]`,
/// so one model's row over all designs is contiguous ([`Self::model_row`]).
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Design names, in [`SweepSpec::designs`] order.
    pub designs: Vec<String>,
    /// Model names (`WorkloadTrace::model`), in trace order.
    pub models: Vec<String>,
    /// All cells, model-major.
    pub cells: Vec<CellResult>,
    /// The GPU reference result per model (the Fig. 13 "GPU" column).
    pub gpu: Vec<RunResult>,
}

impl SweepReport {
    /// The cell for (`design`, `model`) by axis index.
    pub fn cell(&self, design: usize, model: usize) -> &CellResult {
        &self.cells[model * self.designs.len() + design]
    }

    /// One model's contiguous row over every design.
    pub fn model_row(&self, model: usize) -> &[CellResult] {
        let d = self.designs.len();
        &self.cells[model * d..(model + 1) * d]
    }

    /// The GPU reference for a model row.
    pub fn gpu(&self, model: usize) -> &RunResult {
        &self.gpu[model]
    }

    /// Index of the fastest (fewest-cycle) design for a model.
    pub fn best_design(&self, model: usize) -> usize {
        self.model_row(model)
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.run.cycles.total_cmp(&b.run.cycles))
            .map(|(i, _)| i)
            .expect("a validated sweep has at least one design")
    }

    /// Geometric-mean speedup of `design` over `baseline` across all
    /// models.
    pub fn geomean_speedup(&self, design: usize, baseline: usize) -> f64 {
        let n = self.models.len() as f64;
        let log_sum: f64 = (0..self.models.len())
            .map(|m| (self.cell(baseline, m).run.cycles / self.cell(design, m).run.cycles).ln())
            .sum();
        (log_sum / n).exp()
    }
}

/// Simulates one grid cell as a pure function of `(design, trace)` and the
/// model's precomputed GPU reference, returning the run result and the
/// speedup over that reference.
///
/// [`run_with_workers`] and the `serve` cell scheduler both go through this
/// exact function, which is what makes memoized cross-request serving
/// bit-identical to a fresh grid run: a cell's value never depends on which
/// engine (or which request) computed it.
pub fn simulate_cell(design: &Design, trace: &WorkloadTrace, gpu: &RunResult) -> (RunResult, f64) {
    let run = simulate(design, trace);
    let speedup_vs_gpu = gpu.cycles / run.cycles;
    (run, speedup_vs_gpu)
}

/// Executes the full grid with one worker per available core.
///
/// # Errors
///
/// Returns [`SweepError`] if either axis is empty or a trace is
/// degenerate; the engine never panics on malformed input.
pub fn run(spec: &SweepSpec<'_>) -> Result<SweepReport, SweepError> {
    run_with_workers(spec, pool::default_workers())
}

/// [`run`] with an explicit worker-thread cap (the result is bit-identical
/// for every cap — see the `grid_engine` integration tests).
///
/// # Errors
///
/// Returns [`SweepError`] if either axis is empty or a trace is
/// degenerate.
pub fn run_with_workers(spec: &SweepSpec<'_>, workers: usize) -> Result<SweepReport, SweepError> {
    spec.validate()?;
    let d = spec.designs.len();
    // The GPU reference first (one cheap pass per trace), then the grid
    // cells, which read the GPU cycles for `speedup_vs_gpu`. Both passes
    // fan out over the shared work-stealing pool; every result is computed
    // entirely on one thread, so the grid is bit-identical to the
    // sequential nested loop.
    // Telemetry spans are pure observers: the sweep span brackets the whole
    // grid on the calling thread, each cell span brackets exactly one
    // `simulate_cell` on whichever worker claimed it. With telemetry off
    // every guard is `None` and no name string is ever formatted.
    let _sweep = telemetry::on().then(|| {
        telemetry::span("grid", format!("sweep:{}x{}", spec.designs.len(), spec.traces.len()))
    });
    let gpu = pool::run_indexed(spec.traces.len(), workers, |m| {
        let _span = telemetry::on()
            .then(|| telemetry::span("grid", format!("gpu:{}", spec.traces[m].model)));
        simulate_gpu(spec.traces[m])
    });
    let cells = pool::run_indexed(spec.cell_count(), workers, |i| {
        let (model, design) = (i / d, i % d);
        let _span = telemetry::on().then(|| {
            // Cell coordinates ride as structured catapult args so trace
            // tooling can slice the grid by design/model without parsing
            // span names.
            telemetry::span_args(
                "grid",
                format!("cell:{}:{}", spec.designs[design].name, spec.traces[model].model),
                vec![
                    ("design".to_string(), Value::Str(spec.designs[design].name.clone())),
                    ("model".to_string(), Value::Str(spec.traces[model].model.clone())),
                    ("design_index".to_string(), design.to_json()),
                    ("model_index".to_string(), model.to_json()),
                ],
            )
        });
        let (run, speedup_vs_gpu) =
            simulate_cell(&spec.designs[design], spec.traces[model], &gpu[model]);
        CellResult { design, model, run, speedup_vs_gpu }
    });
    Ok(SweepReport {
        designs: spec.designs.iter().map(|d| d.name.clone()).collect(),
        models: spec.traces.iter().map(|t| t.model.clone()).collect(),
        cells,
        gpu,
    })
}

// --------------------------------------------------------------------------
// Serialization: binio (cache/IPC) and jsonio (serve front-end)
// --------------------------------------------------------------------------

impl ToBin for EnergyBreakdown {
    fn write(&self, out: &mut Vec<u8>) {
        self.compute.write(out);
        self.encoder.write(out);
        self.vpu.write(out);
        self.defo.write(out);
        self.sram.write(out);
        self.dram.write(out);
        self.static_.write(out);
    }
}

impl FromBin for EnergyBreakdown {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(EnergyBreakdown {
            compute: FromBin::read(r)?,
            encoder: FromBin::read(r)?,
            vpu: FromBin::read(r)?,
            defo: FromBin::read(r)?,
            sram: FromBin::read(r)?,
            dram: FromBin::read(r)?,
            static_: FromBin::read(r)?,
        })
    }
}

impl ToBin for DefoReport {
    fn write(&self, out: &mut Vec<u8>) {
        self.changed_ratio.write(out);
        self.accuracy.write(out);
    }
}

impl FromBin for DefoReport {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(DefoReport { changed_ratio: FromBin::read(r)?, accuracy: FromBin::read(r)? })
    }
}

impl ToBin for RunResult {
    fn write(&self, out: &mut Vec<u8>) {
        self.design.write(out);
        self.model.write(out);
        self.cycles.write(out);
        self.compute_cycles.write(out);
        self.stall_cycles.write(out);
        self.energy.write(out);
        self.dram_bytes.write(out);
        self.total_bytes.write(out);
        self.defo.write(out);
    }
}

impl FromBin for RunResult {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(RunResult {
            design: FromBin::read(r)?,
            model: FromBin::read(r)?,
            cycles: FromBin::read(r)?,
            compute_cycles: FromBin::read(r)?,
            stall_cycles: FromBin::read(r)?,
            energy: FromBin::read(r)?,
            dram_bytes: FromBin::read(r)?,
            total_bytes: FromBin::read(r)?,
            defo: FromBin::read(r)?,
        })
    }
}

impl ToBin for CellResult {
    fn write(&self, out: &mut Vec<u8>) {
        self.design.write(out);
        self.model.write(out);
        self.run.write(out);
        self.speedup_vs_gpu.write(out);
    }
}

impl FromBin for CellResult {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(CellResult {
            design: FromBin::read(r)?,
            model: FromBin::read(r)?,
            run: FromBin::read(r)?,
            speedup_vs_gpu: FromBin::read(r)?,
        })
    }
}

impl ToBin for SweepReport {
    fn write(&self, out: &mut Vec<u8>) {
        self.designs.write(out);
        self.models.write(out);
        self.cells.write(out);
        self.gpu.write(out);
    }
}

impl FromBin for SweepReport {
    fn read(r: &mut Reader<'_>) -> Result<Self, BinError> {
        Ok(SweepReport {
            designs: FromBin::read(r)?,
            models: FromBin::read(r)?,
            cells: FromBin::read(r)?,
            gpu: FromBin::read(r)?,
        })
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl ToJson for EnergyBreakdown {
    fn to_json(&self) -> Value {
        obj(vec![
            ("compute", self.compute.to_json()),
            ("encoder", self.encoder.to_json()),
            ("vpu", self.vpu.to_json()),
            ("defo", self.defo.to_json()),
            ("sram", self.sram.to_json()),
            ("dram", self.dram.to_json()),
            ("static", self.static_.to_json()),
        ])
    }
}

impl FromJson for EnergyBreakdown {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(EnergyBreakdown {
            compute: FromJson::from_json(v.get("compute")?)?,
            encoder: FromJson::from_json(v.get("encoder")?)?,
            vpu: FromJson::from_json(v.get("vpu")?)?,
            defo: FromJson::from_json(v.get("defo")?)?,
            sram: FromJson::from_json(v.get("sram")?)?,
            dram: FromJson::from_json(v.get("dram")?)?,
            static_: FromJson::from_json(v.get("static")?)?,
        })
    }
}

impl ToJson for DefoReport {
    fn to_json(&self) -> Value {
        obj(vec![
            ("changed_ratio", self.changed_ratio.to_json()),
            ("accuracy", self.accuracy.to_json()),
        ])
    }
}

impl FromJson for DefoReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(DefoReport {
            changed_ratio: FromJson::from_json(v.get("changed_ratio")?)?,
            accuracy: FromJson::from_json(v.get("accuracy")?)?,
        })
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("design", self.design.to_json()),
            ("model", self.model.to_json()),
            ("cycles", self.cycles.to_json()),
            ("compute_cycles", self.compute_cycles.to_json()),
            ("stall_cycles", self.stall_cycles.to_json()),
            ("energy", self.energy.to_json()),
            ("dram_bytes", self.dram_bytes.to_json()),
            ("total_bytes", self.total_bytes.to_json()),
            ("defo", self.defo.to_json()),
        ])
    }
}

impl FromJson for RunResult {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(RunResult {
            design: FromJson::from_json(v.get("design")?)?,
            model: FromJson::from_json(v.get("model")?)?,
            cycles: FromJson::from_json(v.get("cycles")?)?,
            compute_cycles: FromJson::from_json(v.get("compute_cycles")?)?,
            stall_cycles: FromJson::from_json(v.get("stall_cycles")?)?,
            energy: FromJson::from_json(v.get("energy")?)?,
            dram_bytes: FromJson::from_json(v.get("dram_bytes")?)?,
            total_bytes: FromJson::from_json(v.get("total_bytes")?)?,
            defo: FromJson::from_json(v.get("defo")?)?,
        })
    }
}

impl ToJson for CellResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("design", self.design.to_json()),
            ("model", self.model.to_json()),
            ("run", self.run.to_json()),
            ("speedup_vs_gpu", self.speedup_vs_gpu.to_json()),
        ])
    }
}

impl FromJson for CellResult {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(CellResult {
            design: FromJson::from_json(v.get("design")?)?,
            model: FromJson::from_json(v.get("model")?)?,
            run: FromJson::from_json(v.get("run")?)?,
            speedup_vs_gpu: FromJson::from_json(v.get("speedup_vs_gpu")?)?,
        })
    }
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Value {
        obj(vec![
            ("designs", self.designs.to_json()),
            ("models", self.models.to_json()),
            ("cells", self.cells.to_json()),
            ("gpu", self.gpu.to_json()),
        ])
    }
}

impl FromJson for SweepReport {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SweepReport {
            designs: FromJson::from_json(v.get("designs")?)?,
            models: FromJson::from_json(v.get("models")?)?,
            cells: FromJson::from_json(v.get("cells")?)?,
            gpu: FromJson::from_json(v.get("gpu")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::synth;

    #[test]
    fn grid_matches_sequential_nested_loop() {
        let designs = vec![Design::itc(), Design::cambricon_d(), Design::ditto()];
        let traces = [synth::trace(3, 5, 100_000, 64, true), synth::trace(2, 4, 50_000, 8, false)];
        let spec = SweepSpec::new(designs.clone(), traces.iter().collect());
        let report = run(&spec).unwrap();
        assert_eq!(report.models, vec!["SYNTH", "SYNTH"]);
        for (m, trace) in traces.iter().enumerate() {
            let gpu = simulate_gpu(trace);
            assert_eq!(report.gpu(m).cycles.to_bits(), gpu.cycles.to_bits());
            for (d, design) in designs.iter().enumerate() {
                let cell = report.cell(d, m);
                assert_eq!(cell.design, d);
                assert_eq!(cell.model, m);
                let seq = simulate(design, trace);
                assert_eq!(cell.run.cycles.to_bits(), seq.cycles.to_bits());
                assert_eq!(cell.speedup_vs_gpu.to_bits(), (gpu.cycles / seq.cycles).to_bits());
            }
        }
    }

    #[test]
    fn empty_axes_error_cleanly() {
        let trace = synth::trace(2, 3, 10_000, 16, true);
        let no_designs = SweepSpec::new(vec![], vec![&trace]);
        assert_eq!(run(&no_designs).unwrap_err(), SweepError::EmptyDesigns);
        let no_traces = SweepSpec::new(vec![Design::itc()], vec![]);
        assert_eq!(run(&no_traces).unwrap_err(), SweepError::EmptyTraces);
    }

    #[test]
    fn degenerate_traces_error_cleanly() {
        let mut empty = synth::trace(2, 3, 10_000, 16, true);
        empty.steps.clear();
        let spec = SweepSpec::new(vec![Design::itc()], vec![&empty]);
        assert_eq!(run(&spec).unwrap_err(), SweepError::EmptyTrace { model: "SYNTH".into() });

        let mut ragged = synth::trace(2, 3, 10_000, 16, true);
        ragged.steps[1].pop();
        let spec = SweepSpec::new(vec![Design::itc()], vec![&ragged]);
        assert_eq!(
            run(&spec).unwrap_err(),
            SweepError::MismatchedTrace { model: "SYNTH".into(), step: 1, expected: 2, actual: 1 }
        );
    }

    #[test]
    fn aggregations_pick_fastest_and_geomean() {
        let trace = synth::trace(4, 6, 200_000, 512, true);
        let spec = SweepSpec::new(vec![Design::itc(), Design::ditto()], vec![&trace, &trace]);
        let report = run(&spec).unwrap();
        // Ditto beats ITC on paper-magnitude layers.
        assert_eq!(report.best_design(0), 1);
        let g = report.geomean_speedup(1, 0);
        let per_model = report.cell(0, 0).run.cycles / report.cell(1, 0).run.cycles;
        // Both rows are the same trace, so the geomean equals the ratio.
        assert!((g - per_model).abs() < 1e-12 * per_model, "{g} vs {per_model}");
        assert_eq!(report.geomean_speedup(0, 0), 1.0);
    }

    #[test]
    fn report_roundtrips_through_both_codecs() {
        let trace = synth::trace(3, 4, 50_000, 64, false);
        let spec = SweepSpec::new(vec![Design::ditto(), Design::diffy()], vec![&trace]);
        let report = run(&spec).unwrap();

        let bin = ditto_core::binio::to_vec(&report);
        let back: SweepReport = ditto_core::binio::from_slice(&bin).unwrap();
        assert_eq!(back.designs, report.designs);
        assert_eq!(back.models, report.models);
        for (a, b) in back.cells.iter().zip(&report.cells) {
            assert_eq!(a.run.cycles.to_bits(), b.run.cycles.to_bits());
            assert_eq!(a.run.energy.total().to_bits(), b.run.energy.total().to_bits());
            assert_eq!(a.speedup_vs_gpu.to_bits(), b.speedup_vs_gpu.to_bits());
            assert_eq!(a.run.defo.is_some(), b.run.defo.is_some());
        }

        let json = ditto_core::jsonio::to_vec(&report);
        let back: SweepReport = ditto_core::jsonio::from_slice(&json).unwrap();
        for (a, b) in back.cells.iter().zip(&report.cells) {
            // `{}` prints the shortest f64 representation that round-trips,
            // so JSON is exact for finite values too.
            assert_eq!(a.run.cycles.to_bits(), b.run.cycles.to_bits());
            assert_eq!(a.speedup_vs_gpu.to_bits(), b.speedup_vs_gpu.to_bits());
        }
    }
}
