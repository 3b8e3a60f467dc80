//! Job types: what gets submitted, what state it moves through, and what
//! comes back.
//!
//! A job is one detonation: either a corpus scenario (recorded live by the
//! worker, then analyzed) or a raw [`faros_replay::Recording`] shipped as
//! bytes (analyzed against the scenario it names). Every type here is a
//! wire type — it round-trips through `faros_support::json` and appears in
//! protocol frames.

use faros_obs::metrics::MetricsSnapshot;
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::fmt;

/// What a submitted job asks the service to detonate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// Record the named corpus scenario live, then analyze the capture.
    Scenario {
        /// Corpus sample name (see `faros-cli list`).
        name: String,
    },
    /// Analyze a previously captured recording (its `scenario` field names
    /// the corpus sample to rebuild the machine from).
    Recording {
        /// The recording, as its JSON serialization.
        json: String,
    },
}

impl JobSpec {
    /// A short human label for status lines.
    pub fn label(&self) -> String {
        match self {
            JobSpec::Scenario { name } => name.clone(),
            JobSpec::Recording { json } => {
                // Best effort: surface the scenario name without a full parse.
                JsonValue::parse(json)
                    .ok()
                    .and_then(|v| v.get("scenario").and_then(|s| s.as_str().map(String::from)))
                    .map_or_else(|| "<recording>".to_string(), |n| format!("{n} (recording)"))
            }
        }
    }
}

impl ToJson for JobSpec {
    fn to_json_value(&self) -> JsonValue {
        match self {
            JobSpec::Scenario { name } => JsonValue::object(vec![
                ("kind", "scenario".to_json_value()),
                ("name", name.to_json_value()),
            ]),
            JobSpec::Recording { json } => JsonValue::object(vec![
                ("kind", "recording".to_json_value()),
                ("json", json.to_json_value()),
            ]),
        }
    }
}

impl FromJson for JobSpec {
    fn from_json_value(v: &JsonValue) -> Result<JobSpec, JsonError> {
        let kind: String = json::field(v, "kind")?;
        match kind.as_str() {
            "scenario" => Ok(JobSpec::Scenario { name: json::field(v, "name")? }),
            "recording" => Ok(JobSpec::Recording { json: json::field(v, "json")? }),
            other => Err(JsonError::decode(format!("unknown job spec kind `{other}`"))),
        }
    }
}

/// Why a job failed — the structured error the analyst gets instead of a
/// hung or silently dropped job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The spec could not be resolved (unknown scenario, unparseable
    /// recording).
    InvalidSpec,
    /// The replay diverged or the scenario failed to build.
    Replay,
    /// The worker panicked while executing the job; it was replaced.
    WorkerPanic,
    /// The job exceeded the per-job deadline; its worker was replaced.
    DeadlineExceeded,
    /// The worker returned a report that failed validation.
    CorruptReport,
    /// The service shut down before the job ran.
    Cancelled,
}

impl FailureKind {
    /// The wire name of the failure kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::InvalidSpec => "invalid-spec",
            FailureKind::Replay => "replay",
            FailureKind::WorkerPanic => "worker-panic",
            FailureKind::DeadlineExceeded => "deadline-exceeded",
            FailureKind::CorruptReport => "corrupt-report",
            FailureKind::Cancelled => "cancelled",
        }
    }

    fn parse(s: &str) -> Result<FailureKind, JsonError> {
        Ok(match s {
            "invalid-spec" => FailureKind::InvalidSpec,
            "replay" => FailureKind::Replay,
            "worker-panic" => FailureKind::WorkerPanic,
            "deadline-exceeded" => FailureKind::DeadlineExceeded,
            "corrupt-report" => FailureKind::CorruptReport,
            "cancelled" => FailureKind::Cancelled,
            other => return Err(JsonError::decode(format!("unknown failure kind `{other}`"))),
        })
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured job failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The failure class.
    pub kind: FailureKind,
    /// Human-readable detail (panic payload, divergence description, ...).
    pub detail: String,
}

impl JobFailure {
    /// Builds a failure.
    pub fn new(kind: FailureKind, detail: impl Into<String>) -> JobFailure {
        JobFailure { kind, detail: detail.into() }
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

impl ToJson for JobFailure {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("kind", self.kind.as_str().to_json_value()),
            ("detail", self.detail.to_json_value()),
        ])
    }
}

impl FromJson for JobFailure {
    fn from_json_value(v: &JsonValue) -> Result<JobFailure, JsonError> {
        let kind: String = json::field(v, "kind")?;
        Ok(JobFailure { kind: FailureKind::parse(&kind)?, detail: json::field(v, "detail")? })
    }
}

/// What a successfully analyzed job returns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobResult {
    /// The full `FarosReport` as its byte-stable JSON serialization —
    /// identical to what `faros-cli analyze <sample> --json` prints.
    pub report_json: String,
    /// The report's metrics section (again, for server-side merging
    /// without re-parsing the report).
    pub metrics: MetricsSnapshot,
    /// Instructions the replay retired.
    pub instructions: u64,
    /// Whether the report flagged an in-memory injection.
    pub flagged: bool,
    /// Per-job flight-recorder events captured.
    pub trace_events: u64,
    /// Per-job flight-recorder events evicted (0 unless the ring was
    /// undersized).
    pub trace_dropped: u64,
    /// The job's cost channel: resolve/queue-wait/replay/analyze/report phase
    /// latency histograms plus per-plugin dispatch counts, as a metrics
    /// snapshot. Wall-clock, human-facing only — deliberately kept out of
    /// [`JobResult::metrics`] so merged report metrics stay deterministic.
    pub cost: MetricsSnapshot,
}

impl ToJson for JobResult {
    fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("report_json", self.report_json.to_json_value()),
            ("metrics", self.metrics.to_json_value()),
            ("instructions", self.instructions.to_json_value()),
            ("flagged", self.flagged.to_json_value()),
            ("trace_events", self.trace_events.to_json_value()),
            ("trace_dropped", self.trace_dropped.to_json_value()),
        ];
        if !self.cost.is_empty() {
            fields.push(("cost", self.cost.to_json_value()));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for JobResult {
    fn from_json_value(v: &JsonValue) -> Result<JobResult, JsonError> {
        Ok(JobResult {
            report_json: json::field(v, "report_json")?,
            metrics: json::field(v, "metrics")?,
            instructions: json::field(v, "instructions")?,
            flagged: json::field(v, "flagged")?,
            trace_events: json::field(v, "trace_events")?,
            trace_dropped: json::field(v, "trace_dropped")?,
            cost: json::field_or_default(v, "cost")?,
        })
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully; the result is available.
    Done(JobResult),
    /// Finished unsuccessfully; the failure is structured.
    Failed(JobFailure),
}

impl JobStatus {
    /// The wire name of the state.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }

    /// Returns `true` once the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done(_) | JobStatus::Failed(_))
    }
}

impl ToJson for JobStatus {
    fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![("state", self.as_str().to_json_value())];
        match self {
            JobStatus::Done(result) => fields.push(("result", result.to_json_value())),
            JobStatus::Failed(failure) => fields.push(("failure", failure.to_json_value())),
            JobStatus::Queued | JobStatus::Running => {}
        }
        JsonValue::object(fields)
    }
}

impl FromJson for JobStatus {
    fn from_json_value(v: &JsonValue) -> Result<JobStatus, JsonError> {
        let state: String = json::field(v, "state")?;
        match state.as_str() {
            "queued" => Ok(JobStatus::Queued),
            "running" => Ok(JobStatus::Running),
            "done" => Ok(JobStatus::Done(json::field(v, "result")?)),
            "failed" => Ok(JobStatus::Failed(json::field(v, "failure")?)),
            other => Err(JsonError::decode(format!("unknown job state `{other}`"))),
        }
    }
}

/// One job's full record, as reported over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobView {
    /// The job id (submission order, starting at 0).
    pub id: u64,
    /// Short label (scenario name).
    pub label: String,
    /// Current state.
    pub status: JobStatus,
}

impl ToJson for JobView {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("id", self.id.to_json_value()),
            ("label", self.label.to_json_value()),
            ("status", self.status.to_json_value()),
        ])
    }
}

impl FromJson for JobView {
    fn from_json_value(v: &JsonValue) -> Result<JobView, JsonError> {
        Ok(JobView {
            id: json::field(v, "id")?,
            label: json::field(v, "label")?,
            status: json::field(v, "status")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: ToJson + FromJson + PartialEq + fmt::Debug>(v: &T) {
        let json = v.to_json_value().to_pretty();
        let back = T::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(&back, v);
        assert_eq!(back.to_json_value().to_pretty(), json, "byte-stable");
    }

    #[test]
    fn specs_round_trip() {
        round_trip(&JobSpec::Scenario { name: "process_hollowing".into() });
        round_trip(&JobSpec::Recording { json: r#"{"scenario":"x"}"#.into() });
    }

    #[test]
    fn statuses_round_trip() {
        round_trip(&JobStatus::Queued);
        round_trip(&JobStatus::Running);
        round_trip(&JobStatus::Failed(JobFailure::new(
            FailureKind::DeadlineExceeded,
            "exceeded 50ms",
        )));
        round_trip(&JobStatus::Done(JobResult {
            report_json: "{}".into(),
            instructions: 42,
            flagged: true,
            trace_events: 7,
            ..JobResult::default()
        }));
    }

    #[test]
    fn recording_spec_labels_with_scenario_name() {
        let spec = JobSpec::Recording { json: r#"{"scenario":"darkcomet_rat"}"#.into() };
        assert_eq!(spec.label(), "darkcomet_rat (recording)");
        assert_eq!(JobSpec::Recording { json: "garbage".into() }.label(), "<recording>");
    }

    #[test]
    fn unknown_wire_values_are_rejected() {
        let bad = JsonValue::parse(r#"{"kind":"warp","detail":"x"}"#).unwrap();
        assert!(JobFailure::from_json_value(&bad).is_err());
        let bad = JsonValue::parse(r#"{"state":"limbo"}"#).unwrap();
        assert!(JobStatus::from_json_value(&bad).is_err());
    }
}
