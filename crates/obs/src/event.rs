//! Typed trace events and their JSON encoding.

use crate::json::Value;
use crate::manifest::RunManifest;

/// How a replication ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationOutcome {
    /// The run reached the correct consensus (or crossed its witness
    /// threshold) within the budget.
    Converged,
    /// The round budget was exhausted first.
    TimedOut,
}

impl ReplicationOutcome {
    /// Stable string tag used in the JSON encoding.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ReplicationOutcome::Converged => "converged",
            ReplicationOutcome::TimedOut => "timed_out",
        }
    }
}

/// One structured trace event. Every variant encodes to a single JSON
/// object with a `"type"` discriminator, one per line in the JSONL export
/// of a trace (`bitdissem trace convert`).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// An experiment run began.
    ExperimentStarted {
        /// Experiment id (`e1`…).
        id: String,
        /// Human-readable title.
        title: String,
        /// Base seed of the run.
        seed: u64,
        /// Scale name (`smoke` / `standard` / `full`).
        scale: String,
    },
    /// An experiment run completed.
    ExperimentFinished {
        /// Experiment id.
        id: String,
        /// Whether every directional check passed.
        pass: bool,
        /// Wall-clock duration in microseconds.
        elapsed_us: u64,
    },
    /// A replicated measurement batch began. The events of a batch
    /// (rounds, replication results) follow it in the trace until the
    /// next `BatchStarted`, and the batch carries everything a trace
    /// analyzer needs to rebuild the protocol — the full `g`-table —
    /// so recorded runs are checkable against theory without knowing
    /// how the protocol was constructed.
    BatchStarted {
        /// Batch kind: `conv` (parallel-round convergence), `seqconv`
        /// (sequential convergence), `cross` (crossing time, no round
        /// events) or `dwell` (one consensus-maintenance run with its
        /// dwell window).
        kind: String,
        /// Protocol display name.
        protocol: String,
        /// Sample size ℓ of the protocol.
        ell: u64,
        /// Population size (including the source).
        n: u64,
        /// Number of agents holding opinion 1 in the initial
        /// configuration `X_0`.
        x0: u64,
        /// The source's (correct) opinion bit.
        source_opinion: u8,
        /// Replications in the batch.
        reps: u64,
        /// Per-replication round budget.
        budget: u64,
        /// Base seed of the batch (replication seeds derive from it).
        seed: u64,
        /// `g(0, k)` for `k = 0..=ℓ`: probability of adopting opinion 1
        /// when holding 0 and seeing `k` ones.
        g0: Vec<f64>,
        /// `g(1, k)` for `k = 0..=ℓ`.
        g1: Vec<f64>,
    },
    /// One replication of a replicated measurement completed.
    ReplicationFinished {
        /// Replication index within its batch.
        rep: u64,
        /// Converged or timed out.
        outcome: ReplicationOutcome,
        /// Convergence time (or the exhausted budget), in parallel rounds.
        rounds: u64,
        /// Wall-clock duration in microseconds.
        elapsed_us: u64,
    },
    /// One parallel round of a simulation completed.
    ///
    /// **Round-label convention:** the event labeled `round = r` carries
    /// the configuration `X_r`, i.e. the state *after* `r` rounds have
    /// completed. Labels therefore start at 1 (the initial configuration
    /// `X_0` is never simulated), and a run converging at round `k`
    /// reports `ones = n` in its `round = k` event.
    RoundCompleted {
        /// Replication index the round belongs to.
        rep: u64,
        /// Rounds completed so far; `ones` describes `X_round`.
        round: u64,
        /// Number of agents holding opinion 1 after the round.
        ones: u64,
        /// The source's (correct) opinion bit.
        source_opinion: u8,
    },
    /// A stability-checked run lost the correct consensus during its dwell
    /// window (the protocol violates Proposition 3 dynamically).
    ConsensusExited {
        /// Replication index the run belongs to.
        rep: u64,
        /// Round at which the correct consensus was first reached.
        entered: u64,
        /// First round after `entered` at which some agent deviated.
        exited: u64,
    },
    /// The run manifest, embedded in the trace for self-description.
    Manifest(RunManifest),
    /// One point of a live telemetry series: the value of one metric
    /// (`counter/...`, `gauge/...`, `series/.../p99`, `progress/done`) as
    /// observed by telemetry snapshot `version`. Emitted by the
    /// columnar telemetry exporter so snapshot series ride the same
    /// trace-store machinery (torn-tail repair, `trace` analytics) as
    /// simulation events.
    TelemetrySample {
        /// Series path, e.g. `counter/rounds_simulated`.
        series: String,
        /// Snapshot sequence number the sample belongs to.
        version: u64,
        /// Microseconds since the snapshot thread started.
        elapsed_us: u64,
        /// Sampled value.
        value: u64,
    },
}

impl Event {
    /// Encodes the event as one compact JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    fn to_value(&self) -> Value {
        let obj = |ty: &str, mut fields: Vec<(String, Value)>| {
            fields.insert(0, ("type".to_string(), Value::Str(ty.to_string())));
            Value::Obj(fields)
        };
        match self {
            Event::ExperimentStarted { id, title, seed, scale } => obj(
                "experiment_started",
                vec![
                    ("id".to_string(), Value::Str(id.clone())),
                    ("title".to_string(), Value::Str(title.clone())),
                    ("seed".to_string(), Value::Int(i128::from(*seed))),
                    ("scale".to_string(), Value::Str(scale.clone())),
                ],
            ),
            Event::ExperimentFinished { id, pass, elapsed_us } => obj(
                "experiment_finished",
                vec![
                    ("id".to_string(), Value::Str(id.clone())),
                    ("pass".to_string(), Value::Bool(*pass)),
                    ("elapsed_us".to_string(), Value::Int(i128::from(*elapsed_us))),
                ],
            ),
            Event::BatchStarted {
                kind,
                protocol,
                ell,
                n,
                x0,
                source_opinion,
                reps,
                budget,
                seed,
                g0,
                g1,
            } => {
                let floats = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect());
                obj(
                    "batch_started",
                    vec![
                        ("kind".to_string(), Value::Str(kind.clone())),
                        ("protocol".to_string(), Value::Str(protocol.clone())),
                        ("ell".to_string(), Value::Int(i128::from(*ell))),
                        ("n".to_string(), Value::Int(i128::from(*n))),
                        ("x0".to_string(), Value::Int(i128::from(*x0))),
                        ("source_opinion".to_string(), Value::Int(i128::from(*source_opinion))),
                        ("reps".to_string(), Value::Int(i128::from(*reps))),
                        ("budget".to_string(), Value::Int(i128::from(*budget))),
                        ("seed".to_string(), Value::Int(i128::from(*seed))),
                        ("g0".to_string(), floats(g0)),
                        ("g1".to_string(), floats(g1)),
                    ],
                )
            }
            Event::ReplicationFinished { rep, outcome, rounds, elapsed_us } => obj(
                "replication_finished",
                vec![
                    ("rep".to_string(), Value::Int(i128::from(*rep))),
                    ("outcome".to_string(), Value::Str(outcome.as_str().to_string())),
                    ("rounds".to_string(), Value::Int(i128::from(*rounds))),
                    ("elapsed_us".to_string(), Value::Int(i128::from(*elapsed_us))),
                ],
            ),
            Event::RoundCompleted { rep, round, ones, source_opinion } => obj(
                "round_completed",
                vec![
                    ("rep".to_string(), Value::Int(i128::from(*rep))),
                    ("round".to_string(), Value::Int(i128::from(*round))),
                    ("ones".to_string(), Value::Int(i128::from(*ones))),
                    ("source_opinion".to_string(), Value::Int(i128::from(*source_opinion))),
                ],
            ),
            Event::ConsensusExited { rep, entered, exited } => obj(
                "consensus_exited",
                vec![
                    ("rep".to_string(), Value::Int(i128::from(*rep))),
                    ("entered".to_string(), Value::Int(i128::from(*entered))),
                    ("exited".to_string(), Value::Int(i128::from(*exited))),
                ],
            ),
            Event::Manifest(manifest) => {
                let Value::Obj(fields) = manifest.to_value() else {
                    unreachable!("manifest encodes to an object");
                };
                obj("manifest", fields)
            }
            Event::TelemetrySample { series, version, elapsed_us, value } => obj(
                "telemetry_sample",
                vec![
                    ("series".to_string(), Value::Str(series.clone())),
                    ("version".to_string(), Value::Int(i128::from(*version))),
                    ("elapsed_us".to_string(), Value::Int(i128::from(*elapsed_us))),
                    ("value".to_string(), Value::Int(i128::from(*value))),
                ],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::ExperimentStarted {
                id: "e2".to_string(),
                title: "Voter upper bound".to_string(),
                seed: u64::MAX,
                scale: "smoke".to_string(),
            },
            Event::ExperimentFinished { id: "e2".to_string(), pass: true, elapsed_us: 12_345 },
            Event::BatchStarted {
                kind: "conv".to_string(),
                protocol: "voter".to_string(),
                ell: 1,
                n: 128,
                x0: 1,
                source_opinion: 1,
                reps: 30,
                budget: 4_964,
                seed: 0xBAD_5EED,
                g0: vec![0.0, 1.0],
                g1: vec![0.0, 1.0],
            },
            Event::BatchStarted {
                kind: "cross".to_string(),
                protocol: "mixed".to_string(),
                ell: 2,
                n: 64,
                x0: 32,
                source_opinion: 0,
                reps: 8,
                budget: 100,
                seed: 7,
                g0: vec![0.125, 0.5, 0.875],
                g1: vec![0.25, 0.5, 0.75],
            },
            Event::ReplicationFinished {
                rep: 3,
                outcome: ReplicationOutcome::Converged,
                rounds: 99,
                elapsed_us: 400,
            },
            Event::ReplicationFinished {
                rep: 4,
                outcome: ReplicationOutcome::TimedOut,
                rounds: 1_000,
                elapsed_us: 2,
            },
            Event::RoundCompleted { rep: 0, round: 17, ones: 5, source_opinion: 1 },
            Event::ConsensusExited { rep: 2, entered: 40, exited: 55 },
            Event::Manifest(RunManifest::example()),
            Event::TelemetrySample {
                series: "counter/rounds_simulated".to_string(),
                version: 12,
                elapsed_us: 3_000_000,
                value: 987_654_321,
            },
        ]
    }

    /// The JSON line of each sample event, as the JSONL sink wrote it
    /// before `trace convert` became the only JSONL writer: the export must
    /// not drift from the traces that earlier builds wrote.
    const GOLDEN_LINES: [&str; 10] = [
        r#"{"type":"experiment_started","id":"e2","title":"Voter upper bound","seed":18446744073709551615,"scale":"smoke"}"#,
        r#"{"type":"experiment_finished","id":"e2","pass":true,"elapsed_us":12345}"#,
        r#"{"type":"batch_started","kind":"conv","protocol":"voter","ell":1,"n":128,"x0":1,"source_opinion":1,"reps":30,"budget":4964,"seed":195911405,"g0":[0,1],"g1":[0,1]}"#,
        r#"{"type":"batch_started","kind":"cross","protocol":"mixed","ell":2,"n":64,"x0":32,"source_opinion":0,"reps":8,"budget":100,"seed":7,"g0":[0.125,0.5,0.875],"g1":[0.25,0.5,0.75]}"#,
        r#"{"type":"replication_finished","rep":3,"outcome":"converged","rounds":99,"elapsed_us":400}"#,
        r#"{"type":"replication_finished","rep":4,"outcome":"timed_out","rounds":1000,"elapsed_us":2}"#,
        r#"{"type":"round_completed","rep":0,"round":17,"ones":5,"source_opinion":1}"#,
        r#"{"type":"consensus_exited","rep":2,"entered":40,"exited":55}"#,
        r#"{"type":"manifest","experiment_id":"e2","seed":16045690984503111693,"scale":"smoke","threads":2,"crate_version":"0.1.0","started_unix_ms":1700000000000,"duration_us":250000,"counters":{"rounds_simulated":4964}}"#,
        r#"{"type":"telemetry_sample","series":"counter/rounds_simulated","version":12,"elapsed_us":3000000,"value":987654321}"#,
    ];

    #[test]
    fn every_event_encodes_to_its_pinned_line() {
        let samples = samples();
        assert_eq!(samples.len(), GOLDEN_LINES.len());
        for (ev, golden) in samples.iter().zip(GOLDEN_LINES) {
            assert_eq!(ev.to_json(), golden, "{ev:?}");
        }
    }

    #[test]
    fn type_tag_is_first_field() {
        for ev in samples() {
            assert!(ev.to_json().starts_with("{\"type\":\""), "{}", ev.to_json());
        }
    }
}
