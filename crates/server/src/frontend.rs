//! The front-end server (paper §3.2).
//!
//! Exposes the CrowdFill API surface: create/update/delete table
//! specifications (schema + scoring + constraint template + budget), control
//! data collection, and retrieve collected data. All state is persisted in
//! the document store (`crowdfill-docstore`), which plays the role MongoDB
//! plays for the paper's deployment.

use crate::config::TaskConfig;
use crate::wire;
use crowdfill_docstore::{Collection, DocStore, Json, StoreError};
use crowdfill_model::{FinalTable, QuorumMajority, ScoringRef};
use crowdfill_pay::{Payout, Scheme};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// Task lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Created, not yet launched.
    Draft,
    /// Data collection in progress (tasks exist in the marketplace).
    Live,
    /// Collection finished, results stored, workers paid.
    Done,
}

impl TaskStatus {
    fn name(self) -> &'static str {
        match self {
            TaskStatus::Draft => "draft",
            TaskStatus::Live => "live",
            TaskStatus::Done => "done",
        }
    }

    fn parse(s: &str) -> Option<TaskStatus> {
        match s {
            "draft" => Some(TaskStatus::Draft),
            "live" => Some(TaskStatus::Live),
            "done" => Some(TaskStatus::Done),
            _ => None,
        }
    }
}

impl fmt::Display for TaskStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Front-end errors.
#[derive(Debug)]
pub enum FrontendError {
    Store(StoreError),
    Wire(wire::WireError),
    NotFound(String),
    /// Operation not valid in the task's current status.
    InvalidStatus {
        expected: TaskStatus,
        actual: TaskStatus,
    },
    /// Scoring function name not in the registry.
    UnknownScoring(String),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Store(e) => write!(f, "store: {e}"),
            FrontendError::Wire(e) => write!(f, "{e}"),
            FrontendError::NotFound(id) => write!(f, "task {id:?} not found"),
            FrontendError::InvalidStatus { expected, actual } => {
                write!(f, "task must be {expected}, is {actual}")
            }
            FrontendError::UnknownScoring(s) => write!(f, "unknown scoring function {s:?}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<StoreError> for FrontendError {
    fn from(e: StoreError) -> Self {
        FrontendError::Store(e)
    }
}
impl From<wire::WireError> for FrontendError {
    fn from(e: wire::WireError) -> Self {
        FrontendError::Wire(e)
    }
}

/// Builds a scoring function from its stored name. The registry covers the
/// built-ins; closures cannot be persisted (same restriction any stored
/// specification has).
fn scoring_from_name(name: &str) -> Result<ScoringRef, FrontendError> {
    match name {
        "difference" => Ok(Arc::new(crowdfill_model::Difference)),
        "quorum-majority" => Ok(Arc::new(QuorumMajority::of_three())),
        other => Err(FrontendError::UnknownScoring(other.to_string())),
    }
}

fn scheme_name(s: Scheme) -> &'static str {
    s.name()
}

fn scheme_from_name(s: &str) -> Result<Scheme, FrontendError> {
    Scheme::ALL
        .into_iter()
        .find(|sc| sc.name() == s)
        .ok_or_else(|| FrontendError::UnknownScoring(s.to_string()))
}

/// The front-end server.
pub struct Frontend {
    store: DocStore,
    next_id: u64,
}

const TASKS: &str = "tasks";
const RESULTS: &str = "results";
const PAYOUTS: &str = "payouts";
const TRACES: &str = "traces";

impl Frontend {
    /// An in-memory front end (tests/simulation).
    pub fn in_memory() -> Frontend {
        Frontend {
            store: DocStore::in_memory(),
            next_id: 1,
        }
    }

    /// A durable front end persisting to the WAL at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Frontend, FrontendError> {
        let store = DocStore::open(path)?;
        // Resume id assignment past any existing task ids.
        let next_id = store
            .collection(TASKS)
            .into_iter()
            .flat_map(Collection::iter)
            .filter_map(|(id, _)| id.strip_prefix("task-")?.parse::<u64>().ok())
            .max()
            .unwrap_or(0)
            + 1;
        Ok(Frontend { store, next_id })
    }

    /// Creates a task specification; returns its id. The task starts in
    /// [`TaskStatus::Draft`].
    pub fn create_task(&mut self, config: &TaskConfig) -> Result<String, FrontendError> {
        let id = format!("task-{}", self.next_id);
        self.next_id += 1;
        let doc = Json::obj([
            ("status", Json::str(TaskStatus::Draft.name())),
            ("schema", wire::schema_to_json(&config.schema)),
            ("scoring", Json::str(config.scoring.name())),
            ("template", wire::template_to_json(&config.template)),
            ("budget", Json::num(config.budget)),
            ("scheme", Json::str(scheme_name(config.scheme))),
            (
                "max_votes_per_row",
                match config.max_votes_per_row {
                    Some(v) => Json::num(v as f64),
                    None => Json::Null,
                },
            ),
        ]);
        self.store.insert(TASKS, id.clone(), doc)?;
        crowdfill_obs::obs_info!("server", "task created: {id}");
        Ok(id)
    }

    /// Reconstructs a task's configuration.
    pub fn get_task(&self, id: &str) -> Result<TaskConfig, FrontendError> {
        let doc = self.task_doc(id)?;
        let schema = wire::schema_from_json(
            doc.get("schema")
                .ok_or_else(|| wire::WireError("missing schema".into()))?,
        )?;
        let scoring = scoring_from_name(
            doc.get("scoring")
                .and_then(Json::as_str)
                .ok_or_else(|| wire::WireError("missing scoring".into()))?,
        )?;
        let template = wire::template_from_json(
            doc.get("template")
                .ok_or_else(|| wire::WireError("missing template".into()))?,
        )?;
        let budget = doc
            .get("budget")
            .and_then(Json::as_f64)
            .ok_or_else(|| wire::WireError("missing budget".into()))?;
        let scheme = scheme_from_name(
            doc.get("scheme")
                .and_then(Json::as_str)
                .ok_or_else(|| wire::WireError("missing scheme".into()))?,
        )?;
        let max_votes = doc
            .get("max_votes_per_row")
            .and_then(Json::as_i64)
            .map(|v| v as u32);
        let mut config =
            TaskConfig::new(Arc::new(schema), scoring, template, budget).with_scheme(scheme);
        config.max_votes_per_row = max_votes;
        Ok(config)
    }

    /// The task's lifecycle status.
    pub fn task_status(&self, id: &str) -> Result<TaskStatus, FrontendError> {
        let doc = self.task_doc(id)?;
        doc.get("status")
            .and_then(Json::as_str)
            .and_then(TaskStatus::parse)
            .ok_or_else(|| FrontendError::NotFound(id.to_string()))
    }

    /// Lists `(id, status)` of all tasks.
    pub fn list_tasks(&self) -> Vec<(String, TaskStatus)> {
        self.store
            .collection(TASKS)
            .into_iter()
            .flat_map(Collection::iter)
            .filter_map(|(id, doc)| {
                let status = doc.get("status").and_then(Json::as_str)?;
                Some((id.to_string(), TaskStatus::parse(status)?))
            })
            .collect()
    }

    /// Deletes a draft task. Live/done tasks are immutable history.
    pub fn delete_task(&mut self, id: &str) -> Result<(), FrontendError> {
        self.expect_status(id, TaskStatus::Draft)?;
        self.store.remove(TASKS, id)?;
        Ok(())
    }

    /// Launches data collection (Draft → Live).
    pub fn launch_task(&mut self, id: &str) -> Result<(), FrontendError> {
        self.expect_status(id, TaskStatus::Draft)?;
        self.set_status(id, TaskStatus::Live)?;
        crowdfill_obs::obs_info!("server", "task launched: {id}");
        Ok(())
    }

    /// Completes a task (Live → Done), storing the final table and payout.
    pub fn complete_task(
        &mut self,
        id: &str,
        final_table: &FinalTable,
        payout: &Payout,
    ) -> Result<(), FrontendError> {
        self.expect_status(id, TaskStatus::Live)?;
        let rows: Vec<Json> = final_table
            .rows()
            .iter()
            .map(|r| {
                Json::obj([
                    ("value", wire::row_value_to_json(&r.value)),
                    ("score", Json::num(r.score as f64)),
                    ("upvotes", Json::num(r.upvotes as f64)),
                    ("downvotes", Json::num(r.downvotes as f64)),
                ])
            })
            .collect();
        self.store
            .upsert(RESULTS, id, Json::obj([("rows", Json::Arr(rows))]))?;
        let per_worker: Vec<Json> = payout
            .per_worker
            .iter()
            .map(|(w, amount)| {
                Json::obj([
                    ("worker", Json::num(w.0 as f64)),
                    ("amount", Json::num(*amount)),
                ])
            })
            .collect();
        self.store.upsert(
            PAYOUTS,
            id,
            Json::obj([
                ("scheme", Json::str(payout.scheme.name())),
                ("budget", Json::num(payout.budget)),
                ("unspent", Json::num(payout.unspent)),
                ("per_worker", Json::Arr(per_worker)),
            ]),
        )?;
        self.set_status(id, TaskStatus::Done)?;
        crowdfill_obs::obs_info!(
            "server",
            "task completed: {id}";
            rows => final_table.rows().len() as u64,
        );
        Ok(())
    }

    /// Retrieves collected rows for a done task, as row values.
    pub fn get_results(&self, id: &str) -> Result<Vec<crowdfill_model::RowValue>, FrontendError> {
        let doc = self
            .store
            .get(RESULTS, id)
            .ok_or_else(|| FrontendError::NotFound(id.to_string()))?;
        doc.get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| wire::WireError("missing rows".into()).into())
            .and_then(|rows| {
                rows.iter()
                    .map(|r| {
                        wire::row_value_from_json(
                            r.get("value")
                                .ok_or_else(|| wire::WireError("missing value".into()))?,
                        )
                        .map_err(FrontendError::from)
                    })
                    .collect()
            })
    }

    /// The stored payout summary `(worker, amount)` for a done task.
    pub fn get_payout(&self, id: &str) -> Result<Vec<(u32, f64)>, FrontendError> {
        let doc = self
            .store
            .get(PAYOUTS, id)
            .ok_or_else(|| FrontendError::NotFound(id.to_string()))?;
        Ok(doc
            .get("per_worker")
            .and_then(Json::as_arr)
            .map(|arr| {
                arr.iter()
                    .filter_map(|e| {
                        Some((
                            e.get("worker")?.as_i64()? as u32,
                            e.get("amount")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default())
    }

    /// Archives the task's complete action trace (paper §3.3: the back-end
    /// "stor[es] a complete trace of worker actions for bookkeeping") so
    /// compensation can be re-settled offline under any scheme.
    pub fn store_trace(
        &mut self,
        id: &str,
        trace: &crowdfill_pay::Trace,
    ) -> Result<(), FrontendError> {
        self.store.upsert(
            TRACES,
            id,
            Json::obj([("entries", wire::trace_to_json(trace))]),
        )?;
        Ok(())
    }

    /// Loads an archived trace.
    pub fn load_trace(&self, id: &str) -> Result<crowdfill_pay::Trace, FrontendError> {
        let doc = self
            .store
            .get(TRACES, id)
            .ok_or_else(|| FrontendError::NotFound(id.to_string()))?;
        wire::trace_from_json(
            doc.get("entries")
                .ok_or_else(|| wire::WireError("missing entries".into()))?,
        )
        .map_err(FrontendError::from)
    }

    fn task_doc(&self, id: &str) -> Result<&Json, FrontendError> {
        self.store
            .get(TASKS, id)
            .ok_or_else(|| FrontendError::NotFound(id.to_string()))
    }

    fn expect_status(&self, id: &str, expected: TaskStatus) -> Result<(), FrontendError> {
        let actual = self.task_status(id)?;
        if actual != expected {
            return Err(FrontendError::InvalidStatus { expected, actual });
        }
        Ok(())
    }

    fn set_status(&mut self, id: &str, status: TaskStatus) -> Result<(), FrontendError> {
        let mut doc = self.task_doc(id)?.clone();
        if let Json::Obj(map) = &mut doc {
            map.insert("status".to_string(), Json::str(status.name()));
        }
        self.store.upsert(TASKS, id, doc)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_model::{Column, DataType, Schema, Template, Value};

    fn config() -> TaskConfig {
        let schema = Arc::new(
            Schema::new(
                "SoccerPlayer",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("nationality", DataType::Text),
                ],
                &["name"],
            )
            .unwrap(),
        );
        TaskConfig::new(
            schema,
            Arc::new(QuorumMajority::of_three()),
            Template::cardinality(3),
            10.0,
        )
    }

    #[test]
    fn task_lifecycle() {
        let mut fe = Frontend::in_memory();
        let id = fe.create_task(&config()).unwrap();
        assert_eq!(fe.task_status(&id).unwrap(), TaskStatus::Draft);
        assert_eq!(fe.list_tasks(), vec![(id.clone(), TaskStatus::Draft)]);

        fe.launch_task(&id).unwrap();
        assert_eq!(fe.task_status(&id).unwrap(), TaskStatus::Live);
        // Can't launch twice or delete a live task.
        assert!(matches!(
            fe.launch_task(&id),
            Err(FrontendError::InvalidStatus { .. })
        ));
        assert!(fe.delete_task(&id).is_err());

        let ft = FinalTable::default();
        let payout = crowdfill_pay::allocate(
            Scheme::Uniform,
            10.0,
            &crowdfill_pay::Contributions::default(),
            &config().schema,
            &crowdfill_pay::SplitConfig::new(),
        );
        fe.complete_task(&id, &ft, &payout).unwrap();
        assert_eq!(fe.task_status(&id).unwrap(), TaskStatus::Done);
        assert!(fe.get_results(&id).unwrap().is_empty());
        assert!(fe.get_payout(&id).unwrap().is_empty());
    }

    #[test]
    fn config_roundtrips_through_store() {
        let mut fe = Frontend::in_memory();
        let mut cfg = config().with_scheme(Scheme::ColumnWeighted);
        cfg.max_votes_per_row = Some(7);
        let id = fe.create_task(&cfg).unwrap();
        let back = fe.get_task(&id).unwrap();
        assert_eq!(back.schema.name(), "SoccerPlayer");
        assert_eq!(back.scoring.name(), "quorum-majority");
        assert_eq!(back.template.len(), 3);
        assert_eq!(back.budget, 10.0);
        assert_eq!(back.scheme, Scheme::ColumnWeighted);
        assert_eq!(back.max_votes_per_row, Some(7));
    }

    #[test]
    fn durable_frontend_persists_tasks() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "crowdfill-frontend-test-{}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let id = {
            let mut fe = Frontend::open(&path).unwrap();
            fe.create_task(&config()).unwrap()
        };
        let fe = Frontend::open(&path).unwrap();
        assert_eq!(fe.task_status(&id).unwrap(), TaskStatus::Draft);
        // Id counter resumes past existing tasks.
        let mut fe2 = Frontend::open(&path).unwrap();
        let id2 = fe2.create_task(&config()).unwrap();
        assert_ne!(id, id2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn results_roundtrip() {
        let mut fe = Frontend::in_memory();
        let cfg = config();
        let id = fe.create_task(&cfg).unwrap();
        fe.launch_task(&id).unwrap();
        // Build a tiny final table.
        let mut table = crowdfill_model::CandidateTable::new(&cfg.schema);
        let value = crowdfill_model::RowValue::from_pairs([
            (crowdfill_model::ColumnId(0), Value::text("Messi")),
            (crowdfill_model::ColumnId(1), Value::text("Argentina")),
        ]);
        table.insert(
            crowdfill_model::RowId::new(crowdfill_model::ClientId(1), 0),
            crowdfill_model::RowEntry {
                value: value.clone(),
                upvotes: 2,
                downvotes: 0,
            },
        );
        let ft =
            crowdfill_model::derive_final_table(&table, &cfg.schema, &QuorumMajority::of_three());
        let payout = crowdfill_pay::allocate(
            Scheme::Uniform,
            10.0,
            &crowdfill_pay::Contributions::default(),
            &cfg.schema,
            &crowdfill_pay::SplitConfig::new(),
        );
        fe.complete_task(&id, &ft, &payout).unwrap();
        let rows = fe.get_results(&id).unwrap();
        assert_eq!(rows, vec![value]);
    }

    #[test]
    fn unknown_ids_rejected() {
        let fe = Frontend::in_memory();
        assert!(matches!(
            fe.task_status("task-404"),
            Err(FrontendError::NotFound(_))
        ));
        assert!(fe.get_results("task-404").is_err());
        assert!(fe.get_task("task-404").is_err());
    }
}
