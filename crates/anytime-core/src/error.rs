use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors produced by the anytime automaton runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// The automaton was stopped before the operation could complete.
    Stopped,
    /// An upstream buffer was closed (its producer exited or panicked)
    /// without publishing a final output.
    SourceClosed {
        /// Name of the buffer whose producer disappeared.
        buffer: String,
    },
    /// A wait timed out.
    Timeout,
    /// A stage body panicked.
    StagePanicked {
        /// Name of the failing stage.
        stage: String,
        /// The panic payload, when it was a `String` or `&str`. `None`
        /// means the payload was an opaque non-string type; the display
        /// rendering says so explicitly rather than pretending it was
        /// empty.
        message: Option<String>,
        /// Anytime steps the stage had completed when it died.
        steps_at_death: u64,
    },
    /// A pipeline was configured inconsistently.
    InvalidConfig(String),
    /// A synchronous-pipeline update channel was disconnected.
    ChannelClosed,
    /// A serve request was rejected fast at admission: the projected time
    /// to a first answer already exceeds the request's deadline budget, so
    /// queuing it would only waste capacity the queue's other requests
    /// still have a chance of using.
    AdmissionRejected {
        /// Projected time until this request could produce an answer
        /// (queue wait plus minimum service time).
        projected: Duration,
        /// The request's deadline budget.
        budget: Duration,
    },
    /// A serve request was rejected because response-time analysis
    /// *proved* its (deadline, floor) pair infeasible: even under the
    /// calibrated optimistic model (fastest observed quality crossings,
    /// scaled down by the gate's optimism factor), the current backlog
    /// cannot raise output quality to `floor` within `budget`. Unlike
    /// [`CoreError::AdmissionRejected`] — a heuristic projection — this
    /// carries a certified bound: resubmitting with `budget >= bound`
    /// is the fix, retrying the same budget is not.
    Infeasible {
        /// Certified lower bound on the time to reach `floor` given the
        /// backlog observed at admission.
        bound: Duration,
        /// The request's deadline budget (strictly below `bound`).
        budget: Duration,
        /// The quality floor the bound was computed for.
        floor: f64,
    },
    /// A serve request was rejected fast at admission because the pool's
    /// queue was already at capacity — a load statement, not a deadline
    /// one (the request's budget may well have been feasible).
    QueueFull {
        /// Queue depth observed at admission.
        depth: usize,
        /// The pool's configured queue capacity.
        capacity: usize,
    },
    /// The serve pool was shut down before this request completed.
    PoolShutdown,
    /// A serve path panicked inside a replica worker. The panic was
    /// fenced by `catch_unwind`, so the worker survives and the run is
    /// reported as this structured failure. A caller-supplied closure's
    /// panic (pipeline factory or quality estimator) feeds the pool's
    /// retry path; any other panic fails the request at once (`context`
    /// `"serve"`).
    ReplicaPanicked {
        /// Index of the replica whose run absorbed the panic.
        replica: usize,
        /// What panicked: `"pipeline factory"`, `"quality estimator"`, or
        /// `"serve"` (the rest of the serve path).
        context: &'static str,
        /// The panic payload, when it was a `String` or `&str`.
        message: Option<String>,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Stopped => write!(f, "automaton was stopped"),
            Self::SourceClosed { buffer } => {
                write!(
                    f,
                    "producer of buffer `{buffer}` exited without a final output"
                )
            }
            Self::Timeout => write!(f, "wait timed out"),
            Self::StagePanicked {
                stage,
                message,
                steps_at_death,
            } => match message {
                Some(msg) => {
                    write!(
                        f,
                        "stage `{stage}` panicked after {steps_at_death} steps: {msg}"
                    )
                }
                None => write!(
                    f,
                    "stage `{stage}` panicked after {steps_at_death} steps \
                     with an opaque (non-string) payload"
                ),
            },
            Self::InvalidConfig(msg) => write!(f, "invalid pipeline configuration: {msg}"),
            Self::ChannelClosed => write!(f, "synchronous update channel disconnected"),
            Self::AdmissionRejected { projected, budget } => write!(
                f,
                "admission rejected: projected {projected:?} to first answer \
                 exceeds deadline budget {budget:?}"
            ),
            Self::Infeasible {
                bound,
                budget,
                floor,
            } => write!(
                f,
                "admission rejected: analysis proves quality floor {floor} is \
                 unreachable within {budget:?} (certified lower bound {bound:?})"
            ),
            Self::QueueFull { depth, capacity } => write!(
                f,
                "admission rejected: serve queue is full ({depth} queued, capacity {capacity})"
            ),
            Self::PoolShutdown => write!(f, "serve pool was shut down"),
            Self::ReplicaPanicked {
                replica,
                context,
                message,
            } => match message {
                Some(msg) => write!(
                    f,
                    "replica {replica}: {context} panicked during a serve run: {msg}"
                ),
                None => write!(
                    f,
                    "replica {replica}: {context} panicked during a serve run \
                     with an opaque (non-string) payload"
                ),
            },
        }
    }
}

impl Error for CoreError {}

/// Result alias for automaton operations.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let variants: Vec<CoreError> = vec![
            CoreError::Stopped,
            CoreError::SourceClosed { buffer: "F".into() },
            CoreError::Timeout,
            CoreError::StagePanicked {
                stage: "g".into(),
                message: Some("boom".into()),
                steps_at_death: 7,
            },
            CoreError::InvalidConfig("empty pipeline".into()),
            CoreError::ChannelClosed,
            CoreError::AdmissionRejected {
                projected: Duration::from_millis(80),
                budget: Duration::from_millis(50),
            },
            CoreError::QueueFull {
                depth: 64,
                capacity: 64,
            },
            CoreError::Infeasible {
                bound: Duration::from_millis(9),
                budget: Duration::from_millis(4),
                floor: 0.5,
            },
            CoreError::PoolShutdown,
            CoreError::ReplicaPanicked {
                replica: 1,
                context: "quality estimator",
                message: None,
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn stage_panicked_renders_string_payload() {
        let e = CoreError::StagePanicked {
            stage: "g".into(),
            message: Some("boom".into()),
            steps_at_death: 7,
        };
        let s = e.to_string();
        assert!(s.contains("`g`"), "{s}");
        assert!(s.contains("after 7 steps"), "{s}");
        assert!(s.contains("boom"), "{s}");
        assert!(!s.contains("opaque"), "{s}");
    }

    #[test]
    fn stage_panicked_names_opaque_payload() {
        let e = CoreError::StagePanicked {
            stage: "g".into(),
            message: None,
            steps_at_death: 3,
        };
        let s = e.to_string();
        assert!(s.contains("opaque (non-string) payload"), "{s}");
        assert!(s.contains("after 3 steps"), "{s}");
    }

    #[test]
    fn admission_rejected_names_both_durations() {
        let e = CoreError::AdmissionRejected {
            projected: Duration::from_millis(80),
            budget: Duration::from_millis(50),
        };
        let s = e.to_string();
        assert!(s.contains("80ms"), "{s}");
        assert!(s.contains("50ms"), "{s}");
    }

    #[test]
    fn queue_full_names_depth_and_capacity() {
        let e = CoreError::QueueFull {
            depth: 64,
            capacity: 64,
        };
        let s = e.to_string();
        assert!(s.contains("64 queued"), "{s}");
        assert!(s.contains("capacity 64"), "{s}");
    }

    #[test]
    fn infeasible_names_bound_budget_and_floor() {
        let e = CoreError::Infeasible {
            bound: Duration::from_millis(9),
            budget: Duration::from_millis(4),
            floor: 0.5,
        };
        let s = e.to_string();
        assert!(s.contains("floor 0.5"), "{s}");
        assert!(s.contains("4ms"), "{s}");
        assert!(s.contains("bound 9ms"), "{s}");
        assert!(s.contains("proves"), "{s}");
    }

    #[test]
    fn replica_panicked_renders_string_payload() {
        let e = CoreError::ReplicaPanicked {
            replica: 2,
            context: "pipeline factory",
            message: Some("boom".into()),
        };
        let s = e.to_string();
        assert!(s.contains("replica 2"), "{s}");
        assert!(s.contains("pipeline factory"), "{s}");
        assert!(s.contains("boom"), "{s}");
        assert!(!s.contains("opaque"), "{s}");
    }

    #[test]
    fn replica_panicked_names_opaque_payload() {
        let e = CoreError::ReplicaPanicked {
            replica: 0,
            context: "quality estimator",
            message: None,
        };
        let s = e.to_string();
        assert!(s.contains("opaque (non-string) payload"), "{s}");
        assert!(s.contains("quality estimator"), "{s}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
