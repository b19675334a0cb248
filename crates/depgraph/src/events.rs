//! The executor's event channel: the runner reports task lifecycle events
//! back to the scheduler over an mpsc channel.
//!
//! The scheduler (the private `sched` module) owns the graph, the
//! up-to-date checks, the claim audit, and the poisoning policy; the
//! runner ([`crate::runner::TaskRunner`]) owns nothing but execution. The
//! only thing that flows from the runner back to the scheduler is an
//! [`ExecEvent`], sent through the [`EventSender`] handed to
//! [`crate::runner::TaskRunner::submit`]. See `docs/executor.md` for the
//! full protocol contract.

use std::sync::mpsc::Sender;

/// A task-lifecycle event reported by the runner.
///
/// Events are facts about what the runner did, not requests: the
/// scheduler is free to ignore an event that no longer makes sense (a
/// duplicate `Finished` for a task it already settled). That tolerance is
/// what makes the protocol safe against a racy or misbehaving runner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEvent {
    /// The runner began executing the task's action.
    Started {
        /// The task id.
        task: String,
    },
    /// A progress note from a long-running task (free-form, advisory).
    Progress {
        /// The task id.
        task: String,
        /// Human-readable progress note.
        note: String,
    },
    /// The task's action completed successfully.
    Finished {
        /// The task id.
        task: String,
    },
    /// The task's action failed (after exhausting its retry budget).
    Failed {
        /// The task id.
        task: String,
        /// The action's error message.
        message: String,
    },
    /// The task's action panicked. The scheduler re-raises the panic on
    /// its own thread so a debug-assertion tripped inside a worker is not
    /// silently downgraded to a task failure.
    Panicked {
        /// The task id.
        task: String,
        /// The panic payload, rendered.
        message: String,
    },
}

/// A runner's handle for reporting [`ExecEvent`]s to the scheduler.
///
/// Cloneable and `Send`: a runner may hand clones to worker threads. Sends
/// after the scheduler has returned are silently dropped.
#[derive(Debug, Clone)]
pub struct EventSender {
    tx: Sender<ExecEvent>,
}

impl EventSender {
    /// Creates a sender over `tx`. Normally the scheduler builds it;
    /// public so an implementation of [`crate::runner::TaskRunner`] can be
    /// unit-tested against a bare channel.
    pub fn new(tx: Sender<ExecEvent>) -> EventSender {
        EventSender { tx }
    }

    fn send(&self, event: ExecEvent) {
        // A closed channel means the scheduler is gone; late events from a
        // straggling worker have nowhere useful to go.
        let _ = self.tx.send(event);
    }

    /// Reports that the task's action began executing.
    pub fn started(&self, task: &str) {
        self.send(ExecEvent::Started {
            task: task.to_owned(),
        });
    }

    /// Reports an advisory progress note for a running task.
    pub fn progress(&self, task: &str, note: &str) {
        self.send(ExecEvent::Progress {
            task: task.to_owned(),
            note: note.to_owned(),
        });
    }

    /// Reports that the task's action completed successfully.
    pub fn finished(&self, task: &str) {
        self.send(ExecEvent::Finished {
            task: task.to_owned(),
        });
    }

    /// Reports that the task's action failed.
    pub fn failed(&self, task: &str, message: impl Into<String>) {
        self.send(ExecEvent::Failed {
            task: task.to_owned(),
            message: message.into(),
        });
    }

    /// Reports that the task's action panicked.
    pub fn panicked(&self, task: &str, message: impl Into<String>) {
        self.send(ExecEvent::Panicked {
            task: task.to_owned(),
            message: message.into(),
        });
    }
}

/// A point-in-time snapshot of scheduler state, delivered to the
/// [`crate::ExecOptions::progress`] callback whenever the picture changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecProgress {
    /// Total tasks in the plan.
    pub total: usize,
    /// Tasks ready to dispatch (dependencies settled, not yet claimed).
    pub ready: usize,
    /// Tasks currently executing on the runner.
    pub running: usize,
    /// Tasks settled successfully (executed or skipped as up to date).
    pub done: usize,
    /// Tasks failed or poisoned by a failed dependency.
    pub failed: usize,
}

/// The progress-callback type: invoked from the scheduler thread, so it
/// must not block for long.
pub type ProgressFn = std::sync::Arc<dyn Fn(&ExecProgress) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn events_arrive_in_send_order() {
        let (tx, rx) = channel();
        let sender = EventSender::new(tx);
        sender.started("a");
        sender.progress("a", "halfway");
        sender.finished("a");
        sender.failed("b", "boom");
        sender.panicked("c", "ouch");
        let events: Vec<ExecEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 5);
        assert_eq!(events[2], ExecEvent::Finished { task: "a".into() });
    }

    #[test]
    fn sends_after_scheduler_exit_are_dropped() {
        let (tx, rx) = channel();
        drop(rx);
        let sender = EventSender::new(tx);
        // Must not panic: the scheduler is gone, the event evaporates.
        sender.finished("late");
    }
}
