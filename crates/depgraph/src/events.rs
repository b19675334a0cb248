//! The executor's event channel: runners report task lifecycle events back
//! to the scheduler over an mpsc channel.
//!
//! The scheduler (the private `sched` module) owns the graph, the
//! up-to-date checks, the claim audit, and the poisoning policy; runners
//! ([`crate::runner::TaskRunner`]) own nothing but execution. The only
//! thing that flows from a runner back to the scheduler is an
//! [`ExecEvent`], sent through the [`EventSender`] handed to
//! [`crate::runner::TaskRunner::submit`]. See `docs/executor.md` for the
//! full protocol contract.

use std::sync::mpsc::Sender;

/// Identifies a runner within one scheduler run: its index in the runner
/// list, in declaration order.
pub type RunnerId = usize;

/// A task-lifecycle event reported by a runner.
///
/// Events are facts about what a runner did, not requests: the scheduler
/// is free to ignore an event that no longer makes sense (a duplicate
/// `Finished` for a task it already settled, an event from a runner it
/// already declared lost). That tolerance is what makes the protocol safe
/// against racy or misbehaving runners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEvent {
    /// The runner began executing the task's action.
    Started {
        /// The reporting runner.
        runner: RunnerId,
        /// The task id.
        task: String,
    },
    /// A progress note from a long-running task (free-form, advisory).
    Progress {
        /// The reporting runner.
        runner: RunnerId,
        /// The task id.
        task: String,
        /// Human-readable progress note.
        note: String,
    },
    /// The task's action completed successfully.
    Finished {
        /// The reporting runner.
        runner: RunnerId,
        /// The task id.
        task: String,
    },
    /// The task's action failed (after exhausting its retry budget).
    Failed {
        /// The reporting runner.
        runner: RunnerId,
        /// The task id.
        task: String,
        /// The action's error message.
        message: String,
    },
    /// The task's action panicked. The scheduler re-raises the panic on
    /// its own thread so a debug-assertion tripped inside a worker is not
    /// silently downgraded to a task failure.
    Panicked {
        /// The reporting runner.
        runner: RunnerId,
        /// The task id.
        task: String,
        /// The panic payload, rendered.
        message: String,
    },
    /// The runner can no longer execute tasks (transport died, worker
    /// crashed). Tasks in flight on this runner are requeued once onto a
    /// surviving runner, then treated as failures — never left hanging.
    RunnerLost {
        /// The lost runner.
        runner: RunnerId,
        /// Why the runner was lost.
        reason: String,
    },
}

impl ExecEvent {
    /// The runner that reported this event.
    pub fn runner(&self) -> RunnerId {
        match self {
            ExecEvent::Started { runner, .. }
            | ExecEvent::Progress { runner, .. }
            | ExecEvent::Finished { runner, .. }
            | ExecEvent::Failed { runner, .. }
            | ExecEvent::Panicked { runner, .. }
            | ExecEvent::RunnerLost { runner, .. } => *runner,
        }
    }
}

/// A runner's handle for reporting [`ExecEvent`]s to the scheduler.
///
/// Cloneable and `Send`: a runner may hand clones to worker threads. Every
/// event is stamped with the runner's id, so the scheduler can attribute
/// events without trusting runners to fill the field themselves. Sends
/// after the scheduler has returned are silently dropped.
#[derive(Debug, Clone)]
pub struct EventSender {
    runner: RunnerId,
    tx: Sender<ExecEvent>,
}

impl EventSender {
    /// Creates a sender that stamps events with `runner`. Normally the
    /// scheduler builds these; public so crates implementing
    /// [`crate::runner::TaskRunner`] can unit-test their runners against a
    /// bare channel.
    pub fn new(runner: RunnerId, tx: Sender<ExecEvent>) -> EventSender {
        EventSender { runner, tx }
    }

    /// The runner id this sender stamps onto events.
    pub fn runner(&self) -> RunnerId {
        self.runner
    }

    fn send(&self, event: ExecEvent) {
        // A closed channel means the scheduler is gone; late events from a
        // straggling worker have nowhere useful to go.
        let _ = self.tx.send(event);
    }

    /// Reports that the task's action began executing.
    pub fn started(&self, task: &str) {
        self.send(ExecEvent::Started {
            runner: self.runner,
            task: task.to_owned(),
        });
    }

    /// Reports an advisory progress note for a running task.
    pub fn progress(&self, task: &str, note: &str) {
        self.send(ExecEvent::Progress {
            runner: self.runner,
            task: task.to_owned(),
            note: note.to_owned(),
        });
    }

    /// Reports that the task's action completed successfully.
    pub fn finished(&self, task: &str) {
        self.send(ExecEvent::Finished {
            runner: self.runner,
            task: task.to_owned(),
        });
    }

    /// Reports that the task's action failed.
    pub fn failed(&self, task: &str, message: impl Into<String>) {
        self.send(ExecEvent::Failed {
            runner: self.runner,
            task: task.to_owned(),
            message: message.into(),
        });
    }

    /// Reports that the task's action panicked.
    pub fn panicked(&self, task: &str, message: impl Into<String>) {
        self.send(ExecEvent::Panicked {
            runner: self.runner,
            task: task.to_owned(),
            message: message.into(),
        });
    }

    /// Reports that this runner can no longer execute tasks.
    pub fn runner_lost(&self, reason: impl Into<String>) {
        self.send(ExecEvent::RunnerLost {
            runner: self.runner,
            reason: reason.into(),
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
    /// Tasks currently executing on a runner.
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
    fn events_are_stamped_with_runner_id() {
        let (tx, rx) = channel();
        let sender = EventSender::new(3, tx);
        assert_eq!(sender.runner(), 3);
        sender.started("a");
        sender.progress("a", "halfway");
        sender.finished("a");
        sender.failed("b", "boom");
        sender.panicked("c", "ouch");
        sender.runner_lost("test");
        let events: Vec<ExecEvent> = rx.try_iter().collect();
        assert_eq!(events.len(), 6);
        assert!(events.iter().all(|e| e.runner() == 3));
        assert_eq!(
            events[2],
            ExecEvent::Finished {
                runner: 3,
                task: "a".into()
            }
        );
    }

    #[test]
    fn sends_after_scheduler_exit_are_dropped() {
        let (tx, rx) = channel();
        drop(rx);
        let sender = EventSender::new(0, tx);
        // Must not panic: the scheduler is gone, the event evaporates.
        sender.finished("late");
    }
}
