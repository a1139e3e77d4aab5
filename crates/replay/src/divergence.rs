//! Strict event-by-event verification of a replayed run against a
//! recorded trace.
//!
//! The guarantee being checked is exact: a re-run with the same seed,
//! scenario, and code must reproduce the recorded event sequence
//! bit-for-bit (timestamps included — the workspace's determinism is
//! IEEE-754-exact). The first mismatch fails fast with a structured
//! [`DivergenceError`] naming the event index, the expected and
//! observed event kinds, the rank, and the virtual timestamp, e.g.
//!
//! ```text
//! event 1041: expected Recv{src:3}, got Collective{Allreduce} (rank 7, t=3.125e-2)
//! ```

use std::fmt;

use crate::event::ReplayEvent;

/// The replayed run departed from the recorded trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceError {
    /// Zero-based index of the first mismatching event.
    pub index: usize,
    /// What the trace recorded at this index (`None`: the trace ended
    /// but the re-run produced more events).
    pub expected: Option<ReplayEvent>,
    /// What the re-run produced at this index (`None`: the re-run ended
    /// but the trace has more events).
    pub observed: Option<ReplayEvent>,
}

impl fmt::Display for DivergenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.expected, &self.observed) {
            (Some(exp), Some(obs)) => {
                write!(
                    f,
                    "event {}: expected {}, got {}",
                    self.index,
                    exp.describe(),
                    obs.describe()
                )?;
                // Locate the divergence: rank/time of the observed event
                // if it has them, otherwise of the expected one.
                let rank = obs.rank().or_else(|| exp.rank());
                let vtime = obs.vtime().or_else(|| exp.vtime());
                match (rank, vtime) {
                    (Some(r), Some(t)) => write!(f, " (rank {r}, t={t:e})"),
                    (Some(r), None) => write!(f, " (rank {r})"),
                    (None, Some(t)) => write!(f, " (t={t:e})"),
                    (None, None) => Ok(()),
                }
            }
            (Some(exp), None) => write!(
                f,
                "event {}: expected {}, but the replayed run ended early",
                self.index,
                exp.describe()
            ),
            (None, Some(obs)) => write!(
                f,
                "event {}: trace ended, but the replayed run produced {}",
                self.index,
                obs.describe()
            ),
            (None, None) => write!(f, "event {}: divergence", self.index),
        }
    }
}

impl std::error::Error for DivergenceError {}

/// Compare a replayed event stream against the recorded one, strictly
/// and element-wise. Returns the first divergence, or `Ok(())` if the
/// streams are identical (length included).
pub fn verify(expected: &[ReplayEvent], observed: &[ReplayEvent]) -> Result<(), DivergenceError> {
    let n = expected.len().min(observed.len());
    for i in 0..n {
        if expected[i] != observed[i] {
            return Err(DivergenceError {
                index: i,
                expected: Some(expected[i]),
                observed: Some(observed[i]),
            });
        }
    }
    if expected.len() != observed.len() {
        return Err(DivergenceError {
            index: n,
            expected: expected.get(n).copied(),
            observed: observed.get(n).copied(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpx_machine::{CollectiveKind, DesEvent, DesEventKind};

    fn ev_recv(rank: u32, src: u32) -> ReplayEvent {
        ReplayEvent::Des(DesEvent {
            rank,
            vtime: 1.0,
            kind: DesEventKind::Recv { src, tag: 0 },
        })
    }

    #[test]
    fn identical_streams_verify() {
        let a = vec![ev_recv(0, 1), ev_recv(1, 0)];
        assert_eq!(verify(&a, &a.clone()), Ok(()));
    }

    #[test]
    fn first_mismatch_reported_with_both_kinds() {
        let expected = vec![
            ev_recv(0, 1),
            ev_recv(7, 3),
            ReplayEvent::Des(DesEvent {
                rank: 0,
                vtime: 2.0,
                kind: DesEventKind::Finish,
            }),
        ];
        let mut observed = expected.clone();
        observed[1] = ReplayEvent::Des(DesEvent {
            rank: 7,
            vtime: 1.0,
            kind: DesEventKind::Collective {
                kind: CollectiveKind::Allreduce,
                group: 0,
            },
        });
        let err = verify(&expected, &observed).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.expected, Some(expected[1]));
        assert_eq!(err.observed, Some(observed[1]));
        let msg = err.to_string();
        assert!(msg.contains("event 1"), "{msg}");
        assert!(msg.contains("expected Recv{src:3}"), "{msg}");
        assert!(msg.contains("got Collective{Allreduce}"), "{msg}");
        assert!(msg.contains("rank 7"), "{msg}");
    }

    #[test]
    fn timestamp_only_difference_is_a_divergence() {
        let expected = vec![ev_recv(0, 1)];
        let mut observed = expected.clone();
        if let ReplayEvent::Des(DesEvent { vtime, .. }) = &mut observed[0] {
            *vtime += 1.0e-15;
        }
        assert!(verify(&expected, &observed).is_err());
    }

    #[test]
    fn length_mismatch_reported_as_early_end() {
        let expected = vec![ev_recv(0, 1), ev_recv(1, 0)];
        let observed = vec![ev_recv(0, 1)];
        let err = verify(&expected, &observed).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.expected, Some(expected[1]));
        assert_eq!(err.observed, None);
        assert!(err.to_string().contains("ended early"));

        let err = verify(&observed, &expected).unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.expected, None);
        assert!(err.to_string().contains("trace ended"));
    }
}
