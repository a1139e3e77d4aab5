//! JSON serialization for runtime result types.
//!
//! No format crate is in the offline dependency tree, so the JSON path
//! for [`TimeReport`], [`RankOutcome`] and [`CommError`] lives here, on
//! the deterministic [`cpx_obs::Json`] value type. Reports and traces share
//! this one path instead of hand-formatted strings.

use cpx_obs::json::{field, FromJson, Json, JsonError, ToJson};

use crate::fault::CommError;
use crate::runtime::{RankOutcome, RankRun, TimeReport};

impl ToJson for TimeReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("elapsed", Json::Num(self.elapsed)),
            ("compute", Json::Num(self.compute)),
            ("comm", Json::Num(self.comm)),
            ("messages_sent", Json::Num(self.messages_sent as f64)),
            ("bytes_sent", Json::Num(self.bytes_sent as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("dropped_msgs", Json::Num(self.dropped_msgs as f64)),
            ("corrupted_msgs", Json::Num(self.corrupted_msgs as f64)),
            ("recovery_time", Json::Num(self.recovery_time)),
        ])
    }
}

impl FromJson for TimeReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(TimeReport {
            elapsed: field(v, "elapsed")?,
            compute: field(v, "compute")?,
            comm: field(v, "comm")?,
            messages_sent: field(v, "messages_sent")?,
            bytes_sent: field(v, "bytes_sent")?,
            retries: field(v, "retries")?,
            dropped_msgs: field(v, "dropped_msgs")?,
            corrupted_msgs: field(v, "corrupted_msgs")?,
            recovery_time: field(v, "recovery_time")?,
        })
    }
}

impl ToJson for CommError {
    fn to_json(&self) -> Json {
        match self {
            CommError::PeerDead { peer, at } => Json::obj(vec![
                ("kind", Json::Str("peer_dead".into())),
                ("peer", Json::Num(*peer as f64)),
                ("at", Json::Num(*at)),
            ]),
            CommError::Timeout { src, tag, waited } => Json::obj(vec![
                ("kind", Json::Str("timeout".into())),
                ("src", Json::Num(*src as f64)),
                ("tag", Json::Num(*tag as f64)),
                ("waited", Json::Num(*waited)),
            ]),
            CommError::Dropped { dst, tag, attempt } => Json::obj(vec![
                ("kind", Json::Str("dropped".into())),
                ("dst", Json::Num(*dst as f64)),
                ("tag", Json::Num(*tag as f64)),
                ("attempt", Json::Num(*attempt as f64)),
            ]),
            CommError::RankOutOfRange { rank, size } => Json::obj(vec![
                ("kind", Json::Str("rank_out_of_range".into())),
                ("rank", Json::Num(*rank as f64)),
                ("size", Json::Num(*size as f64)),
            ]),
            CommError::Corrupted {
                src,
                tag,
                crc_sent,
                crc_got,
            } => Json::obj(vec![
                ("kind", Json::Str("corrupted".into())),
                ("src", Json::Num(*src as f64)),
                ("tag", Json::Num(*tag as f64)),
                // CRCs are opaque 64-bit values; hex strings survive the
                // f64 number path losslessly.
                ("crc_sent", Json::Str(format!("{crc_sent:016x}"))),
                ("crc_got", Json::Str(format!("{crc_got:016x}"))),
            ]),
            CommError::Revoked { peer, at } => Json::obj(vec![
                ("kind", Json::Str("revoked".into())),
                ("peer", Json::Num(*peer as f64)),
                ("at", Json::Num(*at)),
            ]),
            CommError::RankDone { peer } => Json::obj(vec![
                ("kind", Json::Str("rank_done".into())),
                ("peer", Json::Num(*peer as f64)),
            ]),
        }
    }
}

impl FromJson for CommError {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let kind: String = field(v, "kind")?;
        match kind.as_str() {
            "peer_dead" => Ok(CommError::PeerDead {
                peer: field(v, "peer")?,
                at: field(v, "at")?,
            }),
            "timeout" => Ok(CommError::Timeout {
                src: field(v, "src")?,
                tag: field::<u64>(v, "tag")?,
                waited: field(v, "waited")?,
            }),
            "dropped" => Ok(CommError::Dropped {
                dst: field(v, "dst")?,
                tag: field::<u64>(v, "tag")?,
                attempt: field(v, "attempt")?,
            }),
            "rank_out_of_range" => Ok(CommError::RankOutOfRange {
                rank: field(v, "rank")?,
                size: field(v, "size")?,
            }),
            "corrupted" => {
                let crc = |key: &str| -> Result<u64, JsonError> {
                    let s: String = field(v, key)?;
                    u64::from_str_radix(&s, 16)
                        .map_err(|_| JsonError::convert(format!("bad hex crc in '{key}'")))
                };
                Ok(CommError::Corrupted {
                    src: field(v, "src")?,
                    tag: field::<u64>(v, "tag")?,
                    crc_sent: crc("crc_sent")?,
                    crc_got: crc("crc_got")?,
                })
            }
            "revoked" => Ok(CommError::Revoked {
                peer: field(v, "peer")?,
                at: field(v, "at")?,
            }),
            "rank_done" => Ok(CommError::RankDone {
                peer: field(v, "peer")?,
            }),
            other => Err(JsonError::convert(format!(
                "unknown CommError kind '{other}'"
            ))),
        }
    }
}

impl<T: ToJson> ToJson for RankOutcome<T> {
    fn to_json(&self) -> Json {
        match self {
            RankOutcome::Completed(t) => Json::obj(vec![
                ("outcome", Json::Str("completed".into())),
                ("value", t.to_json()),
            ]),
            RankOutcome::Failed(e) => Json::obj(vec![
                ("outcome", Json::Str("failed".into())),
                ("error", e.to_json()),
            ]),
            RankOutcome::Crashed { at } => Json::obj(vec![
                ("outcome", Json::Str("crashed".into())),
                ("at", Json::Num(*at)),
            ]),
            RankOutcome::Panicked(_) => Json::obj(vec![
                ("outcome", Json::Str("panicked".into())),
                (
                    "message",
                    Json::Str(
                        self.panic_message()
                            .unwrap_or("<non-string payload>")
                            .to_string(),
                    ),
                ),
            ]),
        }
    }
}

impl<T: FromJson> FromJson for RankOutcome<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let outcome: String = field(v, "outcome")?;
        match outcome.as_str() {
            "completed" => Ok(RankOutcome::Completed(field(v, "value")?)),
            "failed" => Ok(RankOutcome::Failed(field(v, "error")?)),
            "crashed" => Ok(RankOutcome::Crashed {
                at: field(v, "at")?,
            }),
            // A deserialized panic payload is necessarily just its
            // message string; `panic_message` recovers it.
            "panicked" => Ok(RankOutcome::Panicked(Box::new(field::<String>(
                v, "message",
            )?))),
            other => Err(JsonError::convert(format!("unknown outcome '{other}'"))),
        }
    }
}

impl<T: ToJson> ToJson for RankRun<T> {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("outcome", self.outcome.to_json()),
            ("report", self.report.to_json()),
        ])
    }
}

impl<T: FromJson> FromJson for RankRun<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(RankRun {
            outcome: field(v, "outcome")?,
            report: field(v, "report")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TimeReport {
        TimeReport {
            elapsed: 12.5,
            compute: 7.25,
            comm: 5.25,
            messages_sent: 421,
            bytes_sent: 1 << 30,
            retries: 3,
            dropped_msgs: 3,
            corrupted_msgs: 1,
            recovery_time: 0.125,
        }
    }

    #[test]
    fn time_report_round_trips() {
        let r = report();
        let text = r.to_json().write();
        let back = TimeReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn comm_errors_round_trip() {
        let errors = vec![
            CommError::PeerDead { peer: 3, at: 1.5 },
            CommError::Timeout {
                src: 1,
                tag: 0xdead,
                waited: 0.01,
            },
            CommError::Dropped {
                dst: 2,
                tag: 7,
                attempt: 4,
            },
            CommError::RankOutOfRange { rank: 9, size: 4 },
            CommError::Corrupted {
                src: 0,
                tag: 400,
                crc_sent: u64::MAX,
                crc_got: 0x0123_4567_89ab_cdef,
            },
            CommError::Revoked { peer: 2, at: 0.125 },
            CommError::RankDone { peer: 5 },
        ];
        for e in errors {
            let text = e.to_json().write();
            let back = CommError::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, e, "round trip failed for {e:?}");
        }
    }

    #[test]
    fn rank_outcomes_round_trip() {
        let cases: Vec<RankOutcome<f64>> = vec![
            RankOutcome::Completed(3.5),
            RankOutcome::Failed(CommError::PeerDead { peer: 1, at: 2.0 }),
            RankOutcome::Crashed { at: 0.75 },
            RankOutcome::Panicked(Box::new("boom".to_string())),
        ];
        for outcome in cases {
            let text = outcome.to_json().write();
            let back = RankOutcome::<f64>::from_json(&Json::parse(&text).unwrap()).unwrap();
            match (&outcome, &back) {
                (RankOutcome::Completed(a), RankOutcome::Completed(b)) => assert_eq!(a, b),
                (RankOutcome::Failed(a), RankOutcome::Failed(b)) => assert_eq!(a, b),
                (RankOutcome::Crashed { at: a }, RankOutcome::Crashed { at: b }) => {
                    assert_eq!(a, b)
                }
                (RankOutcome::Panicked(_), RankOutcome::Panicked(_)) => {
                    assert_eq!(back.panic_message(), Some("boom"))
                }
                (a, b) => panic!("variant mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn rank_run_round_trips() {
        let run = RankRun {
            outcome: RankOutcome::Completed(1.25_f64),
            report: report(),
        };
        let text = run.to_json().write();
        let back = RankRun::<f64>::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.report, run.report);
        assert!(matches!(back.outcome, RankOutcome::Completed(x) if x == 1.25));
    }
}
