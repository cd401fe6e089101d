//! Flat per-rank event timeline, derived from a recording.
//!
//! One row per runtime event: `time_ns,rank,kind,peer,amount`, where
//! `kind` is one of `send_posted`, `recv_posted`, `send_done`,
//! `recv_done`, `peer_failed` and `finish`. Every row is a view over fields the
//! recorder already keeps:
//!
//! | kind | source | peer | amount |
//! |---|---|---|---|
//! | `send_posted` | [`MsgRec::posted_ns`] | destination | bytes |
//! | `recv_posted` | [`MsgRec::recv_posted_ns`] | source | 0 |
//! | `send_done` | a [`Trigger::SendDone`] dispatch | 0 | 0 |
//! | `recv_done` | a [`Trigger::RecvDone`] dispatch | source | bytes |
//! | `peer_failed` | a [`Trigger::PeerFailed`] dispatch | dead rank | 0 |
//! | `finish` | [`ObsData::per_rank_finish_ns`] | 0 | 0 |
//!
//! A receive that never matched (its peer was killed) has no message
//! record, so it has no `recv_posted` row; a killed rank still gets its
//! `finish` row. Rows are sorted by every column, so the file is
//! byte-identical across runs of the same configuration.
//!
//! [`MsgRec::posted_ns`]: crate::MsgRec::posted_ns
//! [`MsgRec::recv_posted_ns`]: crate::MsgRec::recv_posted_ns

use crate::record::{ObsData, Trigger};
use std::fmt::Write as _;

/// Header row of the event CSV.
const EVENTS_HEADER: &str = "time_ns,rank,kind,peer,amount";

/// Render the recording's per-rank event timeline as CSV.
pub fn events_csv(data: &ObsData) -> String {
    let mut rows: Vec<(u64, u32, &str, u32, u64)> = Vec::new();
    for m in &data.msgs {
        if let Some(t) = m.posted_ns {
            rows.push((t, m.src, "send_posted", m.dst, m.bytes));
        }
        if let Some(t) = m.recv_posted_ns {
            rows.push((t, m.dst, "recv_posted", m.src, 0));
        }
    }
    for d in &data.dispatches {
        match d.trigger {
            Trigger::SendDone { .. } => rows.push((d.begin_ns, d.rank, "send_done", 0, 0)),
            Trigger::RecvDone { msg } => {
                let m = &data.msgs[msg as usize];
                rows.push((d.begin_ns, d.rank, "recv_done", m.src, m.bytes));
            }
            Trigger::PeerFailed { rank } => rows.push((d.begin_ns, d.rank, "peer_failed", rank, 0)),
            _ => {}
        }
    }
    for (rank, &t) in data.per_rank_finish_ns.iter().enumerate() {
        rows.push((t, rank as u32, "finish", 0, 0));
    }
    rows.sort_unstable();
    let mut out = String::with_capacity(EVENTS_HEADER.len() + 1 + rows.len() * 28);
    out.push_str(EVENTS_HEADER);
    out.push('\n');
    for (t, rank, kind, peer, amount) in rows {
        writeln!(out, "{t},{rank},{kind},{peer},{amount}").expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DispatchSpan, MsgRec};

    #[test]
    fn every_kind_comes_from_its_record_and_rows_sort() {
        let obs = ObsData {
            nranks: 2,
            msgs: vec![MsgRec {
                src: 0,
                dst: 1,
                bytes: 4096,
                posted_ns: Some(1500),
                recv_posted_ns: Some(100),
                ..MsgRec::default()
            }],
            dispatches: vec![
                DispatchSpan {
                    rank: 1,
                    begin_ns: 2500,
                    end_ns: 2600,
                    trigger: Trigger::RecvDone { msg: 0 },
                },
                DispatchSpan {
                    rank: 0,
                    begin_ns: 2000,
                    end_ns: 2100,
                    trigger: Trigger::SendDone { msg: 0 },
                },
                DispatchSpan {
                    rank: 0,
                    begin_ns: 0,
                    end_ns: 10,
                    trigger: Trigger::Start,
                },
            ],
            per_rank_finish_ns: vec![2100, 2600],
            ..ObsData::default()
        };
        assert_eq!(
            events_csv(&obs),
            "time_ns,rank,kind,peer,amount\n\
             100,1,recv_posted,0,0\n\
             1500,0,send_posted,1,4096\n\
             2000,0,send_done,0,0\n\
             2100,0,finish,0,0\n\
             2500,1,recv_done,0,4096\n\
             2600,1,finish,0,0\n"
        );
    }

    #[test]
    fn an_empty_recording_is_just_the_header() {
        assert_eq!(
            events_csv(&ObsData::default()),
            "time_ns,rank,kind,peer,amount\n"
        );
    }
}
