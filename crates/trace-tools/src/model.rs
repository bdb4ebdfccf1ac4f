//! The JSONL trace document model: meta line, event records, and a replay
//! into the live [`Provenance`] index from `alphonse::trace`.
//!
//! The format is produced by `alphonse::trace::JsonlSink`: one meta object
//! on the first line, then one event object per line. Files written before
//! the meta line lost its always-zero `"dropped"` key still parse: keys
//! the model does not read are ignored. This module parses it back into real
//! [`TraceEvent`] values, so every analysis downstream reuses the same
//! types — and the same causal index — the runtime feeds live.

use crate::json::Json;
use alphonse::trace::{DirtyReason, Provenance, TraceEvent, TraceSink};
use alphonse::{NodeId, NodeKind};
use std::sync::Arc;

/// The document header: `{"meta":{...}}` on line 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    /// Format tag; must be `alphonse-trace`.
    pub format: String,
    /// Line-layout version.
    pub version: u64,
}

/// One event line: timestamp, optional wave stamp, the decoded event, and
/// the label the writer resolved for the event's node (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Microseconds since the writing sink was created.
    pub ts: u64,
    /// The propagation wave this event was delivered in, when inside one.
    pub wave: Option<u64>,
    /// The decoded runtime event.
    pub event: TraceEvent,
    /// The `"label"` field of the line, when present.
    pub label: Option<String>,
}

/// A fully parsed trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// The meta header.
    pub meta: Meta,
    /// Every event line, in file order.
    pub records: Vec<Record>,
}

fn field_u64(obj: &Json, key: &str, line: usize) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {line}: missing or non-integer `{key}`"))
}

fn field_bool(obj: &Json, key: &str, line: usize) -> Result<bool, String> {
    obj.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("line {line}: missing or non-boolean `{key}`"))
}

fn field_node(obj: &Json, key: &str, line: usize) -> Result<NodeId, String> {
    field_u64(obj, key, line).map(|i| NodeId::from_index(i as usize))
}

fn parse_reason(s: &str, line: usize) -> Result<DirtyReason, String> {
    match s {
        "WriteChanged" => Ok(DirtyReason::WriteChanged),
        "Fanout" => Ok(DirtyReason::Fanout),
        "Requeue" => Ok(DirtyReason::Requeue),
        other => Err(format!("line {line}: unknown dirty reason `{other}`")),
    }
}

fn parse_kind(s: &str, line: usize) -> Result<NodeKind, String> {
    match s {
        "Location" => Ok(NodeKind::Location),
        "Computation" => Ok(NodeKind::Computation),
        other => Err(format!("line {line}: unknown node kind `{other}`")),
    }
}

fn parse_event(obj: &Json, label: Option<&str>, line: usize) -> Result<TraceEvent, String> {
    let ev = obj
        .get("ev")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("line {line}: missing `ev`"))?;
    let node = |key: &str| field_node(obj, key, line);
    Ok(match ev {
        "NodeCreated" => TraceEvent::NodeCreated {
            node: node("node")?,
            kind: obj
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {line}: missing `kind`"))
                .and_then(|s| parse_kind(s, line))?,
            label: label.map(Arc::from),
        },
        "Labeled" => TraceEvent::Labeled {
            node: node("node")?,
            label: Arc::from(label.ok_or_else(|| format!("line {line}: Labeled without `label`"))?),
        },
        "Read" => TraceEvent::Read {
            node: node("node")?,
        },
        "Write" => TraceEvent::Write {
            node: node("node")?,
            changed: field_bool(obj, "changed", line)?,
        },
        "Dirtied" => TraceEvent::Dirtied {
            node: node("node")?,
            reason: obj
                .get("reason")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {line}: missing `reason`"))
                .and_then(|s| parse_reason(s, line))?,
            cause: match obj.get("cause") {
                Some(c) => Some(NodeId::from_index(
                    c.as_u64()
                        .ok_or_else(|| format!("line {line}: non-integer `cause`"))?
                        as usize,
                )),
                None => None,
            },
        },
        "PropagateBegin" => TraceEvent::PropagateBegin {
            wave: field_u64(obj, "wave", line)?,
        },
        "PropagateEnd" => TraceEvent::PropagateEnd {
            wave: field_u64(obj, "wave", line)?,
            steps: field_u64(obj, "steps", line)?,
        },
        "LevelBegin" => TraceEvent::LevelBegin {
            wave: field_u64(obj, "wave", line)?,
            height: field_u64(obj, "height", line)? as u32,
            width: field_u64(obj, "width", line)?,
        },
        "LevelEnd" => TraceEvent::LevelEnd {
            wave: field_u64(obj, "wave", line)?,
            height: field_u64(obj, "height", line)? as u32,
            executed: field_u64(obj, "executed", line)?,
        },
        "ExecuteBegin" => TraceEvent::ExecuteBegin {
            node: node("node")?,
        },
        "ExecuteEnd" => TraceEvent::ExecuteEnd {
            node: node("node")?,
            changed: field_bool(obj, "changed", line)?,
        },
        "CacheHit" => TraceEvent::CacheHit {
            node: node("node")?,
        },
        "CutoffStop" => TraceEvent::CutoffStop {
            node: node("node")?,
        },
        "EdgeAdded" => TraceEvent::EdgeAdded {
            from: node("from")?,
            to: node("to")?,
        },
        "EdgeRemoved" => TraceEvent::EdgeRemoved {
            from: node("from")?,
            to: node("to")?,
        },
        "BatchCommit" => TraceEvent::BatchCommit {
            writes: field_u64(obj, "writes", line)?,
            coalesced: field_u64(obj, "coalesced", line)?,
            wave: field_u64(obj, "wave", line)?,
        },
        other => return Err(format!("line {line}: unknown event `{other}`")),
    })
}

impl TraceFile {
    /// Parses a full JSONL document (meta line + event lines). Blank lines
    /// are skipped; any malformed line aborts with its 1-based line number.
    pub fn parse(text: &str) -> Result<TraceFile, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty());
        let (line_no, first) = lines.next().ok_or_else(|| "empty trace file".to_string())?;
        let head = Json::parse(first).map_err(|e| format!("line {line_no}: {e}"))?;
        let meta_obj = head
            .get("meta")
            .ok_or_else(|| format!("line {line_no}: first line is not a meta object"))?;
        let meta = Meta {
            format: meta_obj
                .get("format")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            version: field_u64(meta_obj, "version", line_no)?,
        };
        if meta.format != alphonse::trace::JSONL_FORMAT {
            return Err(format!(
                "not an alphonse trace (format tag `{}`)",
                meta.format
            ));
        }
        if meta.version != u64::from(alphonse::trace::JSONL_VERSION) {
            return Err(format!(
                "unsupported trace version {} (this tool reads version {})",
                meta.version,
                alphonse::trace::JSONL_VERSION
            ));
        }
        let mut records = Vec::new();
        for (line_no, line) in lines {
            let obj = Json::parse(line).map_err(|e| format!("line {line_no}: {e}"))?;
            let label = obj.get("label").and_then(Json::as_str).map(str::to_string);
            records.push(Record {
                ts: field_u64(&obj, "ts", line_no)?,
                wave: obj.get("wave").and_then(Json::as_u64),
                event: parse_event(&obj, label.as_deref(), line_no)?,
                label,
            });
        }
        Ok(TraceFile { meta, records })
    }

    /// Replays the document into a fresh [`Provenance`] index, exactly as if
    /// it had been attached live. Labels survive the round trip: writers
    /// stamp each record with its node's resolved label, and the replay
    /// re-announces any label the index has not seen yet (a `NodeCreated`
    /// may have been evicted from a bounded recording).
    pub fn replay_provenance(&self) -> Provenance {
        let prov = Provenance::new();
        for rec in &self.records {
            if let (Some(label), Some(node)) = (&rec.label, rec.event.node()) {
                if prov.label(node).as_deref() != Some(label) {
                    prov.event(&TraceEvent::Labeled {
                        node,
                        label: Arc::from(label.as_str()),
                    });
                }
            }
            prov.event(&rec.event);
        }
        prov
    }

    /// Total count of `ExecuteEnd` records — the denominator of the waste
    /// report's completeness invariant.
    pub fn executions(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ExecuteEnd { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"meta":{"format":"alphonse-trace","version":1,"dropped":0}}
{"ts":0,"ev":"NodeCreated","node":0,"kind":"Location","label":"a"}
{"ts":1,"ev":"Write","node":0,"changed":true,"label":"a"}
{"ts":2,"ev":"Dirtied","node":0,"reason":"WriteChanged","label":"a"}
{"ts":3,"wave":1,"ev":"PropagateBegin"}
{"ts":4,"wave":1,"ev":"Dirtied","node":1,"reason":"Fanout","cause":0}
{"ts":5,"wave":1,"ev":"ExecuteEnd","node":1,"changed":true}
{"ts":6,"wave":1,"ev":"PropagateEnd","steps":2}
"#;

    #[test]
    fn parses_meta_and_records() {
        let tf = TraceFile::parse(SAMPLE).unwrap();
        assert_eq!(tf.meta.version, 1);
        assert_eq!(tf.records.len(), 7);
        assert_eq!(tf.records[0].label.as_deref(), Some("a"));
        assert_eq!(
            tf.records[4].event,
            TraceEvent::Dirtied {
                node: NodeId::from_index(1),
                reason: DirtyReason::Fanout,
                cause: Some(NodeId::from_index(0)),
            }
        );
        assert_eq!(tf.records[4].wave, Some(1));
        assert_eq!(tf.executions(), 1);
    }

    #[test]
    fn replay_reconstructs_why_chain() {
        let tf = TraceFile::parse(SAMPLE).unwrap();
        let prov = tf.replay_provenance();
        let chain = prov.why(NodeId::from_index(1)).expect("n1 was dirtied");
        assert_eq!(chain.wave, Some(1));
        assert_eq!(chain.write, Some((NodeId::from_index(0), true)));
        assert_eq!(chain.exec, Some(true));
        assert_eq!(prov.node_by_label("a"), Some(NodeId::from_index(0)));
    }

    #[test]
    fn parses_level_brackets() {
        let text = r#"{"meta":{"format":"alphonse-trace","version":1}}
{"ts":0,"wave":3,"ev":"PropagateBegin"}
{"ts":1,"wave":3,"ev":"LevelBegin","height":2,"width":5}
{"ts":2,"wave":3,"ev":"LevelEnd","height":2,"executed":4}
{"ts":3,"wave":3,"ev":"PropagateEnd","steps":5}
"#;
        let tf = TraceFile::parse(text).unwrap();
        assert_eq!(
            tf.records[1].event,
            TraceEvent::LevelBegin {
                wave: 3,
                height: 2,
                width: 5
            }
        );
        assert_eq!(
            tf.records[2].event,
            TraceEvent::LevelEnd {
                wave: 3,
                height: 2,
                executed: 4
            }
        );
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(TraceFile::parse("").is_err());
        assert!(TraceFile::parse(r#"{"ts":0,"ev":"Read","node":0}"#).is_err());
        assert!(
            TraceFile::parse(r#"{"meta":{"format":"other","version":1,"dropped":0}}"#).is_err()
        );
        assert!(TraceFile::parse(
            r#"{"meta":{"format":"alphonse-trace","version":99,"dropped":0}}"#
        )
        .is_err());
    }

    #[test]
    fn malformed_lines_report_their_number() {
        let text = "{\"meta\":{\"format\":\"alphonse-trace\",\"version\":1,\"dropped\":0}}\n{\"ts\":0,\"ev\":\"Nope\"}";
        let err = TraceFile::parse(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
