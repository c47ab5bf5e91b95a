//! Alert provenance: the reconstructed evidence chain behind an alert.
//!
//! Where [`crate::trace`] answers "what happened to this packet", a
//! [`AlertProvenance`] answers "why did this alert fire": the
//! triggering packet, the knowggets the raising module read (each with
//! the module/node/trace that wrote it), the activation state that made
//! the module eligible, and any remote evidence contributed over
//! collective sync. Records are assembled at emission time by the node
//! and exported as JSON (`kalis-trace` renders them as a causal tree)
//! or as CEF extension fields for SIEM pipelines.

use crate::json::{self, JsonError, JsonValue};

/// A pointer into a trace: the originating node plus trace/span ids.
/// `trace_id == 0` means the step ran untraced (sampling off).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRef {
    pub node: String,
    pub trace_id: u64,
    pub span_id: u32,
}

impl TraceRef {
    /// Short human form: `K1#3f2a90cc41bd77e1/17` or `untraced`.
    pub fn label(&self) -> String {
        if self.trace_id == 0 {
            "untraced".to_string()
        } else {
            format!("{}#{:016x}/{}", self.node, self.trace_id, self.span_id)
        }
    }
}

/// The packet whose ingestion triggered the alert.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketRef {
    /// Ingest sequence number on the raising node.
    pub seq: u64,
    /// Human-readable packet summary (kind, src, dst).
    pub summary: String,
}

/// One knowgget the raising module read, with write attribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvidenceKnowgget {
    /// Encoded key, `creator$label@entity`.
    pub key: String,
    /// Value at read time.
    pub value: String,
    /// Module that wrote it (empty when unknown, e.g. operator config).
    pub writer_module: String,
    /// Node the write originated on, and its trace.
    pub origin: TraceRef,
    /// True when the knowgget arrived over collective sync.
    pub remote: bool,
}

/// Why an alert fired: the full evidence chain, assembled at emission.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlertProvenance {
    /// Attack name, severity, and raising module, mirroring the alert.
    pub attack: String,
    pub severity: String,
    pub module: String,
    pub victim: String,
    /// Node that raised the alert and the trace of the triggering
    /// packet.
    pub trace: TraceRef,
    /// Capture-clock microseconds at emission.
    pub time_us: u64,
    /// Triggering packet, when the alert was raised from a packet
    /// dispatch (ticks have none).
    pub packet: Option<PacketRef>,
    /// Activation inputs that made the module eligible, as
    /// `key = value` strings.
    pub activation: Vec<String>,
    /// Knowggets the module's contract declares as reads, resolved
    /// against the knowledge base at emission time.
    pub evidence: Vec<EvidenceKnowgget>,
}

impl AlertProvenance {
    /// Every node named anywhere in the chain, raising node first,
    /// deduplicated.
    pub fn nodes(&self) -> Vec<String> {
        let mut nodes = vec![self.trace.node.clone()];
        for e in &self.evidence {
            if !e.origin.node.is_empty() && !nodes.contains(&e.origin.node) {
                nodes.push(e.origin.node.clone());
            }
        }
        nodes
    }

    /// Evidence that arrived over collective sync.
    pub fn remote_evidence(&self) -> impl Iterator<Item = &EvidenceKnowgget> {
        self.evidence.iter().filter(|e| e.remote)
    }

    /// Serialize to the compact JSON explain format.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("attack".into(), JsonValue::Str(self.attack.clone())),
            ("severity".into(), JsonValue::Str(self.severity.clone())),
            ("module".into(), JsonValue::Str(self.module.clone())),
            ("victim".into(), JsonValue::Str(self.victim.clone())),
            ("trace".into(), trace_ref_to_json(&self.trace)),
            ("time_us".into(), JsonValue::Num(self.time_us)),
        ];
        if let Some(packet) = &self.packet {
            fields.push((
                "packet".into(),
                JsonValue::Obj(vec![
                    ("seq".into(), JsonValue::Num(packet.seq)),
                    ("summary".into(), JsonValue::Str(packet.summary.clone())),
                ]),
            ));
        }
        fields.push((
            "activation".into(),
            JsonValue::Arr(
                self.activation
                    .iter()
                    .map(|a| JsonValue::Str(a.clone()))
                    .collect(),
            ),
        ));
        fields.push((
            "evidence".into(),
            JsonValue::Arr(
                self.evidence
                    .iter()
                    .map(|e| {
                        JsonValue::Obj(vec![
                            ("key".into(), JsonValue::Str(e.key.clone())),
                            ("value".into(), JsonValue::Str(e.value.clone())),
                            ("writer".into(), JsonValue::Str(e.writer_module.clone())),
                            ("origin".into(), trace_ref_to_json(&e.origin)),
                            ("remote".into(), JsonValue::Num(e.remote as u64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        JsonValue::Obj(fields)
    }

    /// Parse a record produced by [`AlertProvenance::to_json`].
    pub fn from_json(input: &str) -> Result<Self, JsonError> {
        let doc = json::parse(input)?;
        Self::from_json_value(&doc)
    }

    /// Parse from an already-parsed JSON value (e.g. an element of an
    /// explain document holding several records).
    pub(crate) fn from_json_value(doc: &JsonValue) -> Result<Self, JsonError> {
        let text = |f: &str| {
            doc.get(f)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| malformed(f))
        };
        let packet = match doc.get("packet") {
            None => None,
            Some(p) => Some(PacketRef {
                seq: p
                    .get("seq")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| malformed("packet.seq"))?,
                summary: p
                    .get("summary")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| malformed("packet.summary"))?
                    .to_string(),
            }),
        };
        let activation = doc
            .get("activation")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| malformed("activation"))?
            .iter()
            .map(|a| {
                a.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| malformed("activation entry"))
            })
            .collect::<Result<_, _>>()?;
        let evidence = doc
            .get("evidence")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| malformed("evidence"))?
            .iter()
            .map(|e| {
                let field = |f: &str| {
                    e.get(f)
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| malformed(f))
                };
                Ok(EvidenceKnowgget {
                    key: field("key")?,
                    value: field("value")?,
                    writer_module: field("writer")?,
                    origin: trace_ref_from_json(
                        e.get("origin").ok_or_else(|| malformed("origin"))?,
                    )?,
                    remote: e
                        .get("remote")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| malformed("remote"))?
                        != 0,
                })
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(AlertProvenance {
            attack: text("attack")?,
            severity: text("severity")?,
            module: text("module")?,
            victim: text("victim")?,
            trace: trace_ref_from_json(doc.get("trace").ok_or_else(|| malformed("trace"))?)?,
            time_us: doc
                .get("time_us")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| malformed("time_us"))?,
            packet,
            activation,
            evidence,
        })
    }

    /// Render the chain as an ASCII causal tree.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Alert: {} ({}) raised by {} on {} at {}us\n",
            self.attack, self.severity, self.module, self.trace.node, self.time_us
        ));
        out.push_str(&format!("├─ trace {}\n", self.trace.label()));
        if !self.victim.is_empty() {
            out.push_str(&format!("├─ victim {}\n", self.victim));
        }
        if let Some(packet) = &self.packet {
            out.push_str(&format!(
                "├─ packet seq={} {}\n",
                packet.seq, packet.summary
            ));
        }
        if !self.activation.is_empty() {
            out.push_str("├─ activation\n");
            for (i, a) in self.activation.iter().enumerate() {
                let tee = if i + 1 == self.activation.len() {
                    "└─"
                } else {
                    "├─"
                };
                out.push_str(&format!("│  {tee} {a}\n"));
            }
        }
        out.push_str("└─ evidence\n");
        if self.evidence.is_empty() {
            out.push_str("   └─ (none declared)\n");
        }
        for (i, e) in self.evidence.iter().enumerate() {
            let tee = if i + 1 == self.evidence.len() {
                "└─"
            } else {
                "├─"
            };
            let locality = if e.remote {
                format!("remote from {}", e.origin.node)
            } else {
                "local".to_string()
            };
            let writer = if e.writer_module.is_empty() {
                "operator/config".to_string()
            } else {
                format!("by {}", e.writer_module)
            };
            out.push_str(&format!(
                "   {tee} {} = {} ({locality}, {writer}, trace {})\n",
                e.key,
                e.value,
                e.origin.label()
            ));
        }
        out
    }
}

fn malformed(what: &str) -> JsonError {
    JsonError {
        offset: 0,
        message: format!("missing or mistyped field {what:?}"),
    }
}

fn trace_ref_to_json(t: &TraceRef) -> JsonValue {
    JsonValue::Obj(vec![
        ("node".into(), JsonValue::Str(t.node.clone())),
        ("trace_id".into(), JsonValue::Num(t.trace_id)),
        ("span_id".into(), JsonValue::Num(t.span_id as u64)),
    ])
}

fn trace_ref_from_json(v: &JsonValue) -> Result<TraceRef, JsonError> {
    Ok(TraceRef {
        node: v
            .get("node")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| malformed("node"))?
            .to_string(),
        trace_id: v
            .get("trace_id")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| malformed("trace_id"))?,
        span_id: u32::try_from(
            v.get("span_id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| malformed("span_id"))?,
        )
        .map_err(|_| malformed("span_id"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AlertProvenance {
        AlertProvenance {
            attack: "Wormhole".into(),
            severity: "High".into(),
            module: "WormholeModule".into(),
            victim: "n3".into(),
            trace: TraceRef {
                node: "K1".into(),
                trace_id: 0x3f2a_90cc_41bd_77e1,
                span_id: 17,
            },
            time_us: 2_100,
            packet: Some(PacketRef {
                seq: 42,
                summary: "data n3->n7".into(),
            }),
            activation: vec!["kalis-node$Net.Multihop@ = true".into()],
            evidence: vec![
                EvidenceKnowgget {
                    key: "WormholeModule$DroppedOrigins@n3".into(),
                    value: "n1,n2".into(),
                    writer_module: "WormholeModule".into(),
                    origin: TraceRef {
                        node: "K1".into(),
                        trace_id: 0x3f2a_90cc_41bd_77e1,
                        span_id: 9,
                    },
                    remote: false,
                },
                EvidenceKnowgget {
                    key: "TrafficModule$ExoticOrigins@n9".into(),
                    value: "n1,n2".into(),
                    writer_module: "TrafficModule".into(),
                    origin: TraceRef {
                        node: "K2".into(),
                        trace_id: 0x9911_aabb_ccdd_eeff,
                        span_id: 3,
                    },
                    remote: true,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let text = p.to_json();
        let back = AlertProvenance::from_json(&text).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn json_round_trips_without_packet() {
        let mut p = sample();
        p.packet = None;
        let back = AlertProvenance::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn nodes_spans_the_collective() {
        let p = sample();
        assert_eq!(p.nodes(), vec!["K1".to_string(), "K2".to_string()]);
        assert_eq!(p.remote_evidence().count(), 1);
    }

    #[test]
    fn tree_names_remote_origin() {
        let tree = sample().render_tree();
        assert!(tree.contains("Alert: Wormhole (High)"));
        assert!(tree.contains("remote from K2"));
        assert!(tree.contains("K2#9911aabbccddeeff/3"));
        assert!(tree.contains("packet seq=42"));
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(AlertProvenance::from_json("{}").is_err());
        assert!(AlertProvenance::from_json("[]").is_err());
        let mut good = sample().to_json();
        good.truncate(good.len() - 2);
        assert!(AlertProvenance::from_json(&good).is_err());
    }
}
