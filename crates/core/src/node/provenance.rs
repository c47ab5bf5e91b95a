//! Why an alert was raised: each alert's provenance record — the
//! triggering packet, the activation state that made its module
//! eligible, and the knowggets the module declared it reads, with the
//! module, node and trace that wrote each — assembled at emission
//! time, while the triggering state is still in place.

use kalis_telemetry::{AlertProvenance, EvidenceKnowgget, PacketRef, TraceRef, ROOT_SPAN};

use crate::knowledge::{KnowKey, KnowValue};
use crate::modules::{KeyPattern, KeyUse};

use super::Kalis;

impl Kalis {
    /// The provenance record assembled for `alerts()[index]`: the
    /// triggering packet, the knowggets the raising module read (with
    /// the module/node/trace that wrote each), the activation state that
    /// made the module eligible, and any remote evidence contributed
    /// over collective sync.
    pub fn explain_alert(&self, index: usize) -> Option<&AlertProvenance> {
        self.provenance.get(index)
    }

    /// Provenance records parallel to [`Kalis::alerts`].
    pub fn alert_provenance(&self) -> &[AlertProvenance] {
        &self.provenance
    }

    /// Build the evidence chain for `alerts()[index]` from the raising
    /// module's declared contract, resolved against the Knowledge Base
    /// at emission time.
    pub(super) fn assemble_provenance(&self, index: usize, time_us: u64) -> AlertProvenance {
        let alert = &self.alerts[index];
        let contract = self.manager.contract_of(&alert.module).unwrap_or_default();
        let mut activation = Vec::new();
        for input in contract.activation_inputs() {
            let label = input.pattern.root();
            let value = self
                .kb
                .get(label)
                .map_or_else(|| "unset".to_owned(), |v| v.to_string());
            activation.push(format!("{label} = {value}"));
        }
        let mut evidence = Vec::new();
        for read in &contract.reads {
            self.resolve_evidence(read, &mut evidence);
        }
        let packet = self.current_packet_seq.map(|seq| PacketRef {
            seq,
            summary: self.store.window().last().map_or_else(String::new, |p| {
                format!("medium={:?} bytes={}", p.medium, p.raw.len())
            }),
        });
        AlertProvenance {
            attack: alert.attack.to_string(),
            severity: alert.severity.to_string(),
            module: alert.module.clone(),
            victim: alert
                .victim
                .as_ref()
                .map_or_else(String::new, |v| v.to_string()),
            trace: TraceRef {
                node: self.id.to_string(),
                trace_id: alert.trace_id,
                span_id: if alert.trace_id == 0 { 0 } else { ROOT_SPAN },
            },
            time_us,
            packet,
            activation,
            evidence,
        }
    }

    /// Resolve one declared read against the Knowledge Base: collective
    /// reads enumerate every creator's copy (remote evidence), family
    /// reads enumerate the discovered members, per-entity reads every
    /// entity, and plain reads the single local knowgget.
    fn resolve_evidence(&self, read: &KeyUse, out: &mut Vec<EvidenceKnowgget>) {
        let label = read.pattern.root();
        if read.collective {
            for (creator, entity, value) in self.kb.get_all_creators(label) {
                let remote = creator != self.id;
                let key = KnowKey {
                    creator,
                    label: label.to_owned(),
                    entity,
                };
                out.push(self.evidence_entry(key, &value, remote));
            }
            return;
        }
        match &read.pattern {
            KeyPattern::Family(root) => {
                for (member, value) in self.kb.sublabels(root) {
                    let key = KnowKey::new(self.id.clone(), member);
                    out.push(self.evidence_entry(key, &value, false));
                }
            }
            KeyPattern::Exact(label) if read.per_entity => {
                for (entity, value) in self.kb.entities_with(label) {
                    let key = KnowKey::about(self.id.clone(), label.clone(), entity);
                    out.push(self.evidence_entry(key, &value, false));
                }
            }
            KeyPattern::Exact(label) => {
                if let Some(value) = self.kb.get(label) {
                    let key = KnowKey::new(self.id.clone(), label.clone());
                    out.push(self.evidence_entry(key, &value, false));
                }
            }
        }
    }

    fn evidence_entry(&self, key: KnowKey, value: &KnowValue, remote: bool) -> EvidenceKnowgget {
        let node = key.creator.to_string();
        let encoded = key.encode();
        let origin = self.kb.origin_of_encoded(&encoded);
        EvidenceKnowgget {
            key: encoded,
            value: value.to_string(),
            writer_module: origin.map_or_else(String::new, |o| o.module.to_string()),
            origin: TraceRef {
                node,
                trace_id: origin.map_or(0, |o| o.trace_id),
                span_id: origin.map_or(0, |o| o.span_id),
            },
            remote,
        }
    }
}
