//! Sinkhole detection: a node attracting routes by advertising an
//! impossibly good routing metric (CTP ETX ≈ 0 without being the
//! established root, a ZigBee route reply with zero path cost, or an RPL
//! DIO claiming root rank from a non-root).

use std::time::Duration;

use kalis_packets::ctp::CtpFrame;
use kalis_packets::icmpv6::Icmpv6Packet;
use kalis_packets::packet::Transport;
use kalis_packets::rpl::{RplMessage, ROOT_RANK};
use kalis_packets::zigbee::{ZigbeeBody, ZigbeeCommand};
use kalis_packets::{CapturedPacket, Entity};

use crate::alert::{Alert, AttackKind};
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ValueType,
};
use crate::sensing::labels as sense;
use crate::taxonomy::Feature;

use super::util::AlertGate;

/// CTP ETX at or below which an advertisement is root-grade.
const SUSPICIOUS_ETX: u16 = 1;

/// The sinkhole detection module.
#[derive(Debug)]
pub(crate) struct SinkholeModule {
    gate: AlertGate<Entity>,
}

impl SinkholeModule {
    /// A fresh detector.
    pub fn new() -> Self {
        SinkholeModule {
            gate: AlertGate::new(Duration::from_secs(20)),
        }
    }

    fn flag(
        &mut self,
        ctx: &mut ModuleCtx<'_>,
        suspect: Entity,
        now: kalis_packets::Timestamp,
        details: String,
    ) {
        if self.gate.permit(suspect.clone(), now) {
            ctx.raise(
                Alert::new(now, AttackKind::Sinkhole, "SinkholeModule")
                    .with_suspect(suspect)
                    .with_details(details),
            );
        }
    }
}

impl Default for SinkholeModule {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for SinkholeModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("SinkholeModule", AttackKind::Sinkhole)
            .needs(&[Feature::MultiHop])
            .reads(FrameClass::CTP | FrameClass::ZIGBEE | FrameClass::RPL)
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new().reads(sense::CTP_ROOT, ValueType::Text)
    }

    fn reset(&mut self) {
        self.gate.clear();
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        let now = packet.timestamp;
        // CTP: a root-grade beacon from an entity that is not the
        // established root.
        if let Some(CtpFrame::Routing(beacon)) = pkt.ctp() {
            if beacon.etx <= SUSPICIOUS_ETX {
                if let Some(advertiser) = pkt.transmitter() {
                    let usurped = (ctx.kb.get_ref(sense::CTP_ROOT))
                        .filter(|root| !root.wire_is(advertiser.as_str()))
                        .map(|root| {
                            format!(
                                "CTP beacon advertising ETX {} while {root} is the established root",
                                beacon.etx
                            )
                        });
                    if let Some(details) = usurped {
                        self.flag(ctx, advertiser, now, details);
                    }
                }
            }
        }
        // ZigBee: a route reply claiming zero path cost.
        if let Some(z) = pkt.zigbee() {
            if let ZigbeeBody::Command(ZigbeeCommand::RouteReply { path_cost, .. }) = &z.body {
                if *path_cost == 0 {
                    if let Some(tx) = pkt.transmitter() {
                        self.flag(
                            ctx,
                            tx,
                            now,
                            "ZigBee route reply with zero path cost".into(),
                        );
                    }
                }
            }
        }
        // RPL: a DIO advertising root rank from a non-root.
        if let Some(Transport::Icmpv6(Icmpv6Packet::Rpl(RplMessage::Dio { rank, .. }))) =
            pkt.transport.as_ref()
        {
            if *rank <= ROOT_RANK {
                if let Some(tx) = pkt.transmitter().or_else(|| pkt.net_src()) {
                    let root = ctx.kb.get_ref(sense::CTP_ROOT);
                    if !root.is_some_and(|root| root.wire_is(tx.as_str())) {
                        self.flag(
                            ctx,
                            tx,
                            now,
                            format!("RPL DIO advertising root rank {rank}"),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use kalis_packets::{Medium, ShortAddr, Timestamp};

    fn beacon(ms: u64, from: u16, parent: u16, etx: u16) -> CapturedPacket {
        let raw = kalis_netsim::craft::ctp_beacon(ShortAddr(from), 0, ShortAddr(parent), etx);
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    fn kb_with_root() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.insert(sense::MULTIHOP, true);
        kb.insert(sense::CTP_ROOT, ShortAddr(1).to_string());
        kb
    }

    fn run(kb: &mut KnowledgeBase, caps: Vec<CapturedPacket>) -> Vec<Alert> {
        let mut module = SinkholeModule::new();
        let mut alerts = Vec::new();
        for cap in caps {
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        alerts
    }

    #[test]
    fn fake_root_beacon_is_flagged() {
        let mut kb = kb_with_root();
        let alerts = run(&mut kb, vec![beacon(0, 5, 5, 0)]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::Sinkhole);
        assert_eq!(alerts[0].suspects, vec![Entity::from(ShortAddr(5))]);
    }

    #[test]
    fn real_root_beacon_is_fine() {
        let mut kb = kb_with_root();
        assert!(run(&mut kb, vec![beacon(0, 1, 1, 0)]).is_empty());
    }

    #[test]
    fn normal_beacons_are_fine() {
        let mut kb = kb_with_root();
        assert!(run(&mut kb, vec![beacon(0, 5, 1, 30)]).is_empty());
    }

    #[test]
    fn no_alert_before_root_is_known() {
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        kb.insert(sense::MULTIHOP, true);
        assert!(
            run(&mut kb, vec![beacon(0, 5, 5, 0)]).is_empty(),
            "without an established root, a root-grade beacon is legitimate bootstrap"
        );
    }

    #[test]
    fn zero_cost_route_reply_is_flagged() {
        let mut kb = kb_with_root();
        let raw = kalis_netsim::craft::zigbee_command(
            ShortAddr(7),
            ShortAddr(2),
            0,
            ShortAddr(7),
            ShortAddr(2),
            0,
            kalis_packets::zigbee::ZigbeeCommand::RouteReply {
                request_id: 1,
                originator: ShortAddr(2),
                responder: ShortAddr(9),
                path_cost: 0,
            },
        );
        let cap =
            CapturedPacket::capture(Timestamp::ZERO, Medium::Ieee802154, Some(-50.0), "t", raw);
        let alerts = run(&mut kb, vec![cap]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].suspects, vec![Entity::from(ShortAddr(7))]);
    }

    #[test]
    fn repeated_beacons_are_gated() {
        let mut kb = kb_with_root();
        let alerts = run(&mut kb, vec![beacon(0, 5, 5, 0), beacon(100, 5, 5, 0)]);
        assert_eq!(alerts.len(), 1, "cooldown dedupes");
    }
}
