//! 6LoWPAN incomplete-fragment flood detection: an attacker exhausts a
//! node's reassembly buffers by spraying first-fragments that are never
//! completed. The sniffer-side [`kalis_packets::reassembly::Reassembler`]
//! makes the symptom directly observable as reassembly expirations.

use std::time::Duration;

use kalis_packets::packet::NetworkLayer;
use kalis_packets::reassembly::{DatagramKey, Reassembler};
use kalis_packets::{CapturedPacket, Entity, ShortAddr};

use crate::alert::{Alert, AttackKind};
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec,
};
use crate::taxonomy::Feature;

use super::util::AlertGate;

/// The fragment-flood detection module.
#[derive(Debug)]
pub struct FragmentFloodModule {
    threshold: u64,
    reassembler: Reassembler,
    last_expired: u64,
    gate: AlertGate<()>,
}

impl FragmentFloodModule {
    /// Alert when ≥ `threshold` datagrams expire incomplete within one
    /// reassembly-timeout period (default 8).
    pub fn new(threshold: u64) -> Self {
        FragmentFloodModule {
            threshold,
            reassembler: Reassembler::new(),
            last_expired: 0,
            gate: AlertGate::new(Duration::from_secs(20)),
        }
    }
}

impl Default for FragmentFloodModule {
    fn default() -> Self {
        Self::new(8)
    }
}

impl Module for FragmentFloodModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("FragmentFloodModule", AttackKind::FragmentFlood)
            .needs(&[Feature::SixLowpan])
            .reads(FrameClass::SIXLOWPAN)
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new().accepts_param(ParamSpec::number("threshold", 1.0))
    }

    fn on_packet(&mut self, _ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        let Some(NetworkLayer::SixLowpan { frame, .. }) = pkt.net.as_ref() else {
            return;
        };
        let Some(frag) = frame.frag else { return };
        let tag = match frag {
            kalis_packets::sixlowpan::FragHeader::First { datagram_tag, .. }
            | kalis_packets::sixlowpan::FragHeader::Subsequent { datagram_tag, .. } => datagram_tag,
        };
        let origin = frame
            .mesh
            .map(|m| m.originator)
            .or_else(|| pkt.ieee802154().and_then(|m| m.src.short()))
            .unwrap_or(ShortAddr(0));
        let _ = self
            .reassembler
            .push(DatagramKey { origin, tag }, frame, packet.timestamp);
    }

    fn on_tick(&mut self, ctx: &mut ModuleCtx<'_>) {
        let now = ctx.now;
        self.reassembler.expire(now);
        let expired = self.reassembler.expired();
        if expired - self.last_expired >= self.threshold && self.gate.permit((), now) {
            let delta = expired - self.last_expired;
            self.last_expired = expired;
            ctx.raise(
                Alert::new(now, AttackKind::FragmentFlood, "FragmentFloodModule")
                    .with_victim(Entity::new("reassembly-buffers"))
                    .with_details(format!("{delta} datagrams expired incomplete")),
            );
        }
    }

    fn state_bytes(&self) -> usize {
        self.reassembler.pending() * 128 + 128
    }

    fn reset(&mut self) {
        self.reassembler = Reassembler::new();
        self.last_expired = 0;
        self.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use bytes::Bytes;
    use kalis_packets::codec::Encode;
    use kalis_packets::sixlowpan::{FragHeader, SixLowpanFrame, SixLowpanPayload};
    use kalis_packets::{Medium, Timestamp};

    fn frag_first(tag: u16, ms: u64) -> CapturedPacket {
        let frame = SixLowpanFrame {
            mesh: None,
            frag: Some(FragHeader::First {
                datagram_size: 256,
                datagram_tag: tag,
            }),
            payload: SixLowpanPayload::Ipv6(Bytes::from_static(&[0; 16])),
        };
        let raw = kalis_netsim::craft::ieee_data(
            kalis_packets::ShortAddr(7),
            kalis_packets::ShortAddr(1),
            tag as u8,
            frame.to_bytes(),
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    #[test]
    fn incomplete_fragment_spray_is_detected() {
        let mut module = FragmentFloodModule::new(5);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut alerts = Vec::new();
        for tag in 0..10u16 {
            let cap = frag_first(tag, u64::from(tag) * 100);
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        // Reassembly timeout passes; tick observes the expirations.
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(30),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::FragmentFlood);
    }

    #[test]
    fn benign_fragmentation_stays_quiet() {
        // Few incomplete datagrams under the threshold: silence.
        let mut module = FragmentFloodModule::new(5);
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut alerts = Vec::new();
        for tag in 0..3u16 {
            let cap = frag_first(tag, u64::from(tag) * 100);
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        let mut ctx = ModuleCtx {
            now: Timestamp::from_secs(30),
            kb: &mut kb,
            alerts: &mut alerts,
        };
        module.on_tick(&mut ctx);
        assert!(alerts.is_empty());
    }
}
