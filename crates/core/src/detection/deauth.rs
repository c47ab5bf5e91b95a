//! 802.11 deauthentication-flood detection (the classic WiFi
//! denial-of-service against IoT hubs).

use std::time::Duration;

use kalis_packets::packet::LinkLayer;
use kalis_packets::wifi::WifiBody;
use kalis_packets::{CapturedPacket, Entity};

use crate::alert::{Alert, AttackKind};
use crate::modules::{
    FrameClass, KnowggetContract, Module, ModuleCtx, ModuleDescriptor, ParamSpec,
};
use crate::taxonomy::Feature;

use super::util::{AlertGate, SlidingCounter};

/// The deauth-flood detection module.
#[derive(Debug)]
pub struct DeauthModule {
    threshold: usize,
    deauths: SlidingCounter<(Entity, Entity)>, // (victim, transmitter)
    gate: AlertGate<Entity>,
}

impl DeauthModule {
    /// A detector alerting at ≥ `threshold` deauth frames per victim per
    /// 5 s window (default 8).
    pub fn new(threshold: usize) -> Self {
        DeauthModule {
            threshold,
            deauths: SlidingCounter::new(Duration::from_secs(5)),
            gate: AlertGate::new(Duration::from_secs(10)),
        }
    }
}

impl Default for DeauthModule {
    fn default() -> Self {
        Self::new(8)
    }
}

impl Module for DeauthModule {
    fn descriptor(&self) -> ModuleDescriptor {
        ModuleDescriptor::detection("DeauthModule", AttackKind::Deauth)
            .needs(&[Feature::WifiMedium])
            .reads(FrameClass::WIFI_MGMT)
    }

    fn contract(&self) -> KnowggetContract {
        KnowggetContract::new().accepts_param(ParamSpec::number("threshold", 1.0))
    }

    fn on_packet(&mut self, ctx: &mut ModuleCtx<'_>, packet: &CapturedPacket) {
        let Some(pkt) = packet.decoded() else { return };
        let LinkLayer::Wifi(frame) = &pkt.link else {
            return;
        };
        if !matches!(frame.body, WifiBody::Deauth { .. }) {
            return;
        }
        let victim = Entity::from(frame.dst);
        let tx = Entity::from(frame.src);
        let now = packet.timestamp;
        self.deauths.push(now, (victim.clone(), tx));
        let count = self.deauths.count_matching(now, |(v, _)| *v == victim);
        if count < self.threshold || !self.gate.permit(victim.clone(), now) {
            return;
        }
        let mut suspects = Vec::new();
        for (_, (v, t)) in self.deauths.events(now) {
            if v == &victim && !suspects.contains(t) {
                suspects.push(t.clone());
            }
        }
        ctx.raise(
            Alert::new(now, AttackKind::Deauth, "DeauthModule")
                .with_victim(victim)
                .with_suspects(suspects)
                .with_details(format!("{count} deauthentication frames in 5s")),
        );
    }

    fn state_bytes(&self) -> usize {
        self.deauths.len() * 96 + 128
    }

    fn reset(&mut self) {
        self.deauths.clear();
        self.gate.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::KalisId;
    use crate::knowledge::KnowledgeBase;
    use kalis_packets::codec::Encode;
    use kalis_packets::wifi::WifiFrame;
    use kalis_packets::{MacAddr, Medium, Timestamp};

    fn deauth(ms: u64, src: u32, dst: u32) -> CapturedPacket {
        let frame = WifiFrame {
            src: MacAddr::from_index(src),
            dst: MacAddr::from_index(dst),
            bssid: MacAddr::from_index(0),
            seq: 0,
            body: WifiBody::Deauth { reason: 7 },
        };
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Wifi,
            Some(-45.0),
            "w",
            frame.to_bytes(),
        )
    }

    fn run(caps: Vec<CapturedPacket>) -> Vec<Alert> {
        let mut module = DeauthModule::default();
        let mut kb = KnowledgeBase::new(KalisId::new("K1"));
        let mut alerts = Vec::new();
        for cap in caps {
            let mut ctx = ModuleCtx {
                now: cap.timestamp,
                kb: &mut kb,
                alerts: &mut alerts,
            };
            module.on_packet(&mut ctx, &cap);
        }
        alerts
    }

    #[test]
    fn deauth_flood_is_detected_with_attacker() {
        let caps: Vec<_> = (0..10).map(|i| deauth(i * 100, 66, 2)).collect();
        let alerts = run(caps);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].attack, AttackKind::Deauth);
        assert_eq!(
            alerts[0].suspects,
            vec![Entity::from(MacAddr::from_index(66))]
        );
    }

    #[test]
    fn occasional_deauths_are_legitimate() {
        // Real APs deauthenticate idle stations occasionally.
        let caps: Vec<_> = (0..4).map(|i| deauth(i * 2000, 0, 2)).collect();
        assert!(run(caps).is_empty());
    }
}
