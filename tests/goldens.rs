//! Golden renders. Every `examples/scenarios/*.scn.kalis` runs at seed
//! 42, twice, and what it leaves behind — alerts, journal kinds and
//! digest, diag bundles, score, readiness, Knowledge Base occupancy,
//! fault and sync counters — must read exactly as
//! `tests/goldens/<name>-42.txt` says. Beside the corpus sit the
//! activation matrix (which detection modules the default library runs
//! under every sensed-feature state, `activation.txt`), the routing table
//! (which default modules read each frame class, `routing.txt`) and
//! `kalis-lint`'s two dataflow artifacts (`knowledge-graph.dot`,
//! `read-sets.json`).
//!
//! A refactor that claims to change nothing proves it here. When a
//! change is meant to move these, rewrite the files with
//! `KALIS_BLESS=1 cargo test -p kalis-integration --test goldens` and
//! review the diff.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use kalis_core::config::ModuleDef;
use kalis_core::modules::{FrameClass, ModuleKind, ModuleManager, ModuleRegistry};
use kalis_core::sensing::labels;
use kalis_core::taxonomy::{relation, Feature, Relation};
use kalis_core::{AttackKind, KalisId, KnowledgeBase};
use kalis_lint::{KnowledgeGraph, ReadSets};
use kalis_scenario::exec;
use kalis_scenario::expect::Evidence;
use kalis_scenario::parse_scenario;

const SEED: u64 = 42;

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// FNV-1a, 64-bit: a digest stable across platforms and releases.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The scenario's evidence, one fact a line.
fn render(evidence: &Evidence) -> String {
    let mut out = String::new();
    let score = &evidence.score;
    writeln!(
        out,
        "score instances={} detected={} correct_pairs={} total_pairs={} false_positives={}",
        score.instances,
        score.detected,
        score.correct_pairs,
        score.total_pairs,
        score.false_positives
    )
    .unwrap();
    for alert in &evidence.alerts {
        writeln!(
            out,
            "alert {} {} {} victim={}",
            alert.time_us, alert.kind, alert.module, alert.victim
        )
        .unwrap();
    }
    let mut kinds: BTreeMap<&str, u64> = BTreeMap::new();
    let mut journal = String::new();
    for record in &evidence.journal {
        *kinds.entry(record.event.kind()).or_default() += 1;
        writeln!(journal, "{record:?}").unwrap();
    }
    for (kind, count) in kinds {
        writeln!(out, "journal {kind} {count}").unwrap();
    }
    writeln!(
        out,
        "journal records={} digest={:016x}",
        evidence.journal.len(),
        digest(journal.as_bytes())
    )
    .unwrap();
    for (id, json) in &evidence.diag_bundles {
        writeln!(out, "diag {id} {:016x}", digest(json.as_bytes())).unwrap();
    }
    writeln!(out, "readiness {:?}", evidence.readiness_reasons).unwrap();
    writeln!(out, "quarantined {:?}", evidence.unpinned_quarantined).unwrap();
    writeln!(
        out,
        "kb occupancy={} budget={}",
        evidence.kb_occupancy, evidence.kb_budget
    )
    .unwrap();
    for module in &evidence.modules {
        writeln!(
            out,
            "module {} occupancy={} budget={} evictions={}",
            module.name, module.occupancy, module.budget, module.evictions
        )
        .unwrap();
    }
    writeln!(out, "faults {:?}", evidence.fault_stats).unwrap();
    for (link, stats) in &evidence.link_faults {
        writeln!(out, "faults {link} {stats:?}").unwrap();
    }
    writeln!(out, "retransmits {}", evidence.retransmits).unwrap();
    writeln!(
        out,
        "converged_at_secs {:?} degraded_entered={} degraded_exited={}",
        evidence.converged_at_secs, evidence.degraded_entered, evidence.degraded_exited
    )
    .unwrap();
    out
}

fn scenario_files() -> Vec<PathBuf> {
    let dir = repo_path("examples/scenarios");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .filter(|path| path.to_str().is_some_and(|p| p.ends_with(".scn.kalis")))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenarios under {}", dir.display());
    files
}

/// The lines of `want` and `got` that differ, `-`/`+` prefixed.
fn line_diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut out = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            if let Some(w) = w {
                writeln!(out, "{:>5} - {w}", i + 1).unwrap();
            }
            if let Some(g) = g {
                writeln!(out, "{:>5} + {g}", i + 1).unwrap();
            }
        }
    }
    out
}

fn golden_path(scenario: &Path) -> PathBuf {
    let name = scenario.file_name().and_then(|n| n.to_str()).unwrap();
    let stem = name.trim_end_matches(".scn.kalis");
    repo_path(&format!("tests/goldens/{stem}-{SEED}.txt"))
}

fn blessing() -> bool {
    std::env::var_os("KALIS_BLESS").is_some_and(|v| v == "1")
}

/// Hold `got` to the golden at `golden` (or write it, when blessing):
/// the failure to report, if any.
fn compare(golden: &Path, got: &str) -> Option<String> {
    if blessing() {
        fs::create_dir_all(golden.parent().unwrap()).unwrap();
        fs::write(golden, got).unwrap();
        return None;
    }
    match fs::read_to_string(golden) {
        Ok(want) if want == got => None,
        Ok(want) => Some(format!(
            "{} differs (KALIS_BLESS=1 rewrites it):\n{}",
            golden.display(),
            line_diff(&want, got)
        )),
        Err(e) => Some(format!(
            "{}: {e} (KALIS_BLESS=1 writes it)",
            golden.display()
        )),
    }
}

fn assert_golden(rel: &str, got: &str) {
    if let Some(failure) = compare(&repo_path(rel), got) {
        panic!("{failure}");
    }
}

#[test]
fn scenario_corpus_renders_its_goldens() {
    let mut failures = Vec::new();
    for path in scenario_files() {
        let file = path.display().to_string();
        let text = fs::read_to_string(&path).unwrap();
        let spec = parse_scenario(&file, &text)
            .unwrap_or_else(|diags| panic!("{file} does not parse: {diags:?}"));
        let first = render(&exec::execute(&spec, SEED));
        let second = render(&exec::execute(&spec, SEED));
        if first != second {
            failures.push(format!(
                "{file} renders differently on two runs:\n{}",
                line_diff(&first, &second)
            ));
            continue;
        }
        failures.extend(compare(&golden_path(&path), &first));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// One sensed-feature state: the knowggets a Knowledge Base holds, each
/// `(label, value)`.
type State = Vec<(&'static str, bool)>;

/// Every sensed-feature state: topology {multi-hop, single-hop,
/// unknown} × mobility {mobile, static, unknown} × each of 802.11,
/// 802.15.4, IP and 6LoWPAN seen or not — 144 states.
fn sensed_states() -> Vec<State> {
    let known = |label: &'static str| [Some((label, true)), Some((label, false)), None];
    let seen = |label: &'static str| [Some((label, true)), None];
    let mut states = Vec::new();
    for topology in known(labels::MULTIHOP) {
        for mobility in known(labels::MOBILE) {
            for wifi in seen(labels::MEDIUM_SEEN_WIFI) {
                for lowpan_medium in seen(labels::MEDIUM_SEEN_802154) {
                    for ip in seen(labels::PROTOCOL_SEEN_IP) {
                        for sixlowpan in seen(labels::PROTOCOL_SEEN_SIXLOWPAN) {
                            states.push(
                                [topology, mobility, wifi, lowpan_medium, ip, sixlowpan]
                                    .into_iter()
                                    .flatten()
                                    .collect(),
                            );
                        }
                    }
                }
            }
        }
    }
    states
}

/// The default library's active detection modules after
/// `reconfigure` over a Knowledge Base holding exactly `state`.
fn active_detectors(state: &State) -> Vec<&'static str> {
    let registry = ModuleRegistry::with_defaults();
    let mut manager = ModuleManager::new();
    for name in registry.names() {
        manager.add(registry.build(&ModuleDef::new(name)).unwrap(), false);
    }
    let mut kb = KnowledgeBase::new(KalisId::new("K1"));
    for (label, value) in state {
        kb.insert(*label, *value);
    }
    manager.reconfigure(&kb);
    (manager.module_profiles().into_iter())
        .filter(|p| p.active && p.kind == ModuleKind::Detection)
        .map(|p| p.name)
        .collect()
}

fn state_key(state: &State) -> String {
    if state.is_empty() {
        return "(nothing sensed)".to_owned();
    }
    let knowggets: Vec<String> = (state.iter())
        .map(|(label, value)| format!("{label}={value}"))
        .collect();
    knowggets.join(" ")
}

/// Every Fig. 3 feature.
const FEATURES: [Feature; 10] = [
    Feature::MultiHop,
    Feature::SingleHop,
    Feature::Mobile,
    Feature::Static,
    Feature::ConstrainedDevices,
    Feature::IpConnectivity,
    Feature::WifiMedium,
    Feature::Ieee802154Medium,
    Feature::CryptoDeployed,
    Feature::SixLowpan,
];

/// The activation matrix: one line per sensed-feature state, naming the
/// detection modules knowledge switches on there; then where that
/// disagrees with Fig. 3 — a module active although a sensed feature
/// makes its attack impossible, and a dimension Fig. 3 says the
/// technique depends on that a module's activation ignores.
#[test]
fn activation_matrix_renders_its_golden() {
    let matrix: Vec<(State, Vec<&str>)> = (sensed_states().into_iter())
        .map(|state| {
            let active = active_detectors(&state);
            (state, active)
        })
        .collect();
    assert_eq!(matrix.len(), 144);
    let mut out = String::new();
    for (state, active) in &matrix {
        let active = if active.is_empty() {
            "(none)".to_owned()
        } else {
            active.join(" ")
        };
        writeln!(out, "{} -> {active}", state_key(state)).unwrap();
    }

    let detects: BTreeMap<String, AttackKind> = (ModuleRegistry::with_defaults().contracts())
        .into_iter()
        .filter_map(|(name, descriptor, _)| Some((name, descriptor.detects?)))
        .collect();
    let sensed = |state: &State, feature: Feature| {
        (feature.knowgget()).is_some_and(|knowgget| state.contains(&knowgget))
    };
    writeln!(out, "\nFig. 3 disagreements").unwrap();
    writeln!(
        out,
        "\nActive although a sensed feature makes the attack impossible:"
    )
    .unwrap();
    for (state, active) in &matrix {
        for module in active {
            let attack = detects[*module];
            for feature in FEATURES {
                if sensed(state, feature) && relation(feature, attack) == Relation::Impossible {
                    writeln!(out, "{module} under {feature:?} at {}", state_key(state)).unwrap();
                }
            }
        }
    }
    writeln!(
        out,
        "\nActivation ignores a dimension the technique depends on:"
    )
    .unwrap();
    for (module, attack) in &detects {
        let mut dimensions: BTreeMap<&str, Vec<Feature>> = BTreeMap::new();
        for feature in FEATURES {
            if let Some((label, _)) = feature.knowgget() {
                if relation(feature, *attack) == Relation::TechniqueDepends {
                    dimensions.entry(label).or_default().push(feature);
                }
            }
        }
        for (label, features) in dimensions {
            // Activation depends on `label` when two states that differ
            // in it alone switch the module differently.
            let mut by_rest: BTreeMap<String, Vec<bool>> = BTreeMap::new();
            for (state, active) in &matrix {
                let rest: State = (state.iter().copied())
                    .filter(|(held, _)| *held != label)
                    .collect();
                by_rest
                    .entry(state_key(&rest))
                    .or_default()
                    .push(active.contains(&module.as_str()));
            }
            let depends = (by_rest.values()).any(|seen| seen.iter().any(|on| *on != seen[0]));
            if !depends {
                writeln!(out, "{module} ignores {label} ({features:?})").unwrap();
            }
        }
    }
    assert_golden("tests/goldens/activation.txt", &out);
}

/// The routing table: one line per frame class naming the default
/// modules that read a frame of it — those declaring the class, and
/// those reading every frame — so a declaration change shows in review.
#[test]
fn routing_table_renders_its_golden() {
    let modules = ModuleRegistry::with_defaults().contracts();
    let mut out = String::new();
    for (class, name) in FrameClass::NAMED {
        let readers: Vec<&str> = (modules.iter())
            .filter(|(_, descriptor, _)| descriptor.reads.intersects(class | FrameClass::ANY))
            .map(|(module, _, _)| module.as_str())
            .collect();
        writeln!(out, "{name} -> {}", readers.join(" ")).unwrap();
    }
    assert_golden("tests/goldens/routing.txt", &out);
}

/// `kalis-lint --graph` and `kalis-lint --read-sets`, byte for byte.
#[test]
fn lint_dataflow_artifacts_render_their_goldens() {
    let registry = ModuleRegistry::with_defaults();
    assert_golden(
        "tests/goldens/knowledge-graph.dot",
        &KnowledgeGraph::from_registry(&registry).to_dot(),
    );
    assert_golden(
        "tests/goldens/read-sets.json",
        &ReadSets::from_registry(&registry).to_json(),
    );
}
