//! The benchmark's workloads: which instances each one verifies, under
//! which fully pinned configuration, and the answer each verification must
//! give.

use has_core::{Outcome, VerifierConfig, ViolationKind};
use has_corpus::{sample, Certificate, CorpusParams};
use has_ltl::HltlFormula;
use has_model::{ArtifactSystem, SchemaClass};
use has_workloads::counters::{counter_gadget, counter_liveness_property};
use has_workloads::generator::GeneratorParams;
use has_workloads::orders::{never_enqueue_property, order_fulfilment, ship_after_quote_property};
use has_workloads::travel::{travel_booking, travel_property, TravelVariant};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["grid-ar", "query-heavy", "travel-a2", "corpus-witness-par"];

/// Corpus instances drawn per pass by `corpus-witness-par`.
pub const CORPUS_COUNT: usize = 24;

/// The corpus draw the bounds in `BENCHMARK.json` were set on: the seed of
/// the EXP-C1 fuzz campaign. `--corpus-seed` draws another one; a claimed
/// gain must also hold on [`CORPUS_HELD_OUT_SEED`].
pub const CORPUS_SEED: u64 = 0xC0DE_5EED;

/// The held-out corpus draw: never used to set a bound.
pub const CORPUS_HELD_OUT_SEED: u64 = 20_161;

/// The hand-written verdicts of the fixed-instance workloads.
const EXPECTED: &str = include_str!("../expected.txt");

/// The answer one verification must give.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Whether the property holds.
    pub holds: bool,
    /// The violation kind, when it is part of the answer.
    pub kind: Option<ViolationKind>,
    /// The originating task's name, when it is part of the answer.
    pub origin: Option<String>,
    /// Where the answer comes from.
    pub source: String,
}

impl Expected {
    /// Checks an outcome against the answer; the error names the
    /// difference.
    pub fn check(&self, outcome: &Outcome) -> Result<(), String> {
        self.check_verdict(outcome.holds)?;
        let Some(violation) = outcome.violation.as_ref() else {
            return Ok(());
        };
        if let Some(kind) = self.kind {
            if violation.kind != kind {
                return Err(format!("expected kind {kind:?}, got {:?}", violation.kind));
            }
        }
        if let Some(origin) = &self.origin {
            if violation.origin_name() != Some(origin.as_str()) {
                return Err(format!(
                    "expected origin `{origin}`, got `{}`",
                    violation.origin_name().unwrap_or("<no witness>")
                ));
            }
        }
        Ok(())
    }

    /// Checks a bare verdict against the answer.
    pub fn check_verdict(&self, holds: bool) -> Result<(), String> {
        if holds == self.holds {
            Ok(())
        } else {
            Err(format!(
                "expected {}, got {}",
                verdict_word(self.holds),
                verdict_word(holds)
            ))
        }
    }
}

fn verdict_word(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "violated"
    }
}

/// One verification of a workload: an instance, its configuration and its
/// answer.
pub struct Instance {
    /// Label, unique within the workload.
    pub label: String,
    /// The artifact system.
    pub system: ArtifactSystem,
    /// The property to verify.
    pub property: HltlFormula,
    /// The configuration the end-to-end run verifies with.
    pub config: VerifierConfig,
    /// The answer.
    pub expected: Expected,
}

/// Every `VerifierConfig` field, set explicitly: nothing is read from the
/// environment (`HAS_THREADS`, `HAS_PRESOLVE`, `HAS_PROJECTION`,
/// `HAS_SHARED_KM`), so a stray variable cannot change what is measured.
/// The switches are the defaults of the code under test; the caps are the
/// ones each experiment family has always used.
fn pinned(max_successors: usize, max_control_states: usize, km_node_cap: usize) -> VerifierConfig {
    VerifierConfig {
        nav_depth: 1,
        max_successors,
        max_control_states,
        max_merge_pairs: 6,
        max_unknown_props: 4,
        km_node_cap,
        use_cells: false,
        threads: 1,
        witnesses: false,
        projection: true,
        presolve: true,
        shared_km: true,
    }
}

/// The caps of `has_bench::bench_config` (EXP-T1/T2, orders, the corpus).
fn bench_caps() -> VerifierConfig {
    pinned(48, 3_000, 20_000)
}

/// The caps of `has_bench::fast_config` (counter gadget, deep-narrow).
fn fast_caps() -> VerifierConfig {
    pinned(24, 800, 4_000)
}

/// The EXP-S1 configuration of the Appendix A.2 runs.
fn a2_caps() -> VerifierConfig {
    VerifierConfig {
        max_merge_pairs: 12,
        ..pinned(48, 20_000, 50_000)
    }
}

/// The EXP-T1 (`arithmetic = false`) or EXP-T2 grid rows with or without
/// artifact relations, as `tables` builds them.
fn grid_rows(
    artifact_relations: bool,
) -> Vec<(String, ArtifactSystem, HltlFormula, VerifierConfig)> {
    let mut rows = Vec::new();
    for arithmetic in [false, true] {
        for schema_class in [
            SchemaClass::Acyclic,
            SchemaClass::LinearlyCyclic,
            SchemaClass::Cyclic,
        ] {
            let generated = GeneratorParams {
                schema_class,
                artifact_relations,
                arithmetic,
                depth: 2,
                width: 1,
                numeric_vars: if arithmetic { 2 } else { 1 },
            }
            .generate();
            let config = VerifierConfig {
                use_cells: arithmetic,
                ..bench_caps()
            };
            rows.push((
                generated.label,
                generated.system,
                generated.property,
                config,
            ));
        }
    }
    rows
}

/// Builds the instances of a workload. Only the corpus workload's instances
/// depend on `corpus_seed`; the others are fixed. (The run's `--seed` orders
/// the instances of every pass — see `Rng` in `main.rs`.)
pub fn build(workload: &str, corpus_seed: u64) -> Result<Vec<Instance>, String> {
    let rows = match workload {
        "grid-ar" => grid_rows(true),
        "query-heavy" => {
            let mut rows = grid_rows(false);
            let o = order_fulfilment();
            for (label, property) in [
                ("orders/ship-after-quote", ship_after_quote_property(&o)),
                ("orders/never-enqueue(false)", never_enqueue_property(&o)),
            ] {
                rows.push((label.to_string(), o.system.clone(), property, bench_caps()));
            }
            for d in 1..=3 {
                let g = counter_gadget(d);
                let property = counter_liveness_property(&g);
                rows.push((
                    format!("counter-gadget/d={d}"),
                    g.system,
                    property,
                    fast_caps(),
                ));
            }
            let deep = GeneratorParams::deep_narrow(6).generate();
            rows.push((deep.label, deep.system, deep.property, fast_caps()));
            rows
        }
        "travel-a2" => [TravelVariant::Buggy, TravelVariant::Fixed]
            .into_iter()
            .map(|variant| {
                let t = travel_booking(variant);
                let property = travel_property(&t);
                (
                    format!("travel-A.2/{variant:?}"),
                    t.system,
                    property,
                    a2_caps(),
                )
            })
            .collect(),
        "corpus-witness-par" => return Ok(corpus(corpus_seed)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let answers = expected_verdicts(workload)?;
    let instances = rows
        .into_iter()
        .map(|(label, system, property, config)| {
            let expected = answers
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, e)| e.clone())
                .ok_or_else(|| format!("no expected verdict for {workload} {label}"))?;
            Ok(Instance {
                label,
                system,
                property,
                config,
                expected,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if instances.len() != answers.len() {
        return Err(format!(
            "expected.txt lists instances {workload} does not build"
        ));
    }
    Ok(instances)
}

/// A seeded draw of certified corpus instances, verified with witnesses on
/// by two workers; the answer is each instance's certificate.
fn corpus(seed: u64) -> Vec<Instance> {
    let config = VerifierConfig {
        threads: 2,
        witnesses: true,
        ..bench_caps()
    };
    sample(&CorpusParams {
        seed,
        count: CORPUS_COUNT,
    })
    .into_iter()
    .map(|inst| {
        let expected = match &inst.certificate {
            Certificate::Clean => Expected {
                holds: true,
                kind: None,
                origin: None,
                source: "certificate".to_string(),
            },
            Certificate::Planted { origin_name, .. } => Expected {
                holds: false,
                kind: inst.certificate.expected_kind(true),
                origin: Some(origin_name.clone()),
                source: "certificate".to_string(),
            },
        };
        Instance {
            label: inst.label,
            system: inst.system,
            property: inst.property,
            config: config.clone(),
            expected,
        }
    })
    .collect()
}

/// The `expected.txt` lines of one workload, as `(label, answer)` pairs.
fn expected_verdicts(workload: &str) -> Result<Vec<(String, Expected)>, String> {
    let mut out = Vec::new();
    for line in EXPECTED.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let (Some(w), Some(label), Some(verdict)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("malformed expected.txt line: {line}"));
        };
        if w != workload {
            continue;
        }
        let holds = match verdict {
            "holds" => true,
            "violated" => false,
            other => return Err(format!("unknown verdict `{other}` in expected.txt")),
        };
        out.push((
            label.to_string(),
            Expected {
                holds,
                kind: None,
                origin: None,
                source: fields.collect::<Vec<_>>().join(" "),
            },
        ));
    }
    Ok(out)
}
