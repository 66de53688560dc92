//! The derives, through text and back, on every shape the repository uses.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
struct Tier(pub u8);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Kind {
    Task,
    QueueDelay,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "policy", rename_all = "snake_case")]
enum Spec {
    Static { bind: Tier },
    HotCold { dram_bytes: u64, cold: Tier },
    Off,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Mode {
    Loopback,
    Wired { nodes: u32 },
    Pair(u8, String),
    One(Tier),
}

fn two() -> u32 {
    2
}

fn is_two(n: &u32) -> bool {
    *n == 2
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Conf {
    name: String,
    tiers: [Tier; 2],
    spec: Option<Spec>,
    #[serde(default)]
    mode: Option<Mode>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    kinds: Vec<Kind>,
    #[serde(default = "two", skip_serializing_if = "is_two")]
    retries: u32,
    weights: BTreeMap<String, f64>,
    pair: (u64, i32),
}

#[derive(Serialize)]
struct Line<'a> {
    at: u64,
    text: &'a str,
}

fn conf() -> Conf {
    Conf {
        name: "x".into(),
        tiers: [Tier(0), Tier(2)],
        spec: Some(Spec::HotCold {
            dram_bytes: 16,
            cold: Tier(2),
        }),
        mode: None,
        kinds: Vec::new(),
        retries: 2,
        weights: BTreeMap::from([("a".to_string(), 0.5)]),
        pair: (7, -1),
    }
}

#[test]
fn struct_layout_and_round_trip() {
    let text = serde_json::to_string(&conf()).unwrap();
    assert_eq!(
        text,
        r#"{"name":"x","tiers":[0,2],"spec":{"policy":"hot_cold","dram_bytes":16,"cold":2},"mode":null,"weights":{"a":0.5},"pair":[7,-1]}"#
    );
    assert_eq!(serde_json::from_str::<Conf>(&text).unwrap(), conf());

    let full = Conf {
        kinds: vec![Kind::Task, Kind::QueueDelay],
        retries: 5,
        mode: Some(Mode::Pair(1, "p".into())),
        ..conf()
    };
    let text = serde_json::to_string(&full).unwrap();
    assert!(
        text.contains(r#""kinds":["task","queue_delay"],"retries":5"#),
        "{text}"
    );
    assert!(text.contains(r#""mode":{"Pair":[1,"p"]}"#), "{text}");
    assert_eq!(serde_json::from_str::<Conf>(&text).unwrap(), full);
}

#[test]
fn enums_in_every_representation() {
    for mode in [
        Mode::Loopback,
        Mode::Wired { nodes: 4 },
        Mode::Pair(2, "q".into()),
        Mode::One(Tier(3)),
    ] {
        let text = serde_json::to_string(&mode).unwrap();
        assert_eq!(serde_json::from_str::<Mode>(&text).unwrap(), mode, "{text}");
    }
    assert_eq!(
        serde_json::to_string(&Mode::Loopback).unwrap(),
        r#""Loopback""#
    );
    assert_eq!(
        serde_json::to_string(&Mode::Wired { nodes: 4 }).unwrap(),
        r#"{"Wired":{"nodes":4}}"#
    );
    assert_eq!(
        serde_json::to_string(&Mode::One(Tier(3))).unwrap(),
        r#"{"One":3}"#
    );
    for spec in [Spec::Static { bind: Tier(1) }, Spec::Off] {
        let text = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<Spec>(&text).unwrap(), spec, "{text}");
    }
    assert_eq!(
        serde_json::to_string(&Spec::Off).unwrap(),
        r#"{"policy":"off"}"#
    );
}

#[test]
fn missing_and_malformed_fields() {
    // `Option` and `default` fields may be absent; others may not.
    let minimal = r#"{"name":"x","tiers":[0,2],"weights":{},"pair":[1,1]}"#;
    let parsed: Conf = serde_json::from_str(minimal).unwrap();
    assert_eq!(
        (parsed.spec, parsed.retries, parsed.kinds.len()),
        (None, 2, 0)
    );
    assert!(serde_json::from_str::<Conf>(r#"{"tiers":[0,2],"weights":{},"pair":[1,1]}"#).is_err());
    assert!(serde_json::from_str::<Conf>(&minimal.replace("[0,2]", "[0]")).is_err());
    assert!(serde_json::from_str::<Spec>(r#"{"policy":"nope"}"#).is_err());
    assert!(serde_json::from_str::<Kind>(r#""Task""#).is_err());
    assert!(serde_json::from_str::<Tier>("300").is_err());
}

#[test]
fn borrowed_fields_and_value_trees() {
    let line = Line { at: 3, text: "hi" };
    assert_eq!(
        serde_json::to_string(&line).unwrap(),
        r#"{"at":3,"text":"hi"}"#
    );
    let mut tree = serde_json::to_value(conf()).unwrap();
    tree.as_object_mut().unwrap().remove("spec");
    assert_eq!(serde_json::from_value::<Conf>(tree).unwrap().spec, None);
}
