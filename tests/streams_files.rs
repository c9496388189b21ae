//! Integration: file-backed Streams sources and sinks (the original
//! framework's file streams).

use insight_repro::core::items::sde_to_item;
use insight_repro::datagen::scenario::{Scenario, ScenarioConfig};
use insight_repro::streams::item::DataItem;
use insight_repro::streams::runtime::Runtime;
use insight_repro::streams::sink::{CollectSink, JsonLinesSink};
use insight_repro::streams::source::{JsonLinesSource, VecSource};
use insight_repro::streams::topology::{Input, Output, Topology};
use std::io::{BufReader, Write};

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("insight-streams-{}-{}", std::process::id(), name));
    p
}

#[test]
fn json_lines_roundtrip_through_files() {
    let scenario = Scenario::generate(ScenarioConfig::small(600, 41)).unwrap();
    let items: Vec<DataItem> = scenario.sdes.iter().take(200).map(sde_to_item).collect();
    let path = temp_path("roundtrip.jsonl");

    // Write topology: memory -> file.
    {
        let file = std::fs::File::create(&path).unwrap();
        let mut t = Topology::new();
        t.add_source("mem", VecSource::new(items.clone()));
        t.process("dump")
            .input(Input::Stream("mem".into()))
            .output(Output::Sink(Box::new(JsonLinesSink::new(file))))
            .done();
        Runtime::new(t).run().unwrap();
    }

    // Read topology: file -> memory.
    let file = std::fs::File::open(&path).unwrap();
    let mut t = Topology::new();
    t.add_source("file", JsonLinesSource::new(BufReader::new(file)));
    let sink = CollectSink::shared();
    t.process("load")
        .input(Input::Stream("file".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    Runtime::new(t).run().unwrap();

    assert_eq!(sink.items(), items, "items survive the file roundtrip exactly");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_file_fails_the_pipeline() {
    let path = temp_path("corrupt.jsonl");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "{{\"ok\": 1}}").unwrap();
    writeln!(f, "not json at all").unwrap();
    drop(f);

    let file = std::fs::File::open(&path).unwrap();
    let mut t = Topology::new();
    t.add_source("file", JsonLinesSource::new(BufReader::new(file)));
    t.process("load").input(Input::Stream("file".into())).output(Output::Discard).done();
    assert!(Runtime::new(t).run().is_err());
    let _ = std::fs::remove_file(&path);
}
