//! # insight-streams — a Streams-style dataflow middleware
//!
//! A Rust re-implementation of the concept set of the *Streams* framework
//! (Bockermann & Blom, TU Dortmund TR 5/2012) that forms the backbone of the
//! EDBT 2014 urban traffic management system:
//!
//! * **data items** — sets of key/value pairs flowing through the graph
//!   ([`item::DataItem`]);
//! * **processors** — functions applied to each item ([`processor::Processor`]),
//!   composed into sequences;
//! * **processes** — nodes of the data-flow graph: a source (stream or queue)
//!   plus a processor chain plus outputs ([`topology`]);
//! * **queues** — bounded channels connecting processes ([`queue`]);
//! * **services** — named, shared function sets accessible throughout the
//!   application ([`service::ServiceRegistry`]);
//! * a **topology builder** ([`topology::Topology`]) that describes the
//!   data-flow graph in Rust and validates it before it runs;
//! * **one worker core with two drivers**: every process is a worker that
//!   advances one step at a time (hand owed items on, pull a batch through
//!   the chain, go idle, or flush and end the stream); the
//!   **multi-threaded runtime** ([`runtime`]) gives each source-fed worker
//!   a thread that waits inside its source and steps every queue-fed worker
//!   on a pool of `available_parallelism` threads, the **deterministic
//!   replay runtime** ([`replay`]) steps the very same workers on one thread
//!   under a seeded scheduler and is told when one is blocked;
//! * **fault supervision** — per-process fault policies, panic isolation and
//!   dead-letter queues ([`fault`]), plus a deterministic fault-injection
//!   harness for robustness testing ([`chaos`]).
//!
//! ```
//! use insight_streams::error::StreamsError;
//! use insight_streams::item::DataItem;
//! use insight_streams::processor::{Context, Processor};
//! use insight_streams::runtime::Runtime;
//! use insight_streams::sink::CollectSink;
//! use insight_streams::source::VecSource;
//! use insight_streams::topology::{Input, Output, Topology};
//!
//! struct KeepEven;
//!
//! impl Processor for KeepEven {
//!     fn process(&mut self, item: DataItem, _: &mut Context)
//!         -> Result<Option<DataItem>, StreamsError> {
//!         Ok(item.get_i64("n").filter(|n| n % 2 == 0).map(|_| item.clone()))
//!     }
//! }
//!
//! let mut t = Topology::new();
//! t.add_source("numbers", VecSource::new((0..10).map(|i| {
//!     DataItem::new().with("n", i as i64)
//! })));
//! t.add_queue("evens", 16);
//! t.process("keep-even")
//!     .input(Input::Stream("numbers".into()))
//!     .processor(KeepEven)
//!     .output(Output::Queue("evens".into()))
//!     .done();
//! let collect = CollectSink::shared();
//! t.process("collect")
//!     .input(Input::Queue("evens".into()))
//!     .output(Output::Sink(Box::new(collect.clone())))
//!     .done();
//! Runtime::new(t).run().unwrap();
//! assert_eq!(collect.items().len(), 5);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod alloc;
pub mod chaos;
pub mod checkpoint;
pub mod error;
pub mod fault;
pub mod intern;
pub mod item;
pub mod json;
pub mod metrics;
pub mod partition;
pub mod processor;
pub mod queue;
pub mod replay;
pub mod runtime;
pub mod service;
pub mod sink;
pub mod source;
mod spsc;
pub mod testing;
pub mod topology;
