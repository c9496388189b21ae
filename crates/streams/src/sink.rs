//! Sinks: where data items leave the graph.

use crate::error::StreamsError;
use crate::item::DataItem;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A consumer of data items at the edge of the topology.
pub trait Sink: Send {
    /// Consumes one item.
    fn write_item(&mut self, item: DataItem) -> Result<(), StreamsError>;

    /// Called once when the feeding process finishes. Default: nothing.
    fn flush(&mut self) -> Result<(), StreamsError> {
        Ok(())
    }
}

/// Collects items into shared memory; clone handles observe the same buffer.
#[derive(Clone, Default)]
pub struct CollectSink {
    items: Arc<Mutex<Vec<DataItem>>>,
}

impl CollectSink {
    /// A fresh shared collector.
    pub fn shared() -> CollectSink {
        CollectSink::default()
    }

    /// Snapshot of the collected items.
    pub fn items(&self) -> Vec<DataItem> {
        self.items.lock().unwrap().clone()
    }

    /// Number of collected items.
    pub fn len(&self) -> usize {
        self.items.lock().unwrap().len()
    }

    /// Whether nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.items.lock().unwrap().is_empty()
    }
}

impl Sink for CollectSink {
    fn write_item(&mut self, item: DataItem) -> Result<(), StreamsError> {
        self.items.lock().unwrap().push(item);
        Ok(())
    }
}

/// Counts items and discards them.
#[derive(Clone, Default)]
pub struct CountSink {
    count: Arc<AtomicU64>,
}

impl CountSink {
    /// A fresh shared counter.
    pub fn shared() -> CountSink {
        CountSink::default()
    }

    /// Items seen so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl Sink for CountSink {
    fn write_item(&mut self, _item: DataItem) -> Result<(), StreamsError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Writes one JSON object per line to any writer.
///
/// Each line is serialised into one buffer the sink keeps, then handed to
/// the writer in one `write_all`: once the buffer has grown to the longest
/// line, writing an item allocates nothing in the sink.
pub struct JsonLinesSink<W: Write + Send> {
    pub(crate) writer: W,
    line: String,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps the writer.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink { writer, line: String::new() }
    }
}

impl<W: Write + Send> Sink for JsonLinesSink<W> {
    fn write_item(&mut self, item: DataItem) -> Result<(), StreamsError> {
        self.line.clear();
        item.to_json_into(&mut self.line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StreamsError> {
        self.writer.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_sink_shares_buffer() {
        let sink = CollectSink::shared();
        let mut handle = sink.clone();
        handle.write_item(DataItem::new().with("x", 1i64)).unwrap();
        handle.write_item(DataItem::new().with("x", 2i64)).unwrap();
        assert_eq!(sink.len(), 2);
        assert!(!sink.is_empty());
        assert_eq!(sink.items()[1].get_i64("x"), Some(2));
    }

    #[test]
    fn count_sink_counts() {
        let sink = CountSink::shared();
        let mut handle = sink.clone();
        for _ in 0..7 {
            handle.write_item(DataItem::new()).unwrap();
        }
        assert_eq!(sink.count(), 7);
    }

    #[test]
    fn json_lines_sink_roundtrip() {
        let mut sink = JsonLinesSink::new(Vec::<u8>::new());
        sink.write_item(DataItem::new().with("a", 1i64)).unwrap();
        sink.write_item(DataItem::new().with("b", "x")).unwrap();
        sink.flush().unwrap();
        let text = String::from_utf8(sink.writer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(DataItem::from_json(lines[0]).unwrap().get_i64("a"), Some(1));
    }
}
