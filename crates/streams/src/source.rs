//! Sources: where data items enter the graph.

use crate::error::StreamsError;
use crate::item::DataItem;
use std::io::BufRead;

/// Outcome of a non-blocking pull: [`Source::poll_batch`], or
/// [`QueueReceiver::try_recv_batch`](crate::queue::QueueReceiver::try_recv_batch)
/// on a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled {
    /// This many items (at least one) were appended.
    Items(usize),
    /// Nothing is available yet; the stream is still open.
    Pending,
    /// End of stream.
    Ended,
}

/// A pull-based stream of data items; `Ok(None)` signals end of stream.
pub trait Source: Send {
    /// Produces the next item.
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError>;

    /// Produces up to `max` items into `out`, returning how many were
    /// appended; `Ok(0)` signals end of stream.
    ///
    /// The default pulls a single item, which is the right behaviour for
    /// live (blocking) sources: a source must never hold an already-produced
    /// item back while waiting to fill a batch. Sources over
    /// pre-materialised data (e.g. [`VecSource`]) override this to hand the
    /// runtime a full batch per call, amortising per-item dispatch on the
    /// ingest path.
    fn next_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<usize, StreamsError> {
        debug_assert!(max > 0, "next_batch called with max = 0");
        match self.next_item()? {
            Some(item) => {
                out.push(item);
                Ok(1)
            }
            None => Ok(0),
        }
    }

    /// [`Source::next_batch`] without the wait: a source with nothing to
    /// hand over *yet* answers [`Polled::Pending`]. The worker pulling the
    /// source asks this first in every step, whichever driver steps it.
    /// Then the threaded [`crate::runtime::Runtime`] waits in `next_batch`,
    /// and the single-threaded [`crate::replay::ReplayRuntime`], where a
    /// source that waited would stall every process, asks again later.
    ///
    /// The default never answers `Pending`, which is right for every source
    /// whose `next_batch` returns without waiting (pre-materialised or
    /// file-backed). A live source that waits inside `next_item` should
    /// override this so the replay scheduler can run it.
    fn poll_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<Polled, StreamsError> {
        Ok(match self.next_batch(max, out)? {
            0 => Polled::Ended,
            n => Polled::Items(n),
        })
    }
}

/// A source over a pre-materialised vector of items.
pub struct VecSource {
    items: std::vec::IntoIter<DataItem>,
}

impl VecSource {
    /// Builds the source from any iterable of items.
    pub fn new<I: IntoIterator<Item = DataItem>>(items: I) -> VecSource {
        VecSource { items: items.into_iter().collect::<Vec<_>>().into_iter() }
    }
}

impl Source for VecSource {
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
        Ok(self.items.next())
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<usize, StreamsError> {
        let before = out.len();
        out.extend(self.items.by_ref().take(max));
        Ok(out.len() - before)
    }
}

/// Test support — a stand-in for a live feed that goes quiet, and the
/// in-tree example of a source that overrides [`Source::poll_batch`]: a
/// source over pre-materialised *bursts* with a gate between them. Burst `k`
/// is handed over only once `gate(k)` holds (in the no-hold tests of
/// `streams`, `core` and `conformance`: once everything the previous burst
/// should produce has reached the sink).
///
/// A closed gate is [`Polled::Pending`]. Under
/// [`crate::replay::ReplayRuntime`] a pipeline that cannot open it on its
/// own therefore ends in [`StreamsError::ReplayDeadlock`]; under the
/// threaded runtime the pulling worker goes idle once and then spins on
/// `yield_now` in `next_batch` until the gate opens — fine for a test, not
/// for a deployment. The gate of burst `k` is first asked when the worker
/// pulling this source has handed on all of burst `k - 1`.
pub struct GatedSource<G> {
    bursts: std::collections::VecDeque<std::vec::IntoIter<DataItem>>,
    gate: G,
    /// Index of the front burst, and whether its gate has opened.
    index: usize,
    open: bool,
}

impl<G> GatedSource<G>
where
    G: FnMut(usize) -> bool + Send,
{
    /// Builds the source from its bursts and the gate.
    pub fn new(bursts: Vec<Vec<DataItem>>, gate: G) -> GatedSource<G> {
        GatedSource {
            bursts: bursts.into_iter().map(Vec::into_iter).collect(),
            gate,
            index: 0,
            open: false,
        }
    }
}

impl<G> Source for GatedSource<G>
where
    G: FnMut(usize) -> bool + Send,
{
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
        let mut one = Vec::with_capacity(1);
        self.next_batch(1, &mut one)?;
        Ok(one.pop())
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<usize, StreamsError> {
        loop {
            match self.poll_batch(max, out)? {
                Polled::Items(n) => return Ok(n),
                Polled::Ended => return Ok(0),
                Polled::Pending => std::thread::yield_now(),
            }
        }
    }

    fn poll_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<Polled, StreamsError> {
        while let Some(burst) = self.bursts.front_mut() {
            if !self.open && !(self.gate)(self.index) {
                return Ok(Polled::Pending);
            }
            self.open = true;
            let before = out.len();
            out.extend(burst.take(max));
            if out.len() > before {
                return Ok(Polled::Items(out.len() - before));
            }
            self.bursts.pop_front();
            self.index += 1;
            self.open = false;
        }
        Ok(Polled::Ended)
    }
}

/// A source reading one JSON object per line from any buffered reader
/// (the file-based stream format of the original framework).
pub struct JsonLinesSource<R: BufRead + Send> {
    reader: R,
    line: String,
}

impl<R: BufRead + Send> JsonLinesSource<R> {
    /// Wraps the reader.
    pub fn new(reader: R) -> JsonLinesSource<R> {
        JsonLinesSource { reader, line: String::new() }
    }
}

impl<R: BufRead + Send> Source for JsonLinesSource<R> {
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                return Ok(None);
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                continue;
            }
            return DataItem::from_json(trimmed).map(Some);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_source_drains() {
        let mut s =
            VecSource::new([DataItem::new().with("a", 1i64), DataItem::new().with("a", 2i64)]);
        assert_eq!(s.next_item().unwrap().unwrap().get_i64("a"), Some(1));
        assert_eq!(s.next_item().unwrap().unwrap().get_i64("a"), Some(2));
        assert!(s.next_item().unwrap().is_none());
        assert!(s.next_item().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn vec_source_batches() {
        let mut s = VecSource::new((0..5).map(|n| DataItem::new().with("n", n as i64)));
        let mut out = Vec::new();
        assert_eq!(s.next_batch(2, &mut out).unwrap(), 2);
        assert_eq!(s.next_batch(16, &mut out).unwrap(), 3, "short final batch");
        assert_eq!(s.next_batch(16, &mut out).unwrap(), 0, "exhausted");
        let got: Vec<i64> = out.iter().map(|i| i.get_i64("n").unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4], "batching preserves order");
    }

    #[test]
    fn gated_source_holds_each_burst_until_its_gate_opens() {
        let item = |n: i64| DataItem::new().with("n", n);
        let open = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(1));
        let gate = {
            let open = std::sync::Arc::clone(&open);
            move |burst: usize| burst < open.load(std::sync::atomic::Ordering::SeqCst)
        };
        let mut s = GatedSource::new(vec![vec![item(0), item(1), item(2)], vec![item(3)]], gate);
        let mut out = Vec::new();
        assert_eq!(s.poll_batch(2, &mut out).unwrap(), Polled::Items(2));
        assert_eq!(s.poll_batch(2, &mut out).unwrap(), Polled::Items(1), "short end of a burst");
        assert_eq!(s.poll_batch(2, &mut out).unwrap(), Polled::Pending, "burst 1 is gated");
        assert_eq!(out.len(), 3);
        open.store(2, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(s.next_item().unwrap().unwrap().get_i64("n"), Some(3));
        assert_eq!(s.poll_batch(2, &mut out).unwrap(), Polled::Ended);
        // The default poll of an ordinary source never reports Pending.
        let mut v = VecSource::new([item(7)]);
        assert_eq!(v.poll_batch(4, &mut out).unwrap(), Polled::Items(1));
        assert_eq!(v.poll_batch(4, &mut out).unwrap(), Polled::Ended);
    }

    #[test]
    fn default_next_batch_pulls_one_item() {
        /// A live source: implements only `next_item`.
        struct Counter(i64);
        impl Source for Counter {
            fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
                self.0 += 1;
                Ok((self.0 <= 3).then(|| DataItem::new().with("n", self.0)))
            }
        }
        let mut s = Counter(0);
        let mut out = Vec::new();
        assert_eq!(s.next_batch(64, &mut out).unwrap(), 1, "live sources never batch");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn json_lines_source_skips_blank_lines() {
        let data = "{\"a\":1}\n\n{\"a\":2}\n";
        let mut s = JsonLinesSource::new(std::io::Cursor::new(data));
        assert_eq!(s.next_item().unwrap().unwrap().get_i64("a"), Some(1));
        assert_eq!(s.next_item().unwrap().unwrap().get_i64("a"), Some(2));
        assert!(s.next_item().unwrap().is_none());
    }

    #[test]
    fn json_lines_source_propagates_parse_errors() {
        let mut s = JsonLinesSource::new(std::io::Cursor::new("not-json\n"));
        assert!(s.next_item().is_err());
    }
}
