//! The harness's observation points at the edges of a topology, built on std
//! traits only: a sink poller for the open loop and the relay's in-memory
//! output file.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep between two looks at the sink. With the scheduler's wake-up slack
/// the observed interval stays below 0.5 ms, the resolution of every CE
/// latency sample.
const POLL_EVERY: Duration = Duration::from_micros(300);

/// Watches a sink grow from its own thread, sleeping between looks.
pub struct Poller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(usize, u64)>>,
}

impl Poller {
    /// Polls `len` until [`Poller::finish`]; instants are ns from `origin`.
    pub fn spawn(len: impl Fn() -> usize + Send + 'static, origin: Instant) -> Poller {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut log = Vec::new();
            let mut seen = 0;
            loop {
                // Read the flag first: the look that follows a raised flag
                // is the final one and sees everything the run wrote.
                let last = stopped.load(Ordering::Acquire);
                let n = len();
                if n > seen {
                    seen = n;
                    log.push((n, origin.elapsed().as_nanos() as u64));
                }
                if last {
                    return log;
                }
                std::thread::sleep(POLL_EVERY);
            }
        });
        Poller { stop, handle }
    }

    /// Stops the thread and returns `(length reached, instant)` steps, both
    /// strictly increasing.
    pub fn finish(self) -> Vec<(usize, u64)> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("the poller thread does not panic")
    }
}

/// Reads the poller's log of `(count reached, instant)` steps: the instant at
/// which the `index`-th item (0-based) was first covered.
pub fn reached_at(log: &[(usize, u64)], index: usize) -> Option<u64> {
    log.get(log.partition_point(|&(count, _)| count <= index)).map(|&(_, at)| at)
}

/// The relay's output file in memory: appends locally and publishes the
/// bytes into `out` on `flush`, which the sink calls once at end of stream.
pub struct MemoryFile {
    bytes: Vec<u8>,
    out: Arc<Mutex<Vec<u8>>>,
}

impl MemoryFile {
    /// Writes into `buffer` (emptied first, grown to `capacity` bytes up
    /// front so growth stays out of the timed pass). Handing each pass the
    /// previous pass's buffer keeps the process at one output buffer,
    /// whatever the allocator does with a freed 20 MB block — left to it,
    /// `peak_rss_mb` moved by 20 % between runs of the same code.
    pub fn new(mut buffer: Vec<u8>, capacity: usize, out: Arc<Mutex<Vec<u8>>>) -> MemoryFile {
        buffer.clear();
        buffer.reserve(capacity);
        MemoryFile { bytes: buffer, out }
    }
}

impl Write for MemoryFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        *self.out.lock().expect("output lock") = std::mem::take(&mut self.bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reached_at_is_the_first_step_that_covers_the_item() {
        let log = [(2, 100), (3, 250), (7, 900)];
        assert_eq!(reached_at(&log, 0), Some(100));
        assert_eq!(reached_at(&log, 1), Some(100));
        assert_eq!(reached_at(&log, 2), Some(250));
        assert_eq!(reached_at(&log, 6), Some(900));
        assert_eq!(reached_at(&log, 7), None);
    }

    #[test]
    fn poller_sees_the_final_length() {
        let n = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let m = Arc::clone(&n);
        let poller = Poller::spawn(move || m.load(Ordering::SeqCst), Instant::now());
        n.store(5, Ordering::SeqCst);
        let log = poller.finish();
        assert_eq!(log.last().map(|s| s.0), Some(5));
    }

    #[test]
    fn memory_file_publishes_on_flush_and_reuses_its_buffer() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let mut file = MemoryFile::new(b"stale".to_vec(), 64, Arc::clone(&out));
        writeln!(file, "one").unwrap();
        assert!(out.lock().unwrap().is_empty(), "nothing is published before flush");
        writeln!(file, "two").unwrap();
        file.flush().unwrap();
        assert_eq!(*out.lock().unwrap(), b"one\ntwo\n");
        assert!(out.lock().unwrap().capacity() >= 64);
    }
}
