//! Threaded stress test of fan-in queues.
//!
//! `k` producer threads each send a numbered stream in batches of random
//! size (1 up to twice the ring capacity) into one queue, while the consumer
//! alternates the blocking `recv_batch` with the non-blocking
//! `try_recv_batch`. Every producer's items must arrive in its send order and
//! every item exactly once. All producers wake the consumer through one
//! shared doorbell, so a lost wake-up there would park the consumer forever:
//! each run is watched by a deadline and a stuck run fails the test instead
//! of hanging it.
//!
//! ```sh
//! cargo test --release -p insight-streams --test fan_in_stress
//! ```

use insight_streams::item::DataItem;
use insight_streams::queue::queue;
use insight_streams::source::Polled;
use rand::{Rng, SeedableRng, StdRng};
use std::sync::mpsc;
use std::time::Duration;

/// Far above what a run takes even in a debug build on a loaded host.
const DEADLINE: Duration = Duration::from_secs(120);

const ITEMS_PER_PRODUCER: i64 = 5_000;

/// One run: returns each producer's received sequence numbers, in arrival
/// order.
fn run(k: usize, capacity: usize, seed: u64) -> Vec<Vec<i64>> {
    let (senders, mut rx) = queue(capacity, k);
    let producers: Vec<_> = senders
        .into_iter()
        .enumerate()
        .map(|(p, tx)| {
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((p as u64 + 1) * 0x9e37_79b9));
                let mut next = 0;
                let mut batch = Vec::new();
                while next < ITEMS_PER_PRODUCER {
                    let size = rng.random_range(1..=2 * capacity as i64);
                    let end = (next + size).min(ITEMS_PER_PRODUCER);
                    batch.extend(
                        (next..end).map(|n| DataItem::new().with("p", p as i64).with("n", n)),
                    );
                    next = end;
                    assert!(tx.send_batch(&mut batch), "the consumer outlives the producers");
                }
                // Half the producers end explicitly, the rest by dropping.
                if p % 2 == 0 {
                    tx.finish();
                }
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut received = vec![Vec::new(); k];
    let mut out = Vec::new();
    for round in 0.. {
        let max = rng.random_range(1..=2 * capacity);
        let ended = if round % 2 == 0 {
            rx.recv_batch(max, &mut out) == 0
        } else {
            match rx.try_recv_batch(max, &mut out) {
                Polled::Items(n) => {
                    assert!(n <= max);
                    false
                }
                Polled::Pending => {
                    std::thread::yield_now();
                    false
                }
                Polled::Ended => true,
            }
        };
        assert!(out.len() <= max, "a receive honours its cap");
        for item in out.drain(..) {
            received[item.get_i64("p").unwrap() as usize].push(item.get_i64("n").unwrap());
        }
        if ended {
            break;
        }
    }
    for producer in producers {
        producer.join().unwrap();
    }
    received
}

#[test]
fn every_producers_stream_arrives_whole_and_in_order() {
    for k in [1usize, 2, 5] {
        for capacity in [1usize, 3, 64] {
            for seed in 0..6u64 {
                let (done_tx, done_rx) = mpsc::channel();
                std::thread::spawn(move || done_tx.send(run(k, capacity, seed)).unwrap());
                let config = format!("k = {k}, capacity = {capacity}, seed = {seed}");
                let received = match done_rx.recv_timeout(DEADLINE) {
                    Ok(received) => received,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        panic!("{config}: no end of stream within {DEADLINE:?}")
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        panic!("{config}: the run panicked")
                    }
                };
                for (p, got) in received.iter().enumerate() {
                    assert!(
                        got.iter().copied().eq(0..ITEMS_PER_PRODUCER),
                        "{config}: producer {p} delivered {} items, out of order or incomplete",
                        got.len()
                    );
                }
            }
        }
    }
}
