//! The shared fabric: per-pair message channels and monitor-based
//! collectives.
//!
//! One [`Fabric`] is shared (via `Arc`) by all ranks of a [`crate::Universe`].
//! Point-to-point transport is a dense matrix of unbounded crossbeam
//! channels, so sends never block (buffered-send semantics, like eager-mode
//! MPI). Collectives use a generation-counted monitor so they are reusable
//! without teardown.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::cost::CostModel;

/// A tagged point-to-point message.
#[derive(Debug)]
pub struct Message {
    /// Sender rank.
    pub src: usize,
    /// Match tag.
    pub tag: u64,
    /// Simulated arrival instant (cost model applied).
    pub arrival: Instant,
    /// Payload.
    pub data: Vec<f64>,
}

/// Shared state for one universe of `n` ranks.
pub struct Fabric {
    size: usize,
    cost: CostModel,
    /// `senders[dst][src]`: channel into dst's mailbox, one per source.
    senders: Vec<Vec<Sender<Message>>>,
    /// `receivers[dst][src]`, taken by rank dst at startup.
    receivers: Vec<Vec<Mutex<Option<Receiver<Message>>>>>,
    /// Keep-alive clones so buffered sends never observe a disconnect even
    /// after a rank has finished and dropped its endpoints (a rank posting
    /// its final exchange must not fail because its neighbour already
    /// exited — matches MPI buffered-send semantics).
    _keepalive: Vec<Receiver<Message>>,
    barrier: Monitor<()>,
    gather: Monitor<Vec<Vec<f64>>>,
}

impl Fabric {
    /// Build a fabric for `size` ranks with the given link-cost model.
    pub fn new(size: usize, cost: CostModel) -> Arc<Self> {
        assert!(size > 0, "fabric needs at least one rank");
        let mut senders: Vec<Vec<Sender<Message>>> = (0..size).map(|_| Vec::new()).collect();
        let mut receivers: Vec<Vec<Mutex<Option<Receiver<Message>>>>> =
            (0..size).map(|_| Vec::new()).collect();
        let mut keepalive = Vec::with_capacity(size * size);
        for dst in 0..size {
            for _src in 0..size {
                let (tx, rx) = unbounded();
                senders[dst].push(tx);
                keepalive.push(rx.clone());
                receivers[dst].push(Mutex::new(Some(rx)));
            }
        }
        Arc::new(Self {
            size,
            cost,
            senders,
            receivers,
            _keepalive: keepalive,
            barrier: Monitor::new(size, ()),
            gather: Monitor::new(size, Vec::new()),
        })
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Sender endpoint for `src → dst`.
    pub(crate) fn sender(&self, src: usize, dst: usize) -> Sender<Message> {
        self.senders[dst][src].clone()
    }

    /// Take rank `dst`'s receive endpoints (one per source); callable once.
    pub(crate) fn take_receivers(&self, dst: usize) -> Vec<Receiver<Message>> {
        self.receivers[dst]
            .iter()
            .map(|m| m.lock().take().expect("receivers already taken for rank"))
            .collect()
    }

    /// Generation-counted barrier.
    pub(crate) fn barrier_wait(&self) {
        self.barrier.phase(|_| {}, |_| ());
    }

    /// All-reduce a vector of doubles with `op` (elementwise). The ranks'
    /// vectors are gathered into rank-ordered slots and folded
    /// `((v0 op v1) op v2) …`, so the result's bits never depend on which
    /// rank arrived first.
    pub(crate) fn allreduce(&self, rank: usize, mine: &[f64], op: fn(f64, f64) -> f64) -> Vec<f64> {
        let mut slots = self.gather_all(rank, mine.to_vec()).into_iter();
        let mut acc = slots.next().expect("fabric has ranks");
        for s in slots {
            assert_eq!(acc.len(), s.len(), "allreduce length mismatch");
            for (a, m) in acc.iter_mut().zip(s) {
                *a = op(*a, m);
            }
        }
        acc
    }

    /// Gather every rank's vector, returned to all ranks in rank order.
    pub(crate) fn gather_all(&self, rank: usize, mine: Vec<f64>) -> Vec<Vec<f64>> {
        let size = self.size;
        self.gather.phase(
            move |slots| {
                if slots.len() != size {
                    slots.clear();
                    slots.resize(size, Vec::new());
                }
                slots[rank] = mine;
            },
            |slots| slots.clone(),
        )
    }
}

/// A reusable monitor: all `n` participants run `deposit` on the shared
/// accumulator; the last arrival seals the phase; everyone then reads the
/// result with `collect` and the accumulator resets for the next phase.
struct Monitor<T: Default> {
    n: usize,
    state: Mutex<MonitorState<T>>,
    cv: Condvar,
}

struct MonitorState<T> {
    generation: u64,
    arrived: usize,
    acc: T,
    /// Result of the sealed generation, kept until all have collected.
    sealed: Option<(u64, usize)>,
    sealed_acc: T,
}

impl<T: Default + Clone> Monitor<T> {
    fn new(n: usize, initial: T) -> Self {
        Self {
            n,
            state: Mutex::new(MonitorState {
                generation: 0,
                arrived: 0,
                acc: initial,
                sealed: None,
                sealed_acc: T::default(),
            }),
            cv: Condvar::new(),
        }
    }

    fn phase<R>(&self, deposit: impl FnOnce(&mut T), collect: impl FnOnce(&T) -> R) -> R {
        let mut st = self.state.lock();
        // Wait until the previous generation has fully drained.
        while st.sealed.is_some() && st.arrived == 0 && st.sealed.as_ref().unwrap().1 < self.n {
            // A sealed phase still being collected and we are from the next
            // generation: wait for it to drain before depositing.
            self.cv.wait(&mut st);
        }
        let my_gen = st.generation;
        deposit(&mut st.acc);
        st.arrived += 1;
        if st.arrived == self.n {
            // Seal: move acc into sealed slot, advance generation.
            st.sealed_acc = std::mem::take(&mut st.acc);
            st.sealed = Some((my_gen, 0));
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        } else {
            while !matches!(st.sealed, Some((g, _)) if g == my_gen) {
                self.cv.wait(&mut st);
            }
        }
        let out = collect(&st.sealed_acc);
        if let Some((g, ref mut taken)) = st.sealed {
            debug_assert_eq!(g, my_gen);
            *taken += 1;
            if *taken == self.n {
                st.sealed = None;
                st.sealed_acc = T::default();
                self.cv.notify_all();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fabric_builds_and_hands_out_endpoints_once() {
        let f = Fabric::new(3, CostModel::free());
        assert_eq!(f.size(), 3);
        let rx = f.take_receivers(1);
        assert_eq!(rx.len(), 3);
        let tx = f.sender(0, 1);
        tx.send(Message {
            src: 0,
            tag: 7,
            arrival: Instant::now(),
            data: vec![1.0, 2.0],
        })
        .unwrap();
        let got = rx[0].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(got.tag, 7);
        assert_eq!(got.data, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn receivers_cannot_be_taken_twice() {
        let f = Fabric::new(2, CostModel::free());
        let _a = f.take_receivers(0);
        let _b = f.take_receivers(0);
    }

    #[test]
    fn monitor_reduces_across_threads() {
        let f = Fabric::new(4, CostModel::free());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|r| {
                    let f = &f;
                    s.spawn(move || f.allreduce(r, &[r as f64, 1.0], |a, b| a + b))
                })
                .collect();
            for h in handles {
                let out = h.join().unwrap();
                assert_eq!(out, vec![6.0, 4.0]);
            }
        });
    }

    /// Run one 3-rank allreduce with the ranks arriving in the order 2, 1, 0
    /// (each waits until the previous one has deposited).
    fn allreduce_arriving_backwards(vals: [[f64; 3]; 3], op: fn(f64, f64) -> f64) -> Vec<Vec<f64>> {
        let f = Fabric::new(3, CostModel::free());
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (arrived, r) in [2usize, 1, 0].into_iter().enumerate() {
                while f.gather.state.lock().arrived < arrived {
                    std::thread::yield_now();
                }
                let f = &f;
                handles.push((r, s.spawn(move || f.allreduce(r, &vals[r], op))));
            }
            handles.sort_by_key(|(r, _)| *r);
            handles
                .into_iter()
                .map(|(_, h)| h.join().unwrap())
                .collect()
        })
    }

    #[test]
    fn allreduce_folds_in_rank_order_not_arrival_order() {
        let v = [1e16, 1.0, -1e16];
        // Rank r deposits v rotated by r, so lane 1 holds (v1, v2, v0): its
        // rank-order sum is 0 and its arrival-order sum (2, 1, 0) is 1.
        let vals = [[v[0], v[1], v[2]], [v[1], v[2], v[0]], [v[2], v[0], v[1]]];
        let ops: [fn(f64, f64) -> f64; 3] = [|a, b| a + b, f64::max, f64::min];
        for (k, op) in ops.into_iter().enumerate() {
            let want: Vec<u64> = (0..3)
                .map(|l| op(op(vals[0][l], vals[1][l]), vals[2][l]).to_bits())
                .collect();
            for out in allreduce_arriving_backwards(vals, op) {
                let got: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "op {k} (sum, max, min)");
            }
        }
        let lane1 = |a: usize, b: usize, c: usize| (vals[a][1] + vals[b][1]) + vals[c][1];
        assert_ne!(
            lane1(0, 1, 2),
            lane1(2, 1, 0),
            "lane 1 tells the orders apart"
        );
    }

    #[test]
    fn monitor_is_reusable_across_generations() {
        let f = Fabric::new(2, CostModel::free());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|r| {
                    let f = &f;
                    s.spawn(move || {
                        let mut outs = Vec::new();
                        for round in 0..5 {
                            let v = f.allreduce(r, &[(r + round) as f64], f64::max);
                            outs.push(v[0]);
                        }
                        outs
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
            }
        });
    }

    #[test]
    fn gather_returns_rank_order() {
        let f = Fabric::new(3, CostModel::free());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|r| {
                    let f = &f;
                    s.spawn(move || f.gather_all(r, vec![r as f64; r + 1]))
                })
                .collect();
            for h in handles {
                let all = h.join().unwrap();
                assert_eq!(all.len(), 3);
                assert_eq!(all[0], vec![0.0]);
                assert_eq!(all[1], vec![1.0, 1.0]);
                assert_eq!(all[2], vec![2.0, 2.0, 2.0]);
            }
        });
    }
}
