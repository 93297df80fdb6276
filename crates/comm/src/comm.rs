//! Per-rank communicator handle.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;

use crate::error::{CommError, CommResult};
use crate::fabric::{Fabric, Message};
use crate::timing::CommTimers;

/// Handle to a completed (buffered) send. Exists so call sites read like the
/// paper's `MPI_Isend` schedule; completion is immediate because the fabric
/// buffers eagerly.
#[derive(Debug)]
#[must_use = "isend returns a request; drop it intentionally or track it"]
pub struct SendRequest {
    _bytes: usize,
}

/// A posted receive awaiting a `(src, tag)` match.
#[derive(Debug)]
#[must_use = "a posted receive must be waited on"]
pub struct RecvRequest {
    src: usize,
    tag: u64,
}

/// One rank's endpoint into the fabric: nonblocking point-to-point plus
/// collectives, with all blocked time accounted in [`CommTimers`].
pub struct Comm {
    rank: usize,
    fabric: Arc<Fabric>,
    /// Receive endpoints, one per source rank.
    rx: Vec<Receiver<Message>>,
    /// Out-of-order messages parked until their `(src, tag)` is waited on.
    pending: HashMap<(usize, u64), VecDeque<Message>>,
    timers: CommTimers,
}

impl Comm {
    /// Create the endpoint for `rank` (called by [`crate::Universe`]).
    pub(crate) fn new(fabric: Arc<Fabric>, rank: usize) -> Self {
        let rx = fabric.take_receivers(rank);
        Self {
            rank,
            fabric,
            rx,
            pending: HashMap::new(),
            timers: CommTimers::default(),
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Communicator size.
    #[inline]
    pub fn size(&self) -> usize {
        self.fabric.size()
    }

    /// Accumulated communication timers.
    pub fn timers(&self) -> &CommTimers {
        &self.timers
    }

    /// Reset and return the timers (e.g. after warmup steps).
    pub fn take_timers(&mut self) -> CommTimers {
        std::mem::take(&mut self.timers)
    }

    /// Nonblocking tagged send of a double payload to `dst`.
    ///
    /// Buffered-eager semantics: the payload is handed to the fabric at once
    /// and the call never blocks; the *receiver* observes the link-cost
    /// model's `α + bytes/β` delay.
    pub fn isend(&mut self, dst: usize, tag: u64, data: Vec<f64>) -> CommResult<SendRequest> {
        if dst >= self.size() {
            return Err(CommError::BadRank {
                rank: dst,
                size: self.size(),
            });
        }
        let bytes = data.len() * 8;
        let delay = self.fabric.cost().delay(self.rank, bytes);
        let msg = Message {
            src: self.rank,
            tag,
            arrival: Instant::now() + delay,
            data,
        };
        self.timers.messages_sent += 1;
        self.timers.doubles_sent += (bytes / 8) as u64;
        self.fabric
            .sender(self.rank, dst)
            .send(msg)
            .map_err(|_| CommError::Disconnected { from: dst })?;
        Ok(SendRequest { _bytes: bytes })
    }

    /// Blocking send (buffered, so identical to [`Comm::isend`] in practice).
    pub fn send(&mut self, dst: usize, tag: u64, data: Vec<f64>) -> CommResult<()> {
        self.isend(dst, tag, data).map(|_| ())
    }

    /// Post a receive for `(src, tag)`.
    pub fn irecv(&self, src: usize, tag: u64) -> CommResult<RecvRequest> {
        if src >= self.size() {
            return Err(CommError::BadRank {
                rank: src,
                size: self.size(),
            });
        }
        Ok(RecvRequest { src, tag })
    }

    /// Complete one posted receive, blocking until the matching message has
    /// *arrived* (cost-model delay included). Blocked time is accounted.
    pub fn wait(&mut self, req: RecvRequest) -> CommResult<Vec<f64>> {
        let start = Instant::now();
        let msg = self.match_message(req.src, req.tag)?;
        sleep_until(msg.arrival);
        self.timers.wait += start.elapsed();
        Ok(msg.data)
    }

    /// Complete a set of receives (the paper's `MPI_Waitall`), returning
    /// payloads in request order.
    pub fn waitall(&mut self, reqs: Vec<RecvRequest>) -> CommResult<Vec<Vec<f64>>> {
        let start = Instant::now();
        // Match everything first, then realise the latest arrival — multiple
        // in-flight messages overlap like on a real NIC.
        let mut msgs = Vec::with_capacity(reqs.len());
        for r in reqs {
            msgs.push(self.match_message(r.src, r.tag)?);
        }
        if let Some(latest) = msgs.iter().map(|m| m.arrival).max() {
            sleep_until(latest);
        }
        self.timers.wait += start.elapsed();
        Ok(msgs.into_iter().map(|m| m.data).collect())
    }

    /// Blocking receive: post + wait.
    pub fn recv(&mut self, src: usize, tag: u64) -> CommResult<Vec<f64>> {
        let req = self.irecv(src, tag)?;
        self.wait(req)
    }

    fn match_message(&mut self, src: usize, tag: u64) -> CommResult<Message> {
        if let Some(dq) = self.pending.get_mut(&(src, tag)) {
            if let Some(m) = dq.pop_front() {
                return Ok(m);
            }
        }
        loop {
            let msg = self.rx[src]
                .recv()
                .map_err(|_| CommError::Disconnected { from: src })?;
            if msg.tag == tag {
                return Ok(msg);
            }
            self.pending
                .entry((src, msg.tag))
                .or_default()
                .push_back(msg);
        }
    }

    /// Synchronise all ranks; blocked time is accounted separately from
    /// point-to-point waits.
    pub fn barrier(&mut self) {
        let start = Instant::now();
        self.fabric.barrier_wait();
        self.timers.barrier += start.elapsed();
    }

    /// Element-wise sum across ranks (everyone gets the result). The
    /// contributions are added in rank order, `((v0 + v1) + v2) …`, whatever
    /// order the ranks arrive in, so the result is bitwise reproducible at
    /// any rank count.
    pub fn allreduce_sum(&mut self, vals: &[f64]) -> Vec<f64> {
        self.collective(vals, |a, b| a + b)
    }

    /// Element-wise max across ranks (folded in rank order).
    pub fn allreduce_max(&mut self, vals: &[f64]) -> Vec<f64> {
        self.collective(vals, f64::max)
    }

    /// Element-wise min across ranks (folded in rank order).
    pub fn allreduce_min(&mut self, vals: &[f64]) -> Vec<f64> {
        self.collective(vals, f64::min)
    }

    fn collective(&mut self, vals: &[f64], op: fn(f64, f64) -> f64) -> Vec<f64> {
        let start = Instant::now();
        let out = self.fabric.allreduce(self.rank, vals, op);
        self.timers.collective += start.elapsed();
        out
    }

    /// Gather every rank's vector (rank-ordered) on all ranks.
    pub fn gather_all(&mut self, mine: Vec<f64>) -> Vec<Vec<f64>> {
        let start = Instant::now();
        let out = self.fabric.gather_all(self.rank, mine);
        self.timers.collective += start.elapsed();
        out
    }
}

/// Sleep until `deadline` with sub-millisecond tail spinning (coarse sleeps
/// alone overshoot by a scheduler quantum, which would distort the Fig. 9 /
/// Fig. 10 timing experiments).
fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remain = deadline - now;
        if remain > Duration::from_micros(500) {
            std::thread::sleep(remain - Duration::from_micros(300));
        } else {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn pair() -> (Comm, Comm) {
        let fabric = Fabric::new(2, CostModel::free());
        (Comm::new(fabric.clone(), 0), Comm::new(fabric, 1))
    }

    #[test]
    fn send_recv_same_thread_pair() {
        let (mut a, mut b) = pair();
        a.send(1, 42, vec![1.0, 2.0, 3.0]).unwrap();
        let got = b.recv(0, 42).unwrap();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
        assert_eq!(a.timers().messages_sent, 1);
        assert_eq!(a.timers().doubles_sent, 3);
    }

    #[test]
    fn tags_match_out_of_order() {
        let (mut a, mut b) = pair();
        a.send(1, 1, vec![1.0]).unwrap();
        a.send(1, 2, vec![2.0]).unwrap();
        a.send(1, 3, vec![3.0]).unwrap();
        assert_eq!(b.recv(0, 3).unwrap(), vec![3.0]);
        assert_eq!(b.recv(0, 1).unwrap(), vec![1.0]);
        assert_eq!(b.recv(0, 2).unwrap(), vec![2.0]);
    }

    #[test]
    fn same_tag_is_fifo() {
        let (mut a, mut b) = pair();
        for k in 0..5 {
            a.send(1, 9, vec![k as f64]).unwrap();
        }
        for k in 0..5 {
            assert_eq!(b.recv(0, 9).unwrap(), vec![k as f64]);
        }
    }

    #[test]
    fn waitall_returns_in_request_order() {
        let (mut a, mut b) = pair();
        a.send(1, 10, vec![10.0]).unwrap();
        a.send(1, 11, vec![11.0]).unwrap();
        let r1 = b.irecv(0, 11).unwrap();
        let r2 = b.irecv(0, 10).unwrap();
        let out = b.waitall(vec![r1, r2]).unwrap();
        assert_eq!(out, vec![vec![11.0], vec![10.0]]);
    }

    #[test]
    fn bad_rank_is_rejected() {
        let (mut a, _b) = pair();
        assert!(matches!(
            a.send(5, 0, vec![]),
            Err(CommError::BadRank { rank: 5, size: 2 })
        ));
        assert!(a.irecv(9, 0).is_err());
    }

    #[test]
    fn cost_model_delays_completion() {
        let fabric = Fabric::new(
            2,
            CostModel::uniform(Duration::from_millis(20), f64::INFINITY),
        );
        let mut a = Comm::new(fabric.clone(), 0);
        let mut b = Comm::new(fabric, 1);
        a.send(1, 0, vec![1.0]).unwrap();
        let t0 = Instant::now();
        let _ = b.recv(0, 0).unwrap();
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(18), "{waited:?}");
        assert!(b.timers().wait >= Duration::from_millis(18));
    }

    #[test]
    fn overlap_is_free_when_waiting_late() {
        // If the receiver does 30 ms of "work" before waiting on a 20 ms
        // message, the wait should be ~instant — the overlap property GC-C
        // exploits.
        let fabric = Fabric::new(
            2,
            CostModel::uniform(Duration::from_millis(20), f64::INFINITY),
        );
        let mut a = Comm::new(fabric.clone(), 0);
        let mut b = Comm::new(fabric, 1);
        a.send(1, 0, vec![1.0]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let t0 = Instant::now();
        let _ = b.recv(0, 0).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn take_timers_resets() {
        let (mut a, mut b) = pair();
        a.send(1, 0, vec![0.0; 10]).unwrap();
        let _ = b.recv(0, 0).unwrap();
        let t = a.take_timers();
        assert_eq!(t.messages_sent, 1);
        assert_eq!(a.timers().messages_sent, 0);
    }
}
