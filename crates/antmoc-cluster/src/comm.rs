//! Rank communicators and the thread-backed cluster harness.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::traffic::{Traffic, TrafficCounters};

/// How long a blocking receive waits before declaring a deadlock. The
/// solver's exchange patterns are deterministic, so a stall this long is
/// always a bug, not load.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// How long before a simulated transfer completes a waiting receive stops
/// sleeping and spins instead. A sleep ends up to the thread's timer slack
/// (50 us by default on Linux) late, plus the wake-up latency; sleeping to
/// this margin before the deadline and spinning the rest delivers the
/// message at its completion instant rather than a slack later.
const WAKE_MARGIN: Duration = Duration::from_micros(100);

/// Tags at or above this are collectives (allgather / allreduce). They
/// are exempt from the [`LinkModel`]: their payloads are
/// control-plane scalars next to the boundary-flux banks, and keeping
/// them instant preserves the collectives' barrier-like timing that the
/// overlap measurements lean on.
const COLLECTIVE_TAG_MIN: u32 = u32::MAX - 2;

/// A deterministic interconnect model: each message becomes visible to
/// its receiver only after `latency + bytes * ns_per_byte` of simulated
/// transfer time. Transfers over a fixed (sender, destination) link are
/// serialised, so visibility order matches send order and MPI's
/// non-overtaking guarantee still holds.
///
/// The in-process channels deliver instantly, which makes the exchange
/// phases of a cluster solve look free; a link model restores the wire
/// time the paper's Eq. 7 traffic model budgets for, which is what makes
/// comm/compute overlap measurable (and worth doing) in the benches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkModel {
    /// Fixed per-message latency.
    pub latency: Duration,
    /// Serialisation cost per payload byte, in nanoseconds.
    pub ns_per_byte: f64,
}

impl LinkModel {
    /// True for the default model: instant delivery, no simulated wire.
    pub fn is_zero(&self) -> bool {
        self.latency.is_zero() && self.ns_per_byte == 0.0
    }

    /// Transfer time for a message of `bytes` payload bytes.
    fn transfer(&self, bytes: u64) -> Duration {
        self.latency + Duration::from_nanos((bytes as f64 * self.ns_per_byte) as u64)
    }
}

/// An in-flight message: tag, payload, accounted size, and (under a
/// [`LinkModel`]) the instant its simulated transfer completes.
struct Message {
    tag: u32,
    bytes: u64,
    /// `None` means delivered instantly (no link model in effect).
    ready_at: Option<Instant>,
    payload: Box<dyn Any + Send>,
}

impl Message {
    fn in_flight(&self) -> bool {
        self.ready_at.is_some_and(|r| r > Instant::now())
    }
}

/// Returns at `at` or just after, never before: sleeps to [`WAKE_MARGIN`]
/// short of it, then spins.
fn wait_until(at: Instant) {
    let sleep = at.saturating_duration_since(Instant::now()).saturating_sub(WAKE_MARGIN);
    if !sleep.is_zero() {
        std::thread::sleep(sleep);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// The per-rank communicator handed to cluster closures. Semantics follow
/// MPI point-to-point ordering: messages between a fixed (sender,
/// receiver) pair are non-overtaking; receives match on tag with an
/// internal reorder buffer.
pub struct Comm {
    rank: usize,
    size: usize,
    /// `senders[to]` transmits to rank `to`.
    senders: Vec<Sender<Message>>,
    /// `receivers[from]` yields messages sent by rank `from`.
    receivers: Vec<Receiver<Message>>,
    /// Out-of-order messages waiting for a matching tag, indexed by tag
    /// per source. FIFO within a tag preserves non-overtaking order; the
    /// index keeps a deep mismatched-tag backlog from making every poll
    /// rescan it (the receive cost stays O(1) in the backlog depth).
    pending: Vec<HashMap<u32, VecDeque<Message>>>,
    /// At most one message per source pulled off the channel whose
    /// simulated transfer has not completed yet. The link is serial, so
    /// it also gates everything behind it from the same source.
    stalled: Vec<Option<Message>>,
    link: LinkModel,
    /// Per-destination completion time of this rank's last outgoing
    /// transfer; the next send on the same link starts after it.
    link_busy: Vec<Option<Instant>>,
    barrier: Arc<Barrier>,
    counters: Arc<Vec<TrafficCounters>>,
}

impl Comm {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends a value to `to` under `tag`, accounting `bytes` of traffic.
    fn send_with_bytes<T: Send + 'static>(&mut self, to: usize, tag: u32, value: T, bytes: u64) {
        assert!(to < self.size, "send to rank {to} of {}", self.size);
        self.counters[self.rank].record_send(bytes);
        let ready_at = if self.link.is_zero() || tag >= COLLECTIVE_TAG_MIN {
            None
        } else {
            let now = Instant::now();
            let start = self.link_busy[to].map_or(now, |busy| busy.max(now));
            let ready = start + self.link.transfer(bytes);
            self.link_busy[to] = Some(ready);
            Some(ready)
        };
        self.senders[to]
            .send(Message { tag, bytes, ready_at, payload: Box::new(value) })
            .expect("receiver hung up");
    }

    /// Sends a `Copy` scalar (accounted at its in-memory size).
    pub fn send_val<T: Copy + Send + 'static>(&mut self, to: usize, tag: u32, value: T) {
        self.send_with_bytes(to, tag, value, std::mem::size_of::<T>() as u64);
    }

    /// Sends a vector (accounted at its element payload size — what MPI
    /// would put on the wire).
    pub fn send_vec<T: Send + 'static>(&mut self, to: usize, tag: u32, value: Vec<T>) {
        let bytes = (value.len() * std::mem::size_of::<T>()) as u64;
        self.send_with_bytes(to, tag, value, bytes);
    }

    /// Moves every already-arrived channel message from `from` into the
    /// tag-indexed reorder buffer. A message whose simulated transfer is
    /// still in flight parks in `stalled` and stops the drain there: the
    /// link delivers serially, so nothing behind it can be visible yet.
    fn poll_source(&mut self, from: usize) {
        if let Some(msg) = self.stalled[from].take() {
            if msg.in_flight() {
                self.stalled[from] = Some(msg);
                return;
            }
            self.pending[from].entry(msg.tag).or_default().push_back(msg);
        }
        while let Ok(msg) = self.receivers[from].try_recv() {
            if msg.in_flight() {
                self.stalled[from] = Some(msg);
                return;
            }
            self.pending[from].entry(msg.tag).or_default().push_back(msg);
        }
    }

    /// Pops the oldest buffered message from `from` matching `tag`.
    fn take_pending(&mut self, from: usize, tag: u32) -> Option<Message> {
        let queue = self.pending[from].get_mut(&tag)?;
        let msg = queue.pop_front();
        if queue.is_empty() {
            self.pending[from].remove(&tag);
        }
        msg
    }

    /// Nonblocking receive: the next message from `from` with `tag` if
    /// one has already arrived (and, under a [`LinkModel`], finished its
    /// simulated transfer), else `None`. Never waits and records no
    /// `comm.recv_wait_ns` — this is the polling half of the pipelined
    /// exchange; only true waits in the blocking receives accrue time.
    pub fn try_recv<T: 'static>(&mut self, from: usize, tag: u32) -> Option<T> {
        assert!(from < self.size, "recv from rank {from} of {}", self.size);
        self.poll_source(from);
        self.take_pending(from, tag).map(|msg| self.unpack(msg))
    }

    /// Blocking receive of the next message from `from` with `tag`.
    /// Messages with other tags from the same source are buffered. A
    /// receive still unmatched after [`RECV_TIMEOUT`] panics: the exchange
    /// patterns are deterministic, so it is a deadlock or a dead peer.
    pub fn recv<T: 'static>(&mut self, from: usize, tag: u32) -> T {
        assert!(from < self.size, "recv from rank {from} of {}", self.size);
        // Fast path: an already-delivered message costs no wait, so it
        // records nothing. `comm.recv_wait_ns` accrues on true waits only.
        self.poll_source(from);
        if let Some(msg) = self.take_pending(from, tag) {
            return self.unpack(msg);
        }
        let t_wait = Instant::now();
        let deadline = t_wait + RECV_TIMEOUT;
        // Collective waits are barrier skew, not point-to-point receive
        // stall; they go in their own histogram so `comm.recv_wait_ns`
        // cleanly measures what the pipelined exchange can actually hide.
        let hist =
            if tag >= COLLECTIVE_TAG_MIN { "comm.collective_wait_ns" } else { "comm.recv_wait_ns" };
        let rank = self.rank;
        let record_wait = |t0: Instant| {
            antmoc_telemetry::Telemetry::current()
                .histogram_record(hist, t0.elapsed().as_nanos() as u64);
        };
        let timed_out = || -> ! {
            record_wait(t_wait);
            panic!("rank {rank}: timed out waiting for tag {tag} from rank {from}")
        };
        loop {
            if let Some(ready_at) = self.stalled[from].as_ref().and_then(|m| m.ready_at) {
                // A transfer is in flight; its completion is the earliest
                // anything from this source can become visible.
                wait_until(ready_at.min(deadline));
            } else {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match self.receivers[from].recv_timeout(remaining) {
                    Ok(msg) if msg.in_flight() => self.stalled[from] = Some(msg),
                    Ok(msg) => {
                        self.pending[from].entry(msg.tag).or_default().push_back(msg);
                    }
                    Err(_) => timed_out(),
                }
            }
            self.poll_source(from);
            if let Some(msg) = self.take_pending(from, tag) {
                record_wait(t_wait);
                return self.unpack(msg);
            }
            if Instant::now() >= deadline {
                timed_out();
            }
        }
    }

    fn unpack<T: 'static>(&self, msg: Message) -> T {
        self.counters[self.rank].record_recv(msg.bytes);
        *msg.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("rank {}: message tag {} carried an unexpected payload type", self.rank, msg.tag)
        })
    }

    /// Receive helper for `Copy` scalars.
    pub fn recv_val<T: Copy + 'static>(&mut self, from: usize, tag: u32) -> T {
        self.recv::<T>(from, tag)
    }

    /// Receive helper for vectors.
    pub fn recv_vec<T: 'static>(&mut self, from: usize, tag: u32) -> Vec<T> {
        self.recv::<Vec<T>>(from, tag)
    }

    /// Synchronises all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// All-reduce of an `f64` with a binary operation (gather to rank 0,
    /// reduce, broadcast). `op` must be associative and commutative.
    fn allreduce_f64(&mut self, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        const TAG: u32 = u32::MAX - 1;
        let _scope = antmoc_telemetry::Telemetry::current().trace_scope("comm.allreduce", &[]);
        if self.rank == 0 {
            let mut acc = value;
            for from in 1..self.size {
                let v: f64 = self.recv(from, TAG);
                acc = op(acc, v);
            }
            for to in 1..self.size {
                self.send_val(to, TAG, acc);
            }
            acc
        } else {
            self.send_val(0, TAG, value);
            self.recv(0, TAG)
        }
    }

    /// Sum all-reduce.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allreduce_f64(value, |a, b| a + b)
    }

    /// Gathers one vector per rank to every rank (all-gather), in rank
    /// order. Through rank 0: each contribution is accounted at its
    /// payload bytes, and each fan-out message at the payload bytes of
    /// every rank's contribution.
    pub fn allgather(&mut self, value: Vec<f64>) -> Vec<Vec<f64>> {
        const TAG: u32 = u32::MAX - 2;
        let _scope = antmoc_telemetry::Telemetry::current().trace_scope("comm.allgather", &[]);
        if self.rank == 0 {
            let mut all = vec![value];
            for from in 1..self.size {
                all.push(self.recv::<Vec<f64>>(from, TAG));
            }
            let bytes = all.iter().map(|v| v.len() * std::mem::size_of::<f64>()).sum::<usize>();
            for to in 1..self.size {
                self.send_with_bytes(to, TAG, all.clone(), bytes as u64);
            }
            all
        } else {
            self.send_vec(0, TAG, value);
            self.recv::<Vec<Vec<f64>>>(0, TAG)
        }
    }

    /// This rank's traffic so far.
    pub fn traffic(&self) -> Traffic {
        self.counters[self.rank].snapshot()
    }
}

/// Results plus final traffic for a cluster run.
#[derive(Debug)]
pub struct ClusterOutcome<T> {
    /// Per-rank closure results, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank traffic totals.
    pub traffic: Vec<Traffic>,
}

/// The cluster harness.
pub struct Cluster;

impl Cluster {
    /// Runs `f` on `n` ranks (one OS thread each) and collects results.
    /// Panics in any rank propagate after all threads join.
    pub fn run<T, F>(n: usize, f: F) -> ClusterOutcome<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        Self::run_linked(n, LinkModel::default(), f)
    }

    /// Like [`Cluster::run`], but every point-to-point message pays the
    /// simulated transfer time of `link` before becoming receivable.
    /// Collectives are unaffected (their payloads are control-plane
    /// scalars next to the boundary-flux banks).
    pub fn run_linked<T, F>(n: usize, link: LinkModel, f: F) -> ClusterOutcome<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(n >= 1, "cluster needs at least one rank");
        // Build the n x n channel fabric.
        let mut senders_matrix: Vec<Vec<Sender<Message>>> = (0..n).map(|_| Vec::new()).collect();
        let mut receivers_matrix: Vec<Vec<Receiver<Message>>> =
            (0..n).map(|_| Vec::new()).collect();
        for to in 0..n {
            for from in 0..n {
                let (tx, rx) = unbounded();
                senders_matrix[from].push(tx);
                receivers_matrix[to].push(rx);
                let _ = from;
            }
        }
        let barrier = Arc::new(Barrier::new(n));
        let counters = Arc::new((0..n).map(|_| TrafficCounters::default()).collect::<Vec<_>>());

        let comms: Vec<Comm> = senders_matrix
            .into_iter()
            .zip(receivers_matrix)
            .enumerate()
            .map(|(rank, (senders, receivers))| Comm {
                rank,
                size: n,
                senders,
                receivers,
                pending: (0..n).map(|_| HashMap::new()).collect(),
                stalled: (0..n).map(|_| None).collect(),
                link,
                link_busy: (0..n).map(|_| None).collect(),
                barrier: barrier.clone(),
                counters: counters.clone(),
            })
            .collect();

        let results: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        std::thread::scope(|s| {
            for comm in comms {
                let f = &f;
                let results = results.clone();
                s.spawn(move || {
                    let rank = comm.rank();
                    let out = f(comm);
                    results.lock()[rank] = Some(out);
                });
            }
        });
        let results = Arc::try_unwrap(results)
            .unwrap_or_else(|_| panic!("result arc still shared"))
            .into_inner()
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect();
        let traffic: Vec<Traffic> = counters.iter().map(|c| c.snapshot()).collect();
        // Fold per-rank traffic into the run telemetry so comm volume shows
        // up in the same artifact as sweep timings.
        let tel = antmoc_telemetry::Telemetry::current();
        for t in &traffic {
            tel.counter_add("comm.sent_bytes", t.sent_bytes);
            tel.counter_add("comm.recv_bytes", t.received_bytes);
        }
        ClusterOutcome { results, traffic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let o = Cluster::run(1, |comm| comm.rank() + 10);
        assert_eq!(o.results, vec![10]);
    }

    #[test]
    fn point_to_point_preserves_order() {
        let o = Cluster::run(2, |mut comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send_val(1, 1, i);
                }
                0
            } else {
                let mut last = None;
                for _ in 0..100 {
                    let v: u32 = comm.recv_val(0, 1);
                    if let Some(prev) = last {
                        assert_eq!(v, prev + 1);
                    }
                    last = Some(v);
                }
                last.unwrap()
            }
        });
        assert_eq!(o.results[1], 99);
    }

    #[test]
    fn tag_mismatch_is_buffered() {
        let o = Cluster::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send_val(1, 5, 50u32);
                comm.send_val(1, 6, 60u32);
                0
            } else {
                // Receive in the opposite order of sending.
                let b: u32 = comm.recv_val(0, 6);
                let a: u32 = comm.recv_val(0, 5);
                (a + b) as usize
            }
        });
        assert_eq!(o.results[1], 110);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let o = Cluster::run(5, |mut comm| {
            let r = comm.rank() as f64;
            let sum = comm.allreduce_sum(r);
            let max = comm.allreduce_f64(r, f64::max);
            (sum, max)
        });
        for (sum, max) in o.results {
            assert_eq!(sum, 10.0);
            assert_eq!(max, 4.0);
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let o = Cluster::run(4, |mut comm| {
            (comm.allgather(vec![comm.rank() as f64; 3]), comm.traffic())
        });
        for (r, _) in &o.results {
            let expect: Vec<Vec<f64>> = (0..4).map(|rank| vec![rank as f64; 3]).collect();
            assert_eq!(r, &expect);
        }
        // 24 payload bytes up from each of ranks 1-3, and all four
        // ranks' 96 bytes down to each of them.
        let sent: Vec<u64> = o.results.iter().map(|(_, t)| t.sent_bytes).collect();
        assert_eq!(sent, [3 * 96, 24, 24, 24]);
    }

    #[test]
    fn traffic_counts_vector_payloads() {
        let o = Cluster::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send_vec(1, 9, vec![0f32; 100]);
            } else {
                let v: Vec<f32> = comm.recv_vec(0, 9);
                assert_eq!(v.len(), 100);
            }
            comm.barrier();
            comm.traffic()
        });
        assert_eq!(o.traffic[0].sent_bytes, 400);
        assert_eq!(o.traffic[1].received_bytes, 400);
        assert_eq!(o.traffic[0].sent_messages, 1);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Cluster::run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn neighbour_exchange_pattern() {
        // The solver's core pattern: everyone sends to +1 and receives
        // from -1 simultaneously without deadlock (channels are buffered).
        let n = 8;
        let o = Cluster::run(n, |mut comm| {
            let right = (comm.rank() + 1) % n;
            let left = (comm.rank() + n - 1) % n;
            let flux = vec![comm.rank() as f32; 64];
            comm.send_vec(right, 2, flux);
            let got: Vec<f32> = comm.recv_vec(left, 2);
            got[0] as usize
        });
        for (rank, left_val) in o.results.iter().enumerate() {
            assert_eq!(*left_val, (rank + n - 1) % n);
        }
    }

    #[test]
    fn random_all_to_all_delivers_everything() {
        // Every rank sends a tagged value to every other rank (including
        // itself is excluded); all arrive intact regardless of order.
        let n = 6;
        let o = Cluster::run(n, |mut comm| {
            let me = comm.rank();
            for to in 0..n {
                if to != me {
                    comm.send_val(to, 42, (me * 1000 + to) as u64);
                }
            }
            let mut sum = 0u64;
            for from in 0..n {
                if from != me {
                    let v: u64 = comm.recv_val(from, 42);
                    assert_eq!(v, (from * 1000 + me) as u64);
                    sum += v;
                }
            }
            sum
        });
        assert_eq!(o.results.len(), n);
        for (me, &sum) in o.results.iter().enumerate() {
            let expect: u64 = (0..n).filter(|&f| f != me).map(|f| (f * 1000 + me) as u64).sum();
            assert_eq!(sum, expect);
        }
    }

    #[test]
    fn nested_collectives_interleave_with_p2p() {
        let n = 4;
        let o = Cluster::run(n, |mut comm| {
            let me = comm.rank();
            // Interleave: p2p ring, reduce, gather, another ring.
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            comm.send_val(right, 7, me as f64);
            let a: f64 = comm.recv_val(left, 7);
            let s = comm.allreduce_sum(a);
            let all = comm.allgather(vec![me as f64]);
            comm.send_vec(right, 8, vec![s; 3]);
            let v: Vec<f64> = comm.recv_vec(left, 8);
            (s, all.len(), v[0])
        });
        for (s, l, v) in o.results {
            assert_eq!(s, 6.0);
            assert_eq!(l, n);
            assert_eq!(v, 6.0);
        }
    }

    #[test]
    fn deep_mismatched_tag_backlog_is_not_quadratic() {
        // A tag-2 receive posted against a K-deep backlog of tag-1
        // messages buffers the backlog once; draining it afterwards is
        // one O(1) pop per message thanks to the tag index. The old
        // linear rescan per receive made this pattern O(K^2) — minutes
        // instead of the sub-second it takes now.
        const K: u64 = 50_000;
        let o = Cluster::run(2, |mut comm| {
            if comm.rank() == 0 {
                for i in 0..K {
                    comm.send_val(1, 1, i);
                }
                comm.send_val(1, 2, u64::MAX);
                0.0
            } else {
                let t0 = Instant::now();
                let sentinel: u64 = comm.recv_val(0, 2);
                assert_eq!(sentinel, u64::MAX);
                for i in 0..K {
                    let v: u64 = comm.recv_val(0, 1);
                    assert_eq!(v, i);
                }
                t0.elapsed().as_secs_f64()
            }
        });
        assert!(
            o.results[1] < 5.0,
            "draining a {K}-deep mismatched-tag backlog took {:.2}s — tag matching went quadratic",
            o.results[1]
        );
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let o = Cluster::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.barrier(); // let rank 1 poll before anything is sent
                comm.send_val(1, 7, 123u32);
                comm.barrier(); // the channel send is synchronous, so after
                0 // this barrier the message is receivable
            } else {
                assert_eq!(comm.try_recv::<u32>(0, 7), None);
                comm.barrier();
                comm.barrier();
                assert_eq!(comm.try_recv::<u32>(0, 9), None, "wrong tag must not match");
                let v = comm.try_recv::<u32>(0, 7).expect("message was sent before the barrier");
                // The mismatched poll above buffered nothing destructive:
                // a later tagged send still arrives in order.
                v as usize
            }
        });
        assert_eq!(o.results[1], 123);
    }

    #[test]
    fn link_model_delays_delivery_until_transfer_completes() {
        let link = LinkModel { latency: Duration::from_millis(250), ns_per_byte: 0.0 };
        let o = Cluster::run_linked(2, link, |mut comm| {
            if comm.rank() == 0 {
                comm.send_val(1, 3, 9u32);
                comm.barrier();
                0.0
            } else {
                comm.barrier(); // message is in the channel, transfer in flight
                assert_eq!(
                    comm.try_recv::<u32>(0, 3),
                    None,
                    "try_recv must not see a message whose transfer is still in flight"
                );
                let t0 = Instant::now();
                let v: u32 = comm.recv_val(0, 3);
                assert_eq!(v, 9);
                t0.elapsed().as_secs_f64()
            }
        });
        assert!(
            o.results[1] >= 0.05,
            "blocking recv returned after {:.3}s — before the simulated transfer finished",
            o.results[1]
        );
    }

    #[test]
    fn linked_receive_never_delivers_before_the_transfer_completes() {
        // The receive wakes a margin early and spins; it must still not
        // return before send time + latency. (Only the lower bound: how
        // late it returns depends on the host.)
        let latency = Duration::from_micros(500);
        let link = LinkModel { latency, ns_per_byte: 0.0 };
        let o = Cluster::run_linked(2, link, |mut comm| {
            let mut early = Vec::new();
            for round in 0..20u32 {
                if comm.rank() == 0 {
                    let sent = Instant::now();
                    comm.send_val(1, 5, round);
                    comm.send_val(1, 6, sent);
                } else {
                    let v: u32 = comm.recv_val(0, 5);
                    let arrived = Instant::now();
                    let sent: Instant = comm.recv_val(0, 6);
                    assert_eq!(v, round);
                    if arrived < sent + latency {
                        early.push(round);
                    }
                }
                comm.barrier();
            }
            early
        });
        assert!(o.results[1].is_empty(), "rounds delivered early: {:?}", o.results[1]);
    }

    #[test]
    fn link_serialises_transfers_per_destination() {
        // Two back-to-back sends over the same link: the second becomes
        // visible only after both transfer times, not just its own.
        let link = LinkModel { latency: Duration::from_millis(120), ns_per_byte: 0.0 };
        let o = Cluster::run_linked(2, link, |mut comm| {
            if comm.rank() == 0 {
                comm.send_val(1, 1, 1u32);
                comm.send_val(1, 1, 2u32);
                0.0
            } else {
                let t0 = Instant::now();
                let a: u32 = comm.recv_val(0, 1);
                let b: u32 = comm.recv_val(0, 1);
                assert_eq!((a, b), (1, 2));
                t0.elapsed().as_secs_f64()
            }
        });
        assert!(
            o.results[1] >= 0.2,
            "second transfer finished after {:.3}s — links must serialise, not overlap",
            o.results[1]
        );
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn type_mismatch_panics_with_context() {
        // The rank's own panic message ("unexpected payload type") is
        // printed by the failing thread; the harness surfaces it as a
        // scoped-thread panic.
        Cluster::run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send_val(1, 3, 1u32);
            } else {
                let _: f64 = comm.recv_val(0, 3);
            }
        });
    }
}
