//! Ranks as threads, messages as typed channel payloads.
//!
//! [`Cluster::run`] spawns one thread per rank and hands each a
//! [`RankCtx`]: a sender to every peer plus its own [`Inbox`]. There is
//! one receive, [`Inbox::recv`]: next message from any source, with an
//! optional timeout, and a typed [`SubstrateError`] in place of a hang or
//! a channel panic when the sender is gone or silent. Executors key
//! arrivals by the payload's own indices (member, stage, observation
//! rows), so no `(source, tag)` matching is needed.
//!
//! # Zero-copy payloads
//!
//! [`Envelope`] moves the payload by value — nothing is serialized — so a
//! payload that is itself a shared view (an `Arc`-backed
//! `enkf_pfs::RegionData`, produced by the O(1) bar→block `extract`)
//! travels as an offset plus a refcount bump on the sender's single
//! allocation. An I/O rank fanning one bar out to `G` compute peers
//! therefore performs `G` refcount increments, not `G` deep copies; the
//! bar's slab is freed (returned to the store's buffer pool) when the last
//! receiver drops its view.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use enkf_fault::SubstrateError;
use std::time::Duration;

/// A delivered message: source rank and payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Sending rank.
    pub from: usize,
    /// The payload.
    pub payload: M,
}

/// One rank's receive endpoint. It moves as a unit, so a rank can hand it
/// to a helper thread (the paper's Figure 8) with [`RankCtx::split_receiver`].
pub struct Inbox<M> {
    rank: usize,
    rx: Receiver<Envelope<M>>,
}

impl<M> Inbox<M> {
    /// The rank this endpoint belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Receive the next message from any source. With `timeout = None`
    /// the call blocks; with `Some(secs)` it gives up after `secs` seconds
    /// with [`SubstrateError::RecvTimeout`] — how a rank survives a
    /// crashed or silent peer. When every peer that could still send has
    /// exited (all send endpoints dropped, inbox drained), the receive can
    /// never complete and returns [`SubstrateError::PeerExited`].
    pub fn recv(&self, timeout: Option<f64>) -> Result<Envelope<M>, SubstrateError> {
        let rank = self.rank;
        match timeout {
            None => self
                .rx
                .recv()
                .map_err(|_| SubstrateError::PeerExited { rank }),
            Some(waited) => self
                .rx
                .recv_timeout(Duration::from_secs_f64(waited))
                .map_err(|e| match e {
                    RecvTimeoutError::Timeout => SubstrateError::RecvTimeout { rank, waited },
                    RecvTimeoutError::Disconnected => SubstrateError::PeerExited { rank },
                }),
        }
    }
}

/// One rank's communication context: a sender to every peer and the
/// rank's [`Inbox`].
pub struct RankCtx<M> {
    size: usize,
    peers: Vec<Sender<Envelope<M>>>,
    inbox: Inbox<M>,
}

impl<M: Send> RankCtx<M> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.inbox.rank
    }

    /// Total number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send a payload to a peer (non-blocking, unbounded buffering).
    ///
    /// A send to a rank that has already exited (its receive endpoint is
    /// gone) is silently dropped: a rank only hangs up after deciding its
    /// own outcome — e.g. aborting on a peer's failure notice — so a
    /// message it will never read cannot change any result, and the
    /// fault-tolerant executors must not crash healthy senders racing
    /// against an aborting peer.
    pub fn send(&self, to: usize, payload: M) {
        let _ = self.peers[to].send(Envelope {
            from: self.rank(),
            payload,
        });
    }

    /// This rank's receive endpoint.
    pub fn inbox(&self) -> &Inbox<M> {
        &self.inbox
    }

    /// Split off the receive endpoint (for a helper thread) while keeping
    /// the send side. After the split, receives on [`RankCtx::inbox`]
    /// report [`SubstrateError::PeerExited`].
    pub fn split_receiver(&mut self) -> Inbox<M> {
        let (dead_tx, dead_rx) = unbounded();
        drop(dead_tx);
        let rank = self.rank();
        std::mem::replace(&mut self.inbox, Inbox { rank, rx: dead_rx })
    }
}

/// An in-process cluster of ranks.
pub struct Cluster;

impl Cluster {
    /// Run `body` on `size` rank threads and collect their results in rank
    /// order. Panics in any rank propagate.
    pub fn run<M, T, F>(size: usize, body: F) -> Vec<T>
    where
        M: Send,
        T: Send,
        F: Fn(RankCtx<M>) -> T + Sync,
    {
        assert!(size > 0, "cluster needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let body = &body;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, rx) in receivers.into_iter().enumerate() {
                let mut peers = senders.clone();
                // A rank must not hold a sender to itself: that clone would
                // keep its own inbox "connected" forever, so a receive
                // orphaned by every peer exiting could never observe the
                // disconnect that [`Inbox::recv`] turns into the typed
                // `PeerExited`. Self-sends become silent drops (no executor
                // sends to itself).
                let (dead_tx, _dead_rx) = unbounded();
                peers[rank] = dead_tx;
                handles.push(scope.spawn(move || {
                    body(RankCtx {
                        size,
                        peers,
                        inbox: Inbox { rank, rx },
                    })
                }));
            }
            drop(senders);
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }

    /// Like [`Cluster::run`], but each rank also receives a
    /// [`enkf_trace::RankTracer`] anchored to a cluster-wide epoch taken just
    /// before the threads spawn, so every rank's spans lie on one shared
    /// wall-clock timeline. Returns `(result, spans)` per rank, in rank
    /// order — concatenating the span vectors in that order gives a
    /// deterministic-ordered trace regardless of thread scheduling.
    pub fn run_traced<M, T, F>(size: usize, body: F) -> Vec<(T, Vec<enkf_trace::Span>)>
    where
        M: Send,
        T: Send,
        F: Fn(RankCtx<M>, &mut enkf_trace::RankTracer) -> T + Sync,
    {
        let epoch = std::time::Instant::now();
        Self::run(size, move |ctx: RankCtx<M>| {
            let mut tracer = enkf_trace::RankTracer::new(ctx.rank(), epoch);
            let out = body(ctx, &mut tracer);
            (out, tracer.into_spans())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results: Vec<u64> = Cluster::run(4, |ctx: RankCtx<u64>| {
            let next = (ctx.rank() + 1) % ctx.size();
            ctx.send(next, ctx.rank() as u64);
            ctx.inbox().recv(None).unwrap().payload
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    /// The one receive, three ways: a blocking receive gets the message;
    /// a timed receive with a live but silent peer times out; a receive
    /// whose every peer has exited is orphaned. Rank 0 plays the peer.
    #[test]
    fn recv_delivers_times_out_or_reports_exited_peers() {
        #[derive(Clone, Copy, Debug)]
        enum Case {
            Deliver,
            Silent,
            Exited,
        }
        for case in [Case::Deliver, Case::Silent, Case::Exited] {
            let results = Cluster::run(2, |ctx: RankCtx<u64>| match (ctx.rank(), case) {
                (0, Case::Deliver) => {
                    ctx.send(1, 42);
                    Ok(0)
                }
                // Stay alive until rank 1 has timed out and says so.
                (0, Case::Silent) => ctx.inbox().recv(None).map(|env| env.payload),
                (0, Case::Exited) => Ok(0),
                (_, Case::Silent) => {
                    let out = ctx.inbox().recv(Some(0.02)).map(|env| env.payload);
                    ctx.send(0, 1);
                    out
                }
                (_, _) => ctx.inbox().recv(None).map(|env| env.payload),
            });
            match case {
                Case::Deliver => assert_eq!(results[1], Ok(42)),
                Case::Silent => assert_eq!(
                    results[1],
                    Err(SubstrateError::RecvTimeout {
                        rank: 1,
                        waited: 0.02
                    })
                ),
                Case::Exited => {
                    assert_eq!(results[1], Err(SubstrateError::PeerExited { rank: 1 }))
                }
            }
        }
    }

    #[test]
    fn fan_out_shares_one_allocation() {
        use std::sync::Arc;
        // Rank 0 fans one Arc-backed slab out to every peer; envelopes move
        // the payload by value, so all receivers observe the sender's
        // allocation — the zero-copy bar→block scatter invariant.
        let results: Vec<(usize, f64)> = Cluster::run(4, |ctx: RankCtx<Arc<Vec<f64>>>| {
            if ctx.rank() == 0 {
                let slab = Arc::new(vec![1.0, 2.0, 3.0]);
                for peer in 1..ctx.size() {
                    ctx.send(peer, Arc::clone(&slab));
                }
                (Arc::as_ptr(&slab) as usize, slab[0])
            } else {
                let view = ctx.inbox().recv(None).unwrap().payload;
                (Arc::as_ptr(&view) as usize, view[0])
            }
        });
        let (root_ptr, _) = results[0];
        for (ptr, v) in &results[1..] {
            assert_eq!(*ptr, root_ptr, "receiver got a copy, not a view");
            assert_eq!(*v, 1.0);
        }
    }

    #[test]
    fn send_to_exited_rank_is_dropped_not_a_panic() {
        // Rank 1 exits immediately; rank 0's late send must be a no-op so
        // fault paths (a peer aborting) cannot crash healthy senders.
        let results: Vec<u64> = Cluster::run(3, |ctx: RankCtx<u64>| {
            match ctx.rank() {
                0 => {
                    // Wait for rank 2's message; rank 1 exits at once, so
                    // this send usually finds its receiver gone.
                    let v = ctx.inbox().recv(None).unwrap().payload;
                    ctx.send(1, 42);
                    v
                }
                1 => 0, // exits at once, dropping its receiver
                _ => {
                    ctx.send(0, 7);
                    0
                }
            }
        });
        assert_eq!(results[0], 7);
    }

    #[test]
    fn helper_thread_receives_via_split() {
        let results: Vec<u64> = Cluster::run(2, |mut ctx: RankCtx<u64>| {
            if ctx.rank() == 0 {
                ctx.send(1, 123);
                0
            } else {
                let inbox = ctx.split_receiver();
                assert_eq!(inbox.rank(), 1);
                // Helper thread ingests and forwards to the main thread.
                let (tx, rx) = std::sync::mpsc::channel();
                let helper = std::thread::spawn(move || {
                    let env = inbox.recv(None).unwrap();
                    tx.send(env.payload).unwrap();
                });
                let got = rx.recv().unwrap();
                helper.join().unwrap();
                assert!(matches!(
                    ctx.inbox().recv(None),
                    Err(SubstrateError::PeerExited { rank: 1 })
                ));
                got
            }
        });
        assert_eq!(results[1], 123);
    }

    #[test]
    fn run_traced_collects_spans_in_rank_order() {
        let results = Cluster::run_traced(3, |ctx: RankCtx<u64>, tracer| {
            if ctx.rank() == 0 {
                for peer in 1..ctx.size() {
                    tracer.send(None, peer, 8, || ctx.send(peer, 99));
                }
            } else {
                tracer.wait(None, || ctx.inbox().recv(None).unwrap());
            }
            ctx.rank()
        });
        assert_eq!(
            results.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(results[0].1.len(), 2, "rank 0 recorded two sends");
        assert_eq!(results[0].1[0].peer, Some(1));
        assert!(results[1].1.iter().all(|s| s.rank == 1));
        assert!(results[0].1.iter().all(|s| s.start >= 0.0 && s.dur >= 0.0));
    }

    #[test]
    fn single_rank_cluster() {
        let results: Vec<usize> = Cluster::run(1, |ctx: RankCtx<u8>| ctx.size());
        assert_eq!(results, vec![1]);
    }
}
