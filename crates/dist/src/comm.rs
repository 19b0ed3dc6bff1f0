//! Message-passing primitives between ranks: halo exchange for the block-row
//! SpMV, the rank-ordered sum allreduce for the CG dot products, and the
//! neighbourhood collectives of cross-rank recovery.
//!
//! One protocol, two links. Every collective of [`RankComm`] is written once,
//! over a per-rank link that only knows how to send a [`feir_wire::Message`]
//! to a peer and receive the next message of a given [`Tag`] from it:
//!
//! * **Memory** — ranks are threads of one process, wired with one unbounded
//!   `std::sync::mpsc` channel per ordered rank pair. Messages move without
//!   being encoded. No rank ever reads another rank's buffers, so the data
//!   movement is exactly the send/receive pattern an MPI implementation of
//!   Section 3.4 would perform. This is what [`RankComm::for_ranks`] builds
//!   for unit tests and the thread-backed solver entry points.
//! * **Sockets** — ranks are real OS processes connected over Unix domain
//!   sockets (TCP fallback) speaking the versioned `feir-wire` frame protocol
//!   through the reliability sublayer of [`crate::process`]
//!   ([`RankComm::over_process`]).
//!
//! Both links deliver each peer's messages in order and demultiplex them by
//! tag, so the same collective code sends the same messages in the same
//! order and folds reductions in rank order on either link: results are
//! bitwise identical across them.
//!
//! Every communication method returns `Result<_, CommError>`: a vanished
//! peer — a disconnected channel in-process, a closed socket across
//! processes — surfaces as a typed [`CommError`] instead of a panic, so the
//! resilience engine can observe rank failure the same way on both links.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

use feir_sparse::CsrMatrix;
use feir_wire::{Message, Tag};

use crate::partition::RankPartition;
use crate::process::ProcessEndpoint;

/// A communication failure observed by one rank.
///
/// Both links produce the same variants for the same situations: a peer
/// that is gone mid-collective is [`CommError::Disconnected`] whether it was
/// a dropped channel endpoint or a closed socket.
#[derive(Debug)]
pub enum CommError {
    /// A peer rank is gone: its channel endpoint was dropped (in-process) or
    /// its socket closed / reset (process transport).
    Disconnected {
        /// The peer that vanished, when identifiable.
        peer: Option<usize>,
        /// The operation that observed the failure.
        during: &'static str,
    },
    /// A read deadline expired while waiting on a peer (process transport).
    Timeout {
        /// The peer that failed to respond.
        peer: usize,
        /// The operation that timed out.
        during: &'static str,
    },
    /// A frame failed to decode (bad magic, version mismatch, truncation...).
    Wire(feir_wire::WireError),
    /// The peers violated the comm protocol (wrong message, bad handshake,
    /// mismatched component counts, ...).
    Protocol(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected { peer, during } => match peer {
                Some(p) => write!(f, "rank {p} disconnected during {during}"),
                None => write!(f, "peer rank disconnected during {during}"),
            },
            CommError::Timeout { peer, during } => {
                write!(f, "timed out waiting on rank {peer} during {during}")
            }
            CommError::Wire(e) => write!(f, "wire protocol error: {e}"),
            CommError::Protocol(msg) => write!(f, "comm protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<feir_wire::WireError> for CommError {
    fn from(e: feir_wire::WireError) -> Self {
        CommError::Wire(e)
    }
}

/// For every rank, the remote entries its local rows reference, grouped by
/// owning rank.
///
/// `needs[r]` maps a peer rank `s` to the sorted column indices owned by `s`
/// that appear in rank `r`'s rows; the symmetric view `sends[s]` maps `r` to
/// the same list (what `s` must ship to `r` each iteration). Only the entries
/// actually referenced are exchanged, as a real halo exchange would.
#[derive(Debug, Clone)]
pub struct HaloPlan {
    needs: Vec<HashMap<usize, Vec<usize>>>,
    sends: Vec<HashMap<usize, Vec<usize>>>,
}

impl HaloPlan {
    /// Builds the exchange lists for `a` distributed by `partition`.
    pub fn build(a: &CsrMatrix, partition: &RankPartition) -> Self {
        let ranks = partition.num_ranks();
        let mut needs: Vec<HashMap<usize, Vec<usize>>> = vec![HashMap::new(); ranks];
        for (r, needs_of_r) in needs.iter_mut().enumerate() {
            let mut seen: Vec<usize> = Vec::new();
            for row in partition.range(r) {
                let (cols, _) = a.row(row);
                for &c in cols {
                    let owner = partition.owner_of(c);
                    if owner != r && !seen.contains(&c) {
                        seen.push(c);
                    }
                }
            }
            seen.sort_unstable();
            for c in seen {
                needs_of_r.entry(partition.owner_of(c)).or_default().push(c);
            }
        }
        let mut sends: Vec<HashMap<usize, Vec<usize>>> = vec![HashMap::new(); ranks];
        for (r, per_owner) in needs.iter().enumerate() {
            for (&owner, cols) in per_owner {
                sends[owner].insert(r, cols.clone());
            }
        }
        Self { needs, sends }
    }

    /// A plan with no halo traffic (pure reductions, no SpMV).
    pub fn empty(ranks: usize) -> Self {
        Self {
            needs: vec![HashMap::new(); ranks],
            sends: vec![HashMap::new(); ranks],
        }
    }

    /// Entries rank `rank` receives, grouped by sending rank.
    pub fn needs_of(&self, rank: usize) -> &HashMap<usize, Vec<usize>> {
        &self.needs[rank]
    }

    /// Entries rank `rank` ships, grouped by destination rank.
    pub fn sends_of(&self, rank: usize) -> &HashMap<usize, Vec<usize>> {
        &self.sends[rank]
    }

    /// Total number of values crossing rank boundaries per exchange.
    pub fn halo_volume(&self) -> usize {
        self.needs
            .iter()
            .flat_map(|m| m.values())
            .map(Vec::len)
            .sum()
    }

    /// The halo neighbours of `rank` (traffic in either direction), sorted.
    pub(crate) fn neighbours_of(&self, rank: usize) -> Vec<usize> {
        let mut peers: Vec<usize> = self.needs[rank].keys().copied().collect();
        for p in self.sends[rank].keys() {
            if !peers.contains(p) {
                peers.push(*p);
            }
        }
        peers.sort_unstable();
        peers
    }
}

/// The receiving end of one peer's channel plus the stash of its messages
/// that arrived ahead of the tag a `recv` asked for.
type Inbox = (Receiver<Box<Message>>, RefCell<VecDeque<Box<Message>>>);

/// How one rank's messages reach its peers. Every [`RankComm`] collective is
/// written once over [`Link::send`] and [`Link::recv`]; only
/// [`RankComm::rejoin`] distinguishes the two variants.
#[derive(Debug)]
enum Link {
    /// Ranks are threads of one process. Messages travel boxed: a
    /// `Message` is 120 bytes, which makes each 31-slot block of an
    /// unbounded channel about 4 KiB, allocated by the sending rank's
    /// thread and freed by the receiving one. With pointer-sized slots the
    /// perfbench `dist_due` protected/plain CPU ratio is 3% lower (10 of 10
    /// paired runs, 2-vCPU Xeon).
    Memory {
        /// Sender to each peer, indexed by peer rank (`None` at this rank).
        to: Vec<Option<Sender<Box<Message>>>>,
        /// Inbox from each peer, indexed by peer rank (`None` at this rank).
        from: Vec<Option<Inbox>>,
    },
    /// Ranks are OS processes on a socket mesh: the reliability sublayer,
    /// read deadlines and the elastic downed-peer check of
    /// [`ProcessEndpoint`].
    Sockets(Box<ProcessEndpoint>),
}

impl Link {
    /// Queues `msg` for `peer`; never blocks on the peer.
    fn send(&self, peer: usize, msg: Message, during: &'static str) -> Result<(), CommError> {
        match self {
            Link::Memory { to, .. } => to[peer]
                .as_ref()
                .expect("no link to self")
                .send(Box::new(msg))
                .map_err(|_| CommError::Disconnected {
                    peer: Some(peer),
                    during,
                }),
            Link::Sockets(endpoint) => endpoint.send(peer, &msg, during),
        }
    }

    /// Blocks for the next message tagged `want` from `peer`. Messages of
    /// other tags that arrive first are stashed and handed, in arrival
    /// order, to the later `recv` that asks for their tag.
    fn recv(&self, peer: usize, want: Tag, during: &'static str) -> Result<Message, CommError> {
        match self {
            Link::Memory { from, .. } => {
                let (rx, stash) = from[peer].as_ref().expect("no link to self");
                let mut stash = stash.borrow_mut();
                if let Some(at) = stash.iter().position(|m| m.tag() == want) {
                    return Ok(*stash.remove(at).expect("stash position just found"));
                }
                loop {
                    let msg = rx.recv().map_err(|_| CommError::Disconnected {
                        peer: Some(peer),
                        during,
                    })?;
                    if msg.tag() == want {
                        return Ok(*msg);
                    }
                    stash.push_back(msg);
                }
            }
            Link::Sockets(endpoint) => endpoint.recv(peer, want, during),
        }
    }
}

/// The merged view a coupled-recovery gather wave accumulates: lost-row
/// offers as `(global row, rhs value)` and surviving stencil entries as
/// `(global column, value, valid)`, both sorted by their global id.
pub type CoupledGatherView = (Vec<(usize, f64)>, Vec<(usize, f64, bool)>);

/// One rank's communication endpoint.
///
/// Build one per rank with [`RankComm::for_ranks`] (threads + channels) or
/// [`RankComm::over_process`] (one per OS process, sockets + `feir-wire`
/// frames), move it into the rank's thread/process, and drive an iteration
/// with [`RankComm::exchange_halo`] / [`RankComm::allreduce_sum`]. Solver
/// code is link-agnostic: the collectives perform identical rank-ordered
/// arithmetic on both transports.
#[derive(Debug)]
pub struct RankComm {
    rank: usize,
    ranks: usize,
    link: Link,
    /// Outgoing halo `(destination, owned indices to ship)`, sorted by peer.
    halo_out: Vec<(usize, Vec<usize>)>,
    /// Incoming halo `(source, indices received)`, sorted by peer.
    halo_in: Vec<(usize, Vec<usize>)>,
    /// Halo neighbours (either direction), ascending.
    recovery_peers: Vec<usize>,
    /// Collectives entered through this endpoint (scalar and vector alike,
    /// blocking or split-phase). The merged-reduction solver tests assert
    /// "exactly one allreduce per iteration" against this counter.
    collectives: Cell<u64>,
}

impl RankComm {
    /// Derives rank `rank`'s halo lists and recovery neighbourhood from
    /// `plan`; both links move the same values in the same order.
    fn new(plan: &HaloPlan, rank: usize, ranks: usize, link: Link) -> RankComm {
        let sorted = |lists: &HashMap<usize, Vec<usize>>| {
            let mut lists: Vec<(usize, Vec<usize>)> = lists
                .iter()
                .map(|(&peer, cols)| (peer, cols.clone()))
                .collect();
            lists.sort_unstable_by_key(|(peer, _)| *peer);
            lists
        };
        RankComm {
            rank,
            ranks,
            link,
            halo_out: sorted(plan.sends_of(rank)),
            halo_in: sorted(plan.needs_of(rank)),
            recovery_peers: plan.neighbours_of(rank),
            collectives: Cell::new(0),
        }
    }

    /// Creates the connected in-process endpoints for every rank of `plan`:
    /// one channel per ordered rank pair.
    pub fn for_ranks(plan: &HaloPlan, ranks: usize) -> Vec<RankComm> {
        assert!(ranks > 0, "need at least one rank");
        let mut to: Vec<Vec<Option<Sender<Box<Message>>>>> = vec![vec![None; ranks]; ranks];
        let mut from: Vec<Vec<Option<Inbox>>> = (0..ranks)
            .map(|_| (0..ranks).map(|_| None).collect())
            .collect();
        for src in 0..ranks {
            for dst in (0..ranks).filter(|&dst| dst != src) {
                let (tx, rx) = channel();
                to[src][dst] = Some(tx);
                from[dst][src] = Some((rx, RefCell::default()));
            }
        }
        to.into_iter()
            .zip(from)
            .enumerate()
            .map(|(rank, (to, from))| RankComm::new(plan, rank, ranks, Link::Memory { to, from }))
            .collect()
    }

    /// Wraps a connected process-transport endpoint (see
    /// [`crate::process::connect_mesh`]) as this rank's [`RankComm`].
    ///
    /// The halo send/receive lists and the recovery neighbourhood are derived
    /// from `plan` exactly as [`RankComm::for_ranks`] derives them, so the
    /// two links move the same values in the same order.
    pub fn over_process(plan: &HaloPlan, endpoint: ProcessEndpoint) -> RankComm {
        let (rank, ranks) = (endpoint.rank(), endpoint.ranks());
        RankComm::new(plan, rank, ranks, Link::Sockets(Box::new(endpoint)))
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Ships this rank's owned entries of `full` to every peer that needs
    /// them, then scatters the received remote entries back into `full`.
    ///
    /// `full` is this rank's private full-length working copy of the vector;
    /// only its owned range is authoritative before the call, and exactly the
    /// halo entries referenced by its rows are valid after it.
    pub fn exchange_halo(&self, full: &mut [f64]) -> Result<(), CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Halo);
        for (dest, cols) in &self.halo_out {
            let values: Vec<f64> = cols.iter().map(|&c| full[c]).collect();
            self.link
                .send(*dest, Message::Halo { values }, "halo send")?;
        }
        for (src, cols) in &self.halo_in {
            match self.link.recv(*src, Tag::Halo, "halo receive")? {
                Message::Halo { values } => scatter_checked(*src, cols, &values, full)?,
                _ => unreachable!("recv() returns the requested tag"),
            }
        }
        Ok(())
    }

    /// Contributes `local` and returns the global sum; every rank must call
    /// this the same number of times in the same order.
    ///
    /// Rank 0 gathers one partial per peer, accumulates them **in rank
    /// order** (so the result is bitwise deterministic run-to-run) and
    /// broadcasts the sum back. This is the reduction under every `⟨d,q⟩`
    /// and `‖g‖²` of the distributed CG, and the blocking form of
    /// [`RankComm::start_allreduce`] / [`PendingAllreduce::finish`],
    /// bitwise-identical to it.
    pub fn allreduce_sum(&self, local: f64) -> Result<f64, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Allreduce);
        self.start_allreduce(local)?.finish()
    }

    /// Starts a split-phase allreduce: the local partial is posted
    /// immediately (leaf ranks send it to the root before returning), but
    /// the blocking wait for the global sum is deferred to
    /// [`PendingAllreduce::finish`]. Work done between the two calls
    /// overlaps the reduction wait — this is the window AFEIR uses to run
    /// page reconstruction *inside* the collective instead of only beside
    /// local updates.
    ///
    /// At most one allreduce may be in flight per rank, and every rank must
    /// still enter the collectives in the same order. The single-flight rule
    /// is a protocol contract, not a compile-time guarantee: a leaf posts
    /// its partial in `start`, so starting a second collective before
    /// finishing the first desynchronizes the root's gather.
    pub fn start_allreduce(&self, local: f64) -> Result<PendingAllreduce<'_>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreducePost);
        self.collectives.set(self.collectives.get() + 1);
        if self.rank != 0 {
            let gather = Message::GatherScalar {
                rank: self.rank as u32,
                value: local,
            };
            self.link.send(0, gather, "allreduce gather")?;
        }
        Ok(PendingAllreduce { comm: self, local })
    }

    /// Completes a scalar allreduce: rank 0 gathers every partial, folds in
    /// rank order and broadcasts; leaves await the broadcast.
    fn finish_scalar(&self, local: f64) -> Result<f64, CommError> {
        if self.rank != 0 {
            return match self
                .link
                .recv(0, Tag::BroadcastScalar, "allreduce broadcast")?
            {
                Message::BroadcastScalar { value } => Ok(value),
                _ => unreachable!("recv() returns the requested tag"),
            };
        }
        let mut partials = vec![0.0; self.ranks];
        partials[0] = local;
        for (peer, slot) in partials.iter_mut().enumerate().skip(1) {
            match self
                .link
                .recv(peer, Tag::GatherScalar, "allreduce gather")?
            {
                Message::GatherScalar { rank, value } => {
                    if rank as usize != peer {
                        return Err(CommError::Protocol(format!(
                            "gather from rank {peer} claims rank {rank}"
                        )));
                    }
                    *slot = value;
                }
                _ => unreachable!("recv() returns the requested tag"),
            }
        }
        let total: f64 = partials.iter().sum();
        for peer in 1..self.ranks {
            let broadcast = Message::BroadcastScalar { value: total };
            self.link.send(peer, broadcast, "allreduce broadcast")?;
        }
        Ok(total)
    }

    /// Contributes one *vector* of partials and returns the component-wise
    /// global sums; every rank must pass the same number of components. This
    /// is the single collective of the merged-reduction solvers: all of an
    /// iteration's scalars (`γ`, `δ`, the fault flag, …) ride in one
    /// message, one gather and one broadcast.
    ///
    /// Component `j` of the result is bitwise-identical to
    /// [`RankComm::allreduce_sum`] over the same per-rank partials — the root
    /// folds each component in rank order, exactly like the scalar path.
    pub fn allreduce_vec(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::Allreduce);
        self.start_allreduce_vec(local)?.finish()
    }

    /// Split-phase form of [`RankComm::allreduce_vec`]: the partial vector is
    /// posted immediately, the blocking wait is deferred to
    /// [`PendingVecAllreduce::finish`]. The merged-reduction solvers start
    /// the collective, run the halo exchange and the next matvec while it is
    /// in flight, and only then collect the sums — the reduction latency
    /// hides behind the matvec instead of serializing with it. The same
    /// single-flight / same-order contract as [`RankComm::start_allreduce`]
    /// applies.
    pub fn start_allreduce_vec(
        &self,
        local: Vec<f64>,
    ) -> Result<PendingVecAllreduce<'_>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreducePost);
        self.collectives.set(self.collectives.get() + 1);
        if self.rank == 0 {
            return Ok(PendingVecAllreduce { comm: self, local });
        }
        let gather = Message::GatherVec {
            rank: self.rank as u32,
            values: local,
        };
        self.link.send(0, gather, "vector allreduce gather")?;
        Ok(PendingVecAllreduce {
            comm: self,
            local: Vec::new(),
        })
    }

    /// Completes a vector allreduce with the rank-ordered component fold.
    fn finish_vec(&self, local: Vec<f64>) -> Result<Vec<f64>, CommError> {
        if self.rank != 0 {
            return match self
                .link
                .recv(0, Tag::BroadcastVec, "vector allreduce broadcast")?
            {
                Message::BroadcastVec { values } => Ok(values),
                _ => unreachable!("recv() returns the requested tag"),
            };
        }
        let mut partials: Vec<Vec<f64>> = vec![Vec::new(); self.ranks];
        partials[0] = local;
        for (peer, slot) in partials.iter_mut().enumerate().skip(1) {
            match self
                .link
                .recv(peer, Tag::GatherVec, "vector allreduce gather")?
            {
                Message::GatherVec { rank, values } => {
                    if rank as usize != peer {
                        return Err(CommError::Protocol(format!(
                            "vector gather from rank {peer} claims rank {rank}"
                        )));
                    }
                    *slot = values;
                }
                _ => unreachable!("recv() returns the requested tag"),
            }
        }
        let totals = fold_partials_rank_ordered(&partials)?;
        for peer in 1..self.ranks {
            let broadcast = Message::BroadcastVec {
                values: totals.clone(),
            };
            self.link
                .send(peer, broadcast, "vector allreduce broadcast")?;
        }
        Ok(totals)
    }

    /// Number of collectives this endpoint has entered (scalar and vector,
    /// blocking and split-phase, including [`RankComm::fault_flag`]). Halo
    /// and recovery exchanges are point-to-point and do not count.
    pub fn collectives(&self) -> u64 {
        self.collectives.get()
    }

    /// Elastic-mesh rejoin (process transport only): re-links the failed
    /// peer (when `failed` is `Some`; a respawned newcomer passes `None`),
    /// then parks at the rejoin barrier until every rank of the new mesh
    /// epoch has arrived. `iteration` is the iteration this rank had
    /// reached; returns the barrier's agreed resume iteration (the maximum
    /// across ranks). See `crate::elastic` for the repair protocol layered
    /// on top.
    pub fn rejoin(&self, failed: Option<usize>, iteration: u64) -> Result<u64, CommError> {
        match &self.link {
            Link::Memory { .. } => Err(CommError::Protocol(
                "rank elasticity requires the process transport".into(),
            )),
            Link::Sockets(endpoint) => {
                if let Some(k) = failed {
                    endpoint.relink(k)?;
                }
                endpoint.rejoin_barrier(iteration)
            }
        }
    }

    /// Global "did anyone fault?" indicator, built on the deterministic sum
    /// allreduce. Every rank contributes its local count of freshly
    /// discovered losses; the recovery round only runs when the result is
    /// true, so the fault-free path pays one scalar reduction and no data
    /// movement.
    pub fn fault_flag(&self, local_faults: usize) -> Result<bool, CommError> {
        Ok(self.allreduce_sum(local_faults as f64)? > 0.0)
    }

    /// The ranks this rank can exchange recovery data with (its halo
    /// neighbours), in ascending order.
    pub fn recovery_peers(&self) -> Vec<usize> {
        self.recovery_peers.clone()
    }

    /// One collective cross-rank recovery round.
    ///
    /// When a rank discovers a DUE whose recovery relation reaches across a
    /// rank boundary (the faulted block's matrix stencil references columns
    /// owned by a neighbour), it cannot reconstruct the block from local data
    /// alone: the off-diagonal contributions `A_ij · v_j` of the
    /// interpolation need the neighbour's current values. Every rank posts
    /// one (possibly empty) request per recovery peer and answers each
    /// peer's request with one reply, so the protocol stays deadlock-free in
    /// lockstep with the solver.
    ///
    /// `requests` maps a peer rank to the sorted global indices (owned by
    /// that peer) whose current values this rank needs for its interpolation;
    /// peers absent from the map receive an empty request. `data` is this
    /// rank's full-length working buffer: its owned range answers incoming
    /// requests, and the fetched remote values are scattered into it before
    /// the call returns. `unserviceable` lists (sorted) the global indices
    /// this rank owns but cannot vouch for this round — the rows of its own
    /// freshly scrubbed pages; incoming requests for them are answered with
    /// the blank value and flagged invalid (two ranks faulting
    /// simultaneously on stencil-adjacent pages is the cross-rank form of
    /// the paper's "related data" case). Returns the number of values
    /// fetched across rank boundaries and the sorted fetched indices whose
    /// owner flagged them invalid (the requester must not build an "exact"
    /// reconstruction on those).
    ///
    /// Every rank must call this the same number of times in the same order
    /// (it is a neighbourhood collective); a healthy rank simply passes an
    /// empty request map. Requests for peers that are not halo neighbours
    /// are rejected, as no link serves them.
    pub fn recovery_exchange(
        &self,
        requests: &HashMap<usize, Vec<usize>>,
        data: &mut [f64],
        unserviceable: &[usize],
    ) -> Result<(usize, Vec<usize>), CommError> {
        self.complete_recovery_exchange(requests, data, unserviceable, false)
    }

    /// Phase 1 of [`RankComm::recovery_exchange`] in isolation: post this
    /// rank's (possibly empty) requests to every recovery peer and return
    /// immediately, without serving incoming requests or collecting replies.
    ///
    /// This is the AFEIR in-window prefetch hook: a rank that already knows
    /// its round-1 requests posts them while the fault-flag / merged-scalar
    /// reduction is still in flight, so the peers' answers overlap the
    /// reduction wait. The caller must later finish the round with
    /// [`RankComm::complete_recovery_exchange`] passing `posted = true` and
    /// the *same* request map, or the neighbourhood deadlocks.
    pub fn post_recovery_requests(
        &self,
        requests: &HashMap<usize, Vec<usize>>,
    ) -> Result<(), CommError> {
        // A request outside the neighbourhood would never be answered —
        // reject it loudly instead.
        assert!(
            requests.keys().all(|p| self.recovery_peers.contains(p)),
            "recovery request targets a rank outside the halo neighbourhood"
        );
        for &peer in &self.recovery_peers {
            let indices: Vec<u64> = requests
                .get(&peer)
                .map(|v| v.iter().map(|&i| i as u64).collect())
                .unwrap_or_default();
            let request = Message::RecoveryRequest { indices };
            self.link.send(peer, request, "recovery request")?;
        }
        Ok(())
    }

    /// Phases 2–3 of [`RankComm::recovery_exchange`]: serve the peers'
    /// incoming requests from `data` and scatter their replies back into it.
    /// When `posted` is false the requests are posted first (making the call
    /// equivalent to [`RankComm::recovery_exchange`]); when true the caller
    /// already posted this exact `requests` map via
    /// [`RankComm::post_recovery_requests`]. The tag-demultiplexing link
    /// guarantees a request is always read before the same peer's reply.
    pub fn complete_recovery_exchange(
        &self,
        requests: &HashMap<usize, Vec<usize>>,
        data: &mut [f64],
        unserviceable: &[usize],
        posted: bool,
    ) -> Result<(usize, Vec<usize>), CommError> {
        debug_assert!(
            unserviceable.windows(2).all(|w| w[0] < w[1]),
            "unserviceable indices must be sorted"
        );
        if !posted {
            self.post_recovery_requests(requests)?;
        }
        // Phase 2: answer each incoming request from the owned data,
        // flagging the entries this rank cannot vouch for.
        for &peer in &self.recovery_peers {
            match self
                .link
                .recv(peer, Tag::RecoveryRequest, "recovery request receive")?
            {
                Message::RecoveryRequest { indices } => {
                    let mut values = Vec::with_capacity(indices.len());
                    let mut valid = Vec::with_capacity(indices.len());
                    for &i in &indices {
                        let i = i as usize;
                        if i >= data.len() {
                            return Err(CommError::Protocol(format!(
                                "rank {peer} requested out-of-range index {i}"
                            )));
                        }
                        values.push(data[i]);
                        valid.push(unserviceable.binary_search(&i).is_err());
                    }
                    let reply = Message::RecoveryReply { values, valid };
                    self.link.send(peer, reply, "recovery reply")?;
                }
                _ => unreachable!("recv() returns the requested tag"),
            }
        }
        // Phase 3: scatter the fetched values into the working buffer.
        let mut fetched = 0;
        let mut invalid = Vec::new();
        for &peer in &self.recovery_peers {
            match self
                .link
                .recv(peer, Tag::RecoveryReply, "recovery reply receive")?
            {
                Message::RecoveryReply { values, valid } => {
                    let indices = requests.get(&peer).map(Vec::as_slice).unwrap_or(&[]);
                    if values.len() != indices.len() || valid.len() != indices.len() {
                        return Err(CommError::Protocol(format!(
                            "recovery reply from rank {peer}: {} values for {} requests",
                            values.len(),
                            indices.len()
                        )));
                    }
                    for ((&i, v), ok) in indices.iter().zip(values).zip(valid) {
                        data[i] = v;
                        fetched += 1;
                        if !ok {
                            invalid.push(i);
                        }
                    }
                }
                _ => unreachable!("recv() returns the requested tag"),
            }
        }
        invalid.sort_unstable();
        Ok((fetched, invalid))
    }

    /// Downward wave of the coupled cross-rank recovery round: every rank
    /// receives the coupled-gather offers of its *higher-ranked* halo
    /// neighbours (in ascending peer order), merges its own offer in,
    /// forwards the merged offer to every *lower-ranked* neighbour, and
    /// returns the merged view.
    ///
    /// `rows` are this rank's `(global row, rhs value)` lost-row offers and
    /// `support` its `(global col, value, valid)` surviving stencil entries
    /// outside the offered row set. Merging deduplicates rows by row id and
    /// support by column id, keeping the first occurrence in
    /// own-then-ascending-peer order; since every offerer copies a value from
    /// its owner, duplicates are bitwise-identical and the merge is
    /// deterministic. Both returned lists are sorted by their global id.
    ///
    /// Like [`RankComm::recovery_exchange`] this is a neighbourhood
    /// collective: every rank must call it the same number of times in the
    /// same order, passing empty offers when it has nothing to contribute.
    pub fn coupled_gather_wave(
        &self,
        rows: &[(usize, f64)],
        support: &[(usize, f64, bool)],
    ) -> Result<CoupledGatherView, CommError> {
        let mut rows: Vec<(usize, f64)> = rows.to_vec();
        let mut support: Vec<(usize, f64, bool)> = support.to_vec();
        for &peer in self.recovery_peers.iter().filter(|&&p| p > self.rank) {
            match self
                .link
                .recv(peer, Tag::CoupledGather, "coupled gather receive")?
            {
                Message::CoupledGather {
                    rows: peer_rows,
                    values,
                    support_cols,
                    support_values,
                    support_valid,
                } => {
                    if peer_rows.len() != values.len()
                        || support_cols.len() != support_values.len()
                        || support_cols.len() != support_valid.len()
                    {
                        return Err(CommError::Protocol(format!(
                            "coupled gather from rank {peer}: mismatched array lengths"
                        )));
                    }
                    rows.extend(peer_rows.into_iter().map(|r| r as usize).zip(values));
                    support.extend(
                        support_cols
                            .into_iter()
                            .map(|c| c as usize)
                            .zip(support_values)
                            .zip(support_valid)
                            .map(|((c, v), ok)| (c, v, ok)),
                    );
                }
                _ => unreachable!("recv() returns the requested tag"),
            }
        }
        merge_coupled_offer(&mut rows, &mut support);
        for &peer in self.recovery_peers.iter().filter(|&&p| p < self.rank) {
            let offer = Message::CoupledGather {
                rows: rows.iter().map(|&(r, _)| r as u64).collect(),
                values: rows.iter().map(|&(_, v)| v).collect(),
                support_cols: support.iter().map(|&(c, _, _)| c as u64).collect(),
                support_values: support.iter().map(|&(_, v, _)| v).collect(),
                support_valid: support.iter().map(|&(_, _, ok)| ok).collect(),
            };
            self.link.send(peer, offer, "coupled gather send")?;
        }
        Ok((rows, support))
    }

    /// Upward wave closing the coupled cross-rank recovery round: every rank
    /// receives the coupled-result entries of its *lower-ranked* halo
    /// neighbours (in ascending peer order), merges its own solved entries
    /// in, relays the merged set to every *higher-ranked* neighbour, and
    /// returns the merged `(global row, value)` list sorted by row. The
    /// caller installs the rows it owns (or needs as halo input) from the
    /// returned set.
    ///
    /// Deduplication keeps the first occurrence in own-then-ascending-peer
    /// order; a row is only ever solved by the lowest rank owning part of
    /// its component, so duplicates are relays of the same solution and the
    /// merge is deterministic. A neighbourhood collective with the same
    /// call-discipline as [`RankComm::coupled_gather_wave`].
    pub fn coupled_result_wave(
        &self,
        entries: &[(usize, f64)],
    ) -> Result<Vec<(usize, f64)>, CommError> {
        let mut entries: Vec<(usize, f64)> = entries.to_vec();
        for &peer in self.recovery_peers.iter().filter(|&&p| p < self.rank) {
            match self
                .link
                .recv(peer, Tag::CoupledResult, "coupled result receive")?
            {
                Message::CoupledResult { rows, values } => {
                    if rows.len() != values.len() {
                        return Err(CommError::Protocol(format!(
                            "coupled result from rank {peer}: {} rows for {} values",
                            rows.len(),
                            values.len()
                        )));
                    }
                    entries.extend(rows.into_iter().map(|r| r as usize).zip(values));
                }
                _ => unreachable!("recv() returns the requested tag"),
            }
        }
        entries.sort_by_key(|&(row, _)| row);
        entries.dedup_by_key(|&mut (row, _)| row);
        for &peer in self.recovery_peers.iter().filter(|&&p| p > self.rank) {
            let result = Message::CoupledResult {
                rows: entries.iter().map(|&(r, _)| r as u64).collect(),
                values: entries.iter().map(|&(_, v)| v).collect(),
            };
            self.link.send(peer, result, "coupled result send")?;
        }
        Ok(entries)
    }
}

/// Component-wise rank-ordered fold of the vector allreduce: each
/// component's sum is exactly what the scalar allreduce of the same partials
/// would produce.
fn fold_partials_rank_ordered(partials: &[Vec<f64>]) -> Result<Vec<f64>, CommError> {
    let components = partials[0].len();
    let mut totals = vec![0.0; components];
    for partial in partials {
        if partial.len() != components {
            return Err(CommError::Protocol(format!(
                "vector allreduce: ranks disagree on component count ({} vs {components})",
                partial.len()
            )));
        }
        for (t, v) in totals.iter_mut().zip(partial) {
            *t += v;
        }
    }
    Ok(totals)
}

/// Sorts and deduplicates a merged coupled offer in place. Rust's sort is
/// stable, so after a stable sort by global id `dedup` keeps the first
/// occurrence in the pre-sort (own-then-ascending-peer) order.
fn merge_coupled_offer(rows: &mut Vec<(usize, f64)>, support: &mut Vec<(usize, f64, bool)>) {
    rows.sort_by_key(|&(row, _)| row);
    rows.dedup_by_key(|&mut (row, _)| row);
    support.sort_by_key(|&(col, _, _)| col);
    support.dedup_by_key(|&mut (col, _, _)| col);
}

/// Writes a received halo payload into the ghost columns `cols` of `full`,
/// rejecting a payload whose length disagrees with the plan.
fn scatter_checked(
    peer: usize,
    cols: &[usize],
    values: &[f64],
    full: &mut [f64],
) -> Result<(), CommError> {
    if values.len() != cols.len() {
        return Err(CommError::Protocol(format!(
            "halo from rank {peer}: got {} values, expected {}",
            values.len(),
            cols.len()
        )));
    }
    for (&c, &v) in cols.iter().zip(values) {
        full[c] = v;
    }
    Ok(())
}

/// An in-flight split-phase allreduce on a [`RankComm`] (see
/// [`RankComm::start_allreduce`]).
///
/// The contribution has already been posted; dropping the handle without
/// calling [`PendingAllreduce::finish`] would deadlock the collective on the
/// other ranks, hence the `must_use`.
#[must_use = "finish() completes the collective; dropping the handle deadlocks the peers"]
#[derive(Debug)]
pub struct PendingAllreduce<'a> {
    comm: &'a RankComm,
    local: f64,
}

impl PendingAllreduce<'_> {
    /// Completes the collective and returns the global sum. On the root this
    /// performs the rank-ordered gather + broadcast; on a leaf it blocks on
    /// the broadcast of the total.
    pub fn finish(self) -> Result<f64, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreduceWait);
        self.comm.finish_scalar(self.local)
    }
}

/// An in-flight split-phase *vector* allreduce on a [`RankComm`] (see
/// [`RankComm::start_allreduce_vec`]).
#[must_use = "finish() completes the collective; dropping the handle deadlocks the peers"]
#[derive(Debug)]
pub struct PendingVecAllreduce<'a> {
    comm: &'a RankComm,
    /// The root's own partial (leaves posted theirs at start).
    local: Vec<f64>,
}

impl PendingVecAllreduce<'_> {
    /// Completes the collective and returns the component-wise global sums.
    /// On the root this performs the rank-ordered gather + broadcast; on a
    /// leaf it blocks on the broadcast of the totals.
    pub fn finish(self) -> Result<Vec<f64>, CommError> {
        let _probe = feir_trace::span(feir_trace::Phase::AllreduceWait);
        self.comm.finish_vec(self.local)
    }
}

/// Distributed SpMV `y = A·x` over `ranks` simulated ranks: one halo exchange
/// followed by each rank's local block-row product.
///
/// This is the communication round-trip of one CG iteration in isolation,
/// used by tests to validate the halo plan against the serial kernel; a comm
/// failure (impossible unless a rank thread dies) panics here rather than
/// propagating.
pub fn distributed_spmv(a: &CsrMatrix, x: &[f64], ranks: usize) -> Vec<f64> {
    assert_eq!(x.len(), a.cols(), "distributed_spmv: x has wrong length");
    assert_eq!(
        a.rows(),
        a.cols(),
        "distributed_spmv: matrix must be square"
    );
    let ranks = effective_ranks(a.rows(), ranks);
    let partition = RankPartition::new(a.rows(), ranks);
    let plan = HaloPlan::build(a, &partition);
    let comms = RankComm::for_ranks(&plan, ranks);

    let mut y = vec![0.0; a.rows()];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks);
        for comm in comms {
            let partition = partition.clone();
            let handle = scope.spawn(move || {
                let rank = comm.rank();
                let own = partition.range(rank);
                // Private working copy: authoritative only on the owned range.
                let mut full = vec![0.0; a.cols()];
                full[own.clone()].copy_from_slice(&x[own.clone()]);
                comm.exchange_halo(&mut full).expect("halo exchange failed");
                let mut local = vec![0.0; own.len()];
                a.spmv_rows(own.start, own.end, &full, &mut local);
                (rank, local)
            });
            handles.push(handle);
        }
        for handle in handles {
            let (rank, local) = handle.join().expect("rank thread panicked");
            y[partition.range(rank)].copy_from_slice(&local);
        }
    });
    y
}

/// Distributed dot product `⟨x, y⟩` over `ranks` simulated ranks via the
/// rank-ordered allreduce.
pub fn distributed_dot(x: &[f64], y: &[f64], ranks: usize) -> f64 {
    assert_eq!(x.len(), y.len(), "distributed_dot: length mismatch");
    let ranks = effective_ranks(x.len(), ranks);
    let partition = RankPartition::new(x.len(), ranks);
    let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
    let mut result = 0.0;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranks);
        for comm in comms {
            let range = partition.range(comm.rank());
            let handle = scope.spawn(move || {
                let local = feir_sparse::vecops::dot(&x[range.clone()], &y[range]);
                comm.allreduce_sum(local).expect("allreduce failed")
            });
            handles.push(handle);
        }
        for handle in handles {
            result = handle.join().expect("rank thread panicked");
        }
    });
    result
}

/// Clamps the requested rank count to something the problem can sustain.
pub(crate) fn effective_ranks(n: usize, ranks: usize) -> usize {
    ranks.max(1).min(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feir_sparse::generators::poisson_2d;

    #[test]
    fn halo_plan_of_poisson_is_the_grid_boundary() {
        let a = poisson_2d(8); // 64 rows, rows couple to ±1 and ±8.
        let partition = RankPartition::new(a.rows(), 4);
        let plan = HaloPlan::build(&a, &partition);
        // Interior ranks exchange one grid line (8 entries) with each
        // neighbour plus the single off-by-one entry of the 5-point stencil.
        for r in 0..4 {
            for (&peer, cols) in plan.needs_of(r) {
                assert_ne!(peer, r);
                assert!(!cols.is_empty());
                assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted & unique");
                for &c in cols {
                    assert_eq!(partition.owner_of(c), peer);
                }
            }
        }
        assert!(plan.halo_volume() > 0);
        // Sends mirror needs exactly.
        for r in 0..4 {
            for (&dest, cols) in plan.sends_of(r) {
                assert_eq!(plan.needs_of(dest).get(&r), Some(cols));
            }
        }
    }

    #[test]
    fn recovery_exchange_fetches_cross_boundary_values() {
        let a = poisson_2d(8);
        let n = a.rows();
        let ranks = 4;
        let partition = RankPartition::new(n, ranks);
        let plan = HaloPlan::build(&a, &partition);
        let comms = RankComm::for_ranks(&plan, ranks);
        // Rank 2 lost a page and requests every halo entry it references;
        // the other ranks participate with empty requests.
        let fetched: Vec<(usize, usize, Vec<f64>)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for comm in comms {
                let partition = partition.clone();
                let plan = plan.clone();
                let handle = scope.spawn(move || {
                    let rank = comm.rank();
                    let own = partition.range(rank);
                    let mut data = vec![f64::NAN; n];
                    for i in own {
                        data[i] = i as f64;
                    }
                    let requests: HashMap<usize, Vec<usize>> = if rank == 2 {
                        plan.needs_of(2).clone()
                    } else {
                        HashMap::new()
                    };
                    let (count, invalid) = comm
                        .recovery_exchange(&requests, &mut data, &[])
                        .expect("recovery exchange failed");
                    assert!(invalid.is_empty(), "no owner declared pages lost");
                    let values: Vec<f64> = requests
                        .values()
                        .flat_map(|cols| cols.iter().map(|&c| data[c] - c as f64))
                        .collect();
                    (rank, count, values)
                });
                handles.push(handle);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });
        for (rank, count, deltas) in fetched {
            if rank == 2 {
                assert!(count > 0, "rank 2 fetched nothing");
                assert!(
                    deltas.iter().all(|d| *d == 0.0),
                    "fetched values disagree with the owner's data"
                );
            } else {
                assert_eq!(count, 0, "healthy rank {rank} fetched data");
            }
        }
    }

    #[test]
    fn recovery_exchange_flags_values_the_owner_lost() {
        let a = poisson_2d(8);
        let n = a.rows();
        let ranks = 2;
        let partition = RankPartition::new(n, ranks);
        let plan = HaloPlan::build(&a, &partition);
        let comms = RankComm::for_ranks(&plan, ranks);
        // Rank 0 requests its halo from rank 1, but rank 1 declares the
        // first rows it owns lost: rank 0 must get them flagged invalid.
        let results: Vec<(usize, Vec<usize>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    let partition = partition.clone();
                    let plan = plan.clone();
                    scope.spawn(move || {
                        let rank = comm.rank();
                        let own = partition.range(rank);
                        let mut data = vec![0.0; n];
                        for i in own.clone() {
                            data[i] = i as f64;
                        }
                        let requests: HashMap<usize, Vec<usize>> = if rank == 0 {
                            plan.needs_of(0).clone()
                        } else {
                            HashMap::new()
                        };
                        let lost: Vec<usize> = if rank == 1 {
                            (own.start..own.start + 4).collect()
                        } else {
                            Vec::new()
                        };
                        let (_, invalid) = comm
                            .recovery_exchange(&requests, &mut data, &lost)
                            .expect("recovery exchange failed");
                        (rank, invalid)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });
        let boundary = partition.range(1).start;
        for (rank, invalid) in results {
            if rank == 0 {
                // Rank 0's 5-point halo includes the first row rank 1 owns,
                // which rank 1 lost.
                assert!(invalid.contains(&boundary), "lost row not flagged");
                assert!(invalid.windows(2).all(|w| w[0] < w[1]), "sorted");
            } else {
                assert!(invalid.is_empty());
            }
        }
    }

    #[test]
    fn fault_flag_is_a_global_or() {
        let ranks = 3;
        let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
        let flags: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    scope.spawn(move || {
                        // Only rank 1 reports a fault; everyone must see it.
                        let first = comm.fault_flag(usize::from(comm.rank() == 1)).unwrap();
                        let second = comm.fault_flag(0).unwrap();
                        (first, second)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .flat_map(|(a, b)| [a, b])
                .collect()
        });
        // First round: all true. Second round: all false.
        assert_eq!(flags.iter().filter(|f| **f).count(), ranks);
    }

    #[test]
    fn split_phase_allreduce_matches_blocking_bitwise() {
        // Irrational-ish partials so the accumulation order matters; the
        // split-phase handle must produce bit-for-bit the blocking result,
        // with arbitrary local work between start and finish.
        for ranks in [1usize, 2, 4] {
            let blocking: Vec<f64> = {
                let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = comms
                        .into_iter()
                        .enumerate()
                        .map(|(rank, comm)| {
                            scope
                                .spawn(move || comm.allreduce_sum(0.1 + rank as f64 * 0.3).unwrap())
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            let split: Vec<f64> = {
                let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = comms
                        .into_iter()
                        .enumerate()
                        .map(|(rank, comm)| {
                            scope.spawn(move || {
                                let pending =
                                    comm.start_allreduce(0.1 + rank as f64 * 0.3).unwrap();
                                // Local work overlapping the reduction wait.
                                let mut acc = 0.0;
                                for i in 0..500 {
                                    acc += (i as f64).sqrt();
                                }
                                assert!(acc > 0.0);
                                pending.finish().unwrap()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            for (u, v) in blocking.iter().zip(&split) {
                assert_eq!(u.to_bits(), v.to_bits(), "{ranks} ranks");
            }
        }
    }

    #[test]
    fn vector_allreduce_matches_scalar_allreduces_bitwise() {
        // Each component of the batched collective must carry exactly the
        // bits a scalar allreduce of the same partials produces.
        for ranks in [1usize, 2, 4] {
            let partial = |rank: usize, j: usize| 0.1 + rank as f64 * 0.3 + j as f64 * 0.7;
            let scalar: Vec<Vec<f64>> = {
                let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = comms
                        .into_iter()
                        .enumerate()
                        .map(|(rank, comm)| {
                            scope.spawn(move || {
                                (0..3)
                                    .map(|j| comm.allreduce_sum(partial(rank, j)).unwrap())
                                    .collect::<Vec<f64>>()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            let vectored: Vec<Vec<f64>> = {
                let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
                std::thread::scope(|scope| {
                    let handles: Vec<_> = comms
                        .into_iter()
                        .enumerate()
                        .map(|(rank, comm)| {
                            scope.spawn(move || {
                                let local: Vec<f64> = (0..3).map(|j| partial(rank, j)).collect();
                                let pending = comm.start_allreduce_vec(local).unwrap();
                                // Local work overlapping the reduction.
                                let mut acc = 0.0;
                                for i in 0..200 {
                                    acc += (i as f64).sqrt();
                                }
                                assert!(acc > 0.0);
                                pending.finish().unwrap()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            for (s, v) in scalar.iter().zip(&vectored) {
                assert_eq!(s.len(), v.len());
                for (a, b) in s.iter().zip(v) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{ranks} ranks");
                }
            }
        }
    }

    #[test]
    fn memory_link_demultiplexes_tags_fifo_per_tag() {
        let comms = RankComm::for_ranks(&HaloPlan::empty(2), 2);
        let (sender, receiver) = (&comms[0].link, &comms[1].link);
        let halo = |v: f64| Message::Halo { values: vec![v] };
        let gather = |v: f64| Message::GatherScalar { rank: 0, value: v };
        for msg in [halo(1.0), gather(10.0), halo(2.0), gather(20.0)] {
            sender.send(1, msg, "test send").unwrap();
        }
        // Asking for the gathers first stashes the halos that arrive ahead
        // of them; each tag still comes out in its own send order.
        let got: Vec<Message> = [Tag::GatherScalar, Tag::GatherScalar, Tag::Halo, Tag::Halo]
            .into_iter()
            .map(|tag| receiver.recv(0, tag, "test receive").unwrap())
            .collect();
        assert_eq!(got, vec![gather(10.0), gather(20.0), halo(1.0), halo(2.0)]);
    }

    #[test]
    fn rank_comm_counts_collectives() {
        let comms = RankComm::for_ranks(&HaloPlan::empty(2), 2);
        let counts: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    scope.spawn(move || {
                        comm.allreduce_sum(1.0).unwrap();
                        let _ = comm.allreduce_vec(vec![1.0, 2.0]).unwrap();
                        comm.fault_flag(0).unwrap();
                        let pending = comm.start_allreduce(0.5).unwrap();
                        pending.finish().unwrap();
                        comm.collectives()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![4, 4]);
    }

    #[test]
    fn reducer_sums_across_ranks_deterministically() {
        for ranks in [1usize, 2, 5] {
            let comms = RankComm::for_ranks(&HaloPlan::empty(ranks), ranks);
            let total: f64 = std::thread::scope(|scope| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .enumerate()
                    .map(|(rank, comm)| {
                        scope.spawn(move || comm.allreduce_sum((rank + 1) as f64).unwrap())
                    })
                    .collect();
                let mut totals: Vec<f64> = handles
                    .into_iter()
                    .map(|h| h.join().expect("rank panicked"))
                    .collect();
                let first = totals.pop().unwrap();
                assert!(totals.iter().all(|&t| t == first), "ranks disagree");
                first
            });
            let expected: f64 = (1..=ranks).map(|r| r as f64).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn dropped_peer_surfaces_as_typed_comm_error() {
        // Rank 1 drops its endpoint without entering the collective; rank 0
        // must observe a CommError::Disconnected, not a panic.
        let mut comms = RankComm::for_ranks(&HaloPlan::empty(2), 2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        drop(c1);
        let err = c0.allreduce_sum(1.0).unwrap_err();
        assert!(
            matches!(err, CommError::Disconnected { .. }),
            "expected Disconnected, got {err:?}"
        );
    }

    #[test]
    fn dropped_halo_peer_surfaces_as_typed_comm_error() {
        let a = poisson_2d(4);
        let partition = RankPartition::new(a.rows(), 2);
        let plan = HaloPlan::build(&a, &partition);
        let mut comms = RankComm::for_ranks(&plan, 2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        drop(c1);
        let mut full = vec![0.0; a.cols()];
        let err = c0.exchange_halo(&mut full).unwrap_err();
        assert!(
            matches!(err, CommError::Disconnected { peer: Some(1), .. }),
            "expected Disconnected from rank 1, got {err:?}"
        );
    }
}
