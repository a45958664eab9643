//! The Raft state machine for one node.

use oasis_sim::rng::SimRng;
use oasis_sim::time::{SimDuration, SimTime};

/// Node identifier (dense, assigned by the embedding).
pub type NodeId = usize;
/// Raft term.
pub type Term = u64;

/// A replicated log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Term in which the entry was appended at the leader.
    pub term: Term,
    /// Opaque command applied by the embedding's state machine.
    pub command: Vec<u8>,
}

/// Raft RPCs. The embedding moves these between nodes (over Oasis message
/// channels in the pod).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaftMessage {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// Candidate's id.
        candidate: NodeId,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to `RequestVote`.
    VoteResponse {
        /// Responder's term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (empty = heartbeat).
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Leader's id.
        leader: NodeId,
        /// Index of the entry preceding `entries`.
        prev_log_index: u64,
        /// Term of that entry.
        prev_log_term: Term,
        /// Entries to append.
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Reply to `AppendEntries`.
    AppendResponse {
        /// Responder's term.
        term: Term,
        /// Whether the append matched.
        success: bool,
        /// Highest index known replicated on the responder (valid when
        /// `success`).
        match_index: u64,
    },
}

/// The role a node currently plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Passive replica.
    Follower,
    /// Election in progress.
    Candidate,
    /// The (unique per term) leader.
    Leader,
}

/// Timing configuration. Defaults suit an allocator replicated over
/// microsecond-latency CXL channels: fast heartbeats, ~10–20 ms election
/// timeouts.
#[derive(Clone, Debug)]
pub struct RaftConfig {
    /// Minimum election timeout.
    pub election_timeout_min: SimDuration,
    /// Maximum election timeout (jitter upper bound).
    pub election_timeout_max: SimDuration,
    /// Leader heartbeat interval.
    pub heartbeat_interval: SimDuration,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: SimDuration::from_millis(10),
            election_timeout_max: SimDuration::from_millis(20),
            heartbeat_interval: SimDuration::from_millis(2),
        }
    }
}

/// A Raft node. Drive it with [`RaftNode::tick`] and [`RaftNode::handle`];
/// collect RPCs with [`RaftNode::take_outbox`] and committed commands with
/// [`RaftNode::drain_committed`].
#[derive(Clone)]
pub struct RaftNode {
    id: NodeId,
    peers: Vec<NodeId>,
    cfg: RaftConfig,
    rng: SimRng,

    term: Term,
    voted_for: Option<NodeId>,
    /// 1-based log (index 0 is the implicit empty prefix).
    log: Vec<LogEntry>,
    commit_index: u64,
    /// Highest index handed out by [`drain_committed`](Self::drain_committed).
    delivered: u64,

    role: Role,
    votes_granted: usize,
    /// Leader state: next index to send / highest replicated, per peer slot.
    next_index: Vec<u64>,
    match_index: Vec<u64>,

    election_deadline: SimTime,
    heartbeat_due: SimTime,

    outbox: Vec<(NodeId, RaftMessage)>,
}

impl RaftNode {
    /// Create a follower with a randomized first election deadline.
    pub fn new(id: NodeId, peers: Vec<NodeId>, cfg: RaftConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
        let deadline = SimTime::ZERO + Self::random_timeout(&cfg, &mut rng);
        let n_peers = peers.len();
        RaftNode {
            id,
            peers,
            cfg,
            rng,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            commit_index: 0,
            delivered: 0,
            role: Role::Follower,
            votes_granted: 0,
            next_index: vec![1; n_peers],
            match_index: vec![0; n_peers],
            election_deadline: deadline,
            heartbeat_due: SimTime::ZERO,
            outbox: Vec::new(),
        }
    }

    fn random_timeout(cfg: &RaftConfig, rng: &mut SimRng) -> SimDuration {
        let lo = cfg.election_timeout_min.as_nanos();
        let hi = cfg.election_timeout_max.as_nanos().max(lo + 1);
        SimDuration::from_nanos(rng.range_u64(lo, hi))
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Is this node the leader of its current term?
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Log length (highest index).
    pub fn last_log_index(&self) -> u64 {
        self.log.len() as u64
    }

    /// The whole log, 1-based index `i` at slot `i - 1`. Read-only: the
    /// embedding uses it to audit its state machine against the committed
    /// prefix (chaos-harness invariant).
    pub fn log_entries(&self) -> &[LogEntry] {
        &self.log
    }

    fn last_log_term(&self) -> Term {
        self.log.last().map_or(0, |e| e.term)
    }

    fn term_at(&self, index: u64) -> Term {
        if index == 0 {
            0
        } else {
            self.log[(index - 1) as usize].term
        }
    }

    /// Drain pending outgoing RPCs.
    pub fn take_outbox(&mut self) -> Vec<(NodeId, RaftMessage)> {
        std::mem::take(&mut self.outbox)
    }

    /// Committed commands not yet delivered, as `(log_index, command)` in
    /// log order, borrowed from the log and skipping election no-ops. The
    /// cursor advances per item yielded, so each command is delivered
    /// exactly once, even when the iterator is dropped early.
    pub fn drain_committed(&mut self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let (log, cursor) = (&self.log[..self.commit_index as usize], &mut self.delivered);
        std::iter::from_fn(move || {
            let rest = &log[*cursor as usize..];
            *cursor += rest.iter().position(|e| !e.command.is_empty())? as u64 + 1;
            Some((*cursor, log[*cursor as usize - 1].command.as_slice()))
        })
    }

    /// [`drain_committed`](Self::drain_committed), copied out of the log.
    pub fn take_applied(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.drain_committed()
            .map(|(i, c)| (i, c.to_vec()))
            .collect()
    }

    /// Propose a command. Returns its log index if this node is the leader,
    /// `None` otherwise (the embedding should redirect to the leader).
    pub fn propose(&mut self, now: SimTime, command: Vec<u8>) -> Option<u64> {
        if self.role != Role::Leader {
            return None;
        }
        self.log.push(LogEntry {
            term: self.term,
            command,
        });
        let index = self.last_log_index();
        // Replicate eagerly rather than waiting for the heartbeat.
        self.broadcast_append(now);
        // Single-node cluster commits immediately.
        self.advance_commit();
        Some(index)
    }

    fn become_follower(&mut self, now: SimTime, term: Term) {
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.election_deadline = now + Self::random_timeout(&self.cfg, &mut self.rng);
    }

    fn become_candidate(&mut self, now: SimTime) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes_granted = 1;
        self.election_deadline = now + Self::random_timeout(&self.cfg, &mut self.rng);
        let (lli, llt) = (self.last_log_index(), self.last_log_term());
        for &p in &self.peers {
            self.outbox.push((
                p,
                RaftMessage::RequestVote {
                    term: self.term,
                    candidate: self.id,
                    last_log_index: lli,
                    last_log_term: llt,
                },
            ));
        }
        self.maybe_win(now);
    }

    fn maybe_win(&mut self, now: SimTime) {
        let cluster = self.peers.len() + 1;
        if self.role == Role::Candidate && self.votes_granted * 2 > cluster {
            self.role = Role::Leader;
            let lli = self.last_log_index();
            for i in 0..self.peers.len() {
                self.next_index[i] = lli + 1;
                self.match_index[i] = 0;
            }
            // Append a no-op barrier: a leader can only commit entries of
            // its *own* term by counting replicas (Raft 5.4.2), so without
            // this, surviving entries from deposed leaders could sit
            // uncommitted indefinitely. No-ops are never delivered.
            self.log.push(LogEntry {
                term: self.term,
                command: Vec::new(),
            });
            self.advance_commit(); // single-node cluster commits at once
            self.heartbeat_due = now; // send heartbeats immediately
            self.broadcast_append(now);
        }
    }

    fn append_for_peer(&self, slot: usize) -> RaftMessage {
        let next = self.next_index[slot];
        let prev_log_index = next - 1;
        let prev_log_term = self.term_at(prev_log_index);
        let entries: Vec<LogEntry> = self.log[(next - 1) as usize..].to_vec();
        RaftMessage::AppendEntries {
            term: self.term,
            leader: self.id,
            prev_log_index,
            prev_log_term,
            entries,
            leader_commit: self.commit_index,
        }
    }

    fn broadcast_append(&mut self, now: SimTime) {
        if self.role != Role::Leader {
            return;
        }
        for slot in 0..self.peers.len() {
            let msg = self.append_for_peer(slot);
            self.outbox.push((self.peers[slot], msg));
        }
        self.heartbeat_due = now + self.cfg.heartbeat_interval;
    }

    fn advance_commit(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        let cluster = self.peers.len() + 1;
        for n in (self.commit_index + 1..=self.last_log_index()).rev() {
            // Only current-term entries commit by counting (Raft §5.4.2).
            if self.term_at(n) != self.term {
                continue;
            }
            let replicas = 1 + self.match_index.iter().filter(|&&m| m >= n).count();
            if replicas * 2 > cluster {
                self.commit_index = n;
                break;
            }
        }
    }

    /// Advance timers: start an election on timeout, send heartbeats when
    /// leading.
    pub fn tick(&mut self, now: SimTime) {
        match self.role {
            Role::Leader => {
                if now >= self.heartbeat_due {
                    self.broadcast_append(now);
                }
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline {
                    self.become_candidate(now);
                }
            }
        }
    }

    /// Process one incoming RPC.
    pub fn handle(&mut self, now: SimTime, from: NodeId, msg: RaftMessage) {
        match msg {
            RaftMessage::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                if term > self.term {
                    self.become_follower(now, term);
                }
                let log_ok = last_log_term > self.last_log_term()
                    || (last_log_term == self.last_log_term()
                        && last_log_index >= self.last_log_index());
                let grant =
                    term == self.term && log_ok && self.voted_for.is_none_or(|v| v == candidate);
                if grant {
                    self.voted_for = Some(candidate);
                    self.election_deadline = now + Self::random_timeout(&self.cfg, &mut self.rng);
                }
                self.outbox.push((
                    from,
                    RaftMessage::VoteResponse {
                        term: self.term,
                        granted: grant,
                    },
                ));
            }
            RaftMessage::VoteResponse { term, granted } => {
                if term > self.term {
                    self.become_follower(now, term);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes_granted += 1;
                    self.maybe_win(now);
                }
            }
            RaftMessage::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => {
                if term > self.term || (term == self.term && self.role == Role::Candidate) {
                    self.become_follower(now, term);
                }
                if term < self.term {
                    self.outbox.push((
                        from,
                        RaftMessage::AppendResponse {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    ));
                    return;
                }
                // Valid leader for our term: reset the election timer.
                let _ = leader;
                self.election_deadline = now + Self::random_timeout(&self.cfg, &mut self.rng);
                // Log-matching check.
                if prev_log_index > self.last_log_index()
                    || self.term_at(prev_log_index) != prev_log_term
                {
                    self.outbox.push((
                        from,
                        RaftMessage::AppendResponse {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    ));
                    return;
                }
                // Append, truncating conflicts.
                let mut idx = prev_log_index;
                for entry in entries {
                    idx += 1;
                    if idx <= self.last_log_index() {
                        if self.term_at(idx) != entry.term {
                            self.log.truncate((idx - 1) as usize);
                            self.log.push(entry);
                        }
                    } else {
                        self.log.push(entry);
                    }
                }
                if leader_commit > self.commit_index {
                    self.commit_index = leader_commit.min(self.last_log_index());
                }
                self.outbox.push((
                    from,
                    RaftMessage::AppendResponse {
                        term: self.term,
                        success: true,
                        match_index: idx,
                    },
                ));
            }
            RaftMessage::AppendResponse {
                term,
                success,
                match_index,
            } => {
                if term > self.term {
                    self.become_follower(now, term);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                let Some(slot) = self.peers.iter().position(|&p| p == from) else {
                    return;
                };
                if success {
                    self.match_index[slot] = self.match_index[slot].max(match_index);
                    self.next_index[slot] = self.match_index[slot] + 1;
                    self.advance_commit();
                } else {
                    // Back off and retry immediately.
                    self.next_index[slot] = self.next_index[slot].saturating_sub(1).max(1);
                    let msg = self.append_for_peer(slot);
                    self.outbox.push((self.peers[slot], msg));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RaftConfig {
        RaftConfig::default()
    }

    #[test]
    fn single_node_elects_itself_and_commits() {
        let mut n = RaftNode::new(0, vec![], cfg(), 1);
        n.tick(SimTime::from_millis(25));
        assert!(n.is_leader());
        // Index 1 is the election no-op barrier; it commits immediately and
        // is filtered from the applied stream.
        assert_eq!(n.commit_index(), 1);
        let now = SimTime::from_millis(25);
        let idx = n.propose(now, b"cmd".to_vec()).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(n.commit_index(), 2);
        let applied = n.take_applied();
        assert_eq!(applied, vec![(2, b"cmd".to_vec())]);
    }

    #[test]
    fn follower_grants_vote_once_per_term() {
        let mut n = RaftNode::new(0, vec![1, 2], cfg(), 1);
        let now = SimTime::from_millis(1);
        n.handle(
            now,
            1,
            RaftMessage::RequestVote {
                term: 1,
                candidate: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let out = n.take_outbox();
        assert!(matches!(
            out[0].1,
            RaftMessage::VoteResponse { granted: true, .. }
        ));
        // Second candidate, same term: refused.
        n.handle(
            now,
            2,
            RaftMessage::RequestVote {
                term: 1,
                candidate: 2,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let out = n.take_outbox();
        assert!(matches!(
            out[0].1,
            RaftMessage::VoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn vote_refused_for_stale_log() {
        let mut n = RaftNode::new(0, vec![1], cfg(), 1);
        // Give node 0 a log entry at term 2 via AppendEntries.
        n.handle(
            SimTime::ZERO,
            1,
            RaftMessage::AppendEntries {
                term: 2,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![LogEntry {
                    term: 2,
                    command: vec![1],
                }],
                leader_commit: 0,
            },
        );
        n.take_outbox();
        // Candidate with an older log must not get the vote.
        n.handle(
            SimTime::ZERO,
            1,
            RaftMessage::RequestVote {
                term: 3,
                candidate: 1,
                last_log_index: 0,
                last_log_term: 0,
            },
        );
        let out = n.take_outbox();
        assert!(matches!(
            out[0].1,
            RaftMessage::VoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn append_entries_rejects_gap() {
        let mut n = RaftNode::new(0, vec![1], cfg(), 1);
        n.handle(
            SimTime::ZERO,
            1,
            RaftMessage::AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: 5, // node has an empty log
                prev_log_term: 1,
                entries: vec![],
                leader_commit: 0,
            },
        );
        let out = n.take_outbox();
        assert!(matches!(
            out[0].1,
            RaftMessage::AppendResponse { success: false, .. }
        ));
    }

    #[test]
    fn conflicting_suffix_truncated() {
        let mut n = RaftNode::new(0, vec![1], cfg(), 1);
        // Old leader appends two entries at term 1.
        n.handle(
            SimTime::ZERO,
            1,
            RaftMessage::AppendEntries {
                term: 1,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    LogEntry {
                        term: 1,
                        command: vec![1],
                    },
                    LogEntry {
                        term: 1,
                        command: vec![2],
                    },
                ],
                leader_commit: 0,
            },
        );
        n.take_outbox();
        // New leader at term 2 overwrites index 2.
        n.handle(
            SimTime::ZERO,
            1,
            RaftMessage::AppendEntries {
                term: 2,
                leader: 1,
                prev_log_index: 1,
                prev_log_term: 1,
                entries: vec![LogEntry {
                    term: 2,
                    command: vec![9],
                }],
                leader_commit: 2,
            },
        );
        n.take_outbox();
        assert_eq!(n.last_log_index(), 2);
        let applied = n.take_applied();
        assert_eq!(applied[1].1, vec![9]);
    }

    #[test]
    fn higher_term_dethrones_leader() {
        let mut n = RaftNode::new(0, vec![], cfg(), 1);
        n.tick(SimTime::from_millis(25));
        assert!(n.is_leader());
        n.handle(
            SimTime::from_millis(26),
            1,
            RaftMessage::AppendEntries {
                term: 99,
                leader: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
        );
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.term(), 99);
    }

    #[test]
    fn propose_refused_on_follower() {
        let mut n = RaftNode::new(0, vec![1, 2], cfg(), 1);
        assert!(n.propose(SimTime::ZERO, vec![1]).is_none());
    }
}
