//! The delivery cursor: every committed command reaches the embedding
//! exactly once, in index order, through either the borrowing drain or the
//! owning `take_applied`.
//!
//! A 3-node cluster takes proposals, loses its leader mid-stream, elects a
//! new one, takes the rest and heals. Every round each node delivers
//! through one of three paths in turn: `take_applied`, a full
//! `drain_committed`, or a `drain_committed` dropped after its first item.

use oasis_raft::{RaftConfig, RaftMessage, RaftNode};
use oasis_sim::event::EventQueue;
use oasis_sim::time::{SimDuration, SimTime};

struct Cluster {
    nodes: Vec<RaftNode>,
    wire: EventQueue<(usize, usize, RaftMessage)>,
    up: Vec<bool>,
    now: SimTime,
    round: usize,
    /// Per node, every `(index, command)` delivered so far, in order.
    delivered: Vec<Vec<(u64, Vec<u8>)>>,
}

impl Cluster {
    fn new(seed: u64) -> Self {
        let n = 3;
        Cluster {
            nodes: (0..n)
                .map(|id| {
                    let peers = (0..n).filter(|&p| p != id).collect();
                    RaftNode::new(id, peers, RaftConfig::default(), seed)
                })
                .collect(),
            wire: EventQueue::new(),
            up: vec![true; n],
            now: SimTime::ZERO,
            round: 0,
            delivered: vec![Vec::new(); n],
        }
    }

    fn leader(&self) -> Option<usize> {
        (0..self.nodes.len()).find(|&i| self.up[i] && self.nodes[i].is_leader())
    }

    /// Deliver node `i`'s newly committed commands by this round's path,
    /// checking each against the commit frontier and the previous one.
    fn deliver(&mut self, i: usize) {
        let commit = self.nodes[i].commit_index();
        let got: Vec<(u64, Vec<u8>)> = match (self.round + i) % 3 {
            0 => self.nodes[i].take_applied(),
            1 => self.nodes[i]
                .drain_committed()
                .map(|(idx, c)| (idx, c.to_vec()))
                .collect(),
            _ => self.nodes[i]
                .drain_committed()
                .take(1)
                .map(|(idx, c)| (idx, c.to_vec()))
                .collect(),
        };
        for (idx, cmd) in got {
            assert!(
                idx <= commit,
                "node {i} delivered {idx} past commit {commit}"
            );
            assert!(!cmd.is_empty(), "node {i} delivered an election no-op");
            if let Some(&(prev, _)) = self.delivered[i].last() {
                assert!(idx > prev, "node {i} delivered {idx} after {prev}");
            }
            self.delivered[i].push((idx, cmd));
        }
    }

    fn tick(&mut self) {
        self.now += SimDuration::from_micros(500);
        self.round += 1;
        while let Some((_, (from, to, msg))) = self.wire.pop_due(self.now) {
            if self.up[to] && self.up[from] {
                self.nodes[to].handle(self.now, from, msg);
            }
        }
        for i in 0..self.nodes.len() {
            if self.up[i] {
                self.nodes[i].tick(self.now);
            }
            for (to, msg) in self.nodes[i].take_outbox() {
                if self.up[i] {
                    self.wire
                        .push(self.now + SimDuration::from_micros(5), (i, to, msg));
                }
            }
            self.deliver(i);
        }
    }

    fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.tick();
        }
    }

    /// Propose `cmd` at the current leader, running rounds until one
    /// exists.
    fn propose(&mut self, cmd: Vec<u8>) {
        for _ in 0..400 {
            if let Some(l) = self.leader() {
                self.nodes[l]
                    .propose(self.now, cmd)
                    .expect("leader accepts");
                return;
            }
            self.tick();
        }
        panic!("no leader emerged");
    }
}

#[test]
fn every_committed_command_is_delivered_exactly_once_in_order() {
    let mut c = Cluster::new(7);
    let commands: Vec<Vec<u8>> = (0u8..12).map(|i| vec![i, 0xAB]).collect();
    for cmd in &commands[..6] {
        c.propose(cmd.clone());
        c.run(3);
    }
    c.run(40);
    let old = c.leader().expect("a leader");
    let old_term = c.nodes[old].term();
    c.up[old] = false;
    for cmd in &commands[6..] {
        c.propose(cmd.clone());
        c.run(3);
    }
    let new = c.leader().expect("a new leader");
    assert_ne!(new, old);
    assert!(c.nodes[new].term() > old_term);
    c.up[old] = true;
    // Drain at least twice per node per path after every entry committed.
    c.run(400);

    for (i, node) in c.nodes.iter().enumerate() {
        let commit = node.commit_index() as usize;
        let log = &node.log_entries()[..commit];
        assert!(
            log.iter().filter(|e| e.command.is_empty()).count() >= 2,
            "node {i}: both elections' no-ops are in the committed log"
        );
        let committed: Vec<(u64, Vec<u8>)> = (1..=commit as u64)
            .zip(log)
            .filter(|(_, e)| !e.command.is_empty())
            .map(|(idx, e)| (idx, e.command.clone()))
            .collect();
        assert_eq!(c.delivered[i], committed, "node {i}");
        let cmds: Vec<&Vec<u8>> = c.delivered[i].iter().map(|(_, cmd)| cmd).collect();
        assert_eq!(cmds, commands.iter().collect::<Vec<_>>(), "node {i}");
    }
}

#[test]
fn take_applied_and_the_drain_share_one_cursor() {
    let mut n = RaftNode::new(0, vec![], RaftConfig::default(), 1);
    let now = SimTime::from_millis(25);
    n.tick(now);
    for i in 0u8..5 {
        n.propose(now, vec![i]).unwrap();
    }
    let first: Vec<(u64, Vec<u8>)> = n
        .drain_committed()
        .take(2)
        .map(|(i, c)| (i, c.to_vec()))
        .collect();
    assert_eq!(first, vec![(2, vec![0]), (3, vec![1])]);
    assert_eq!(
        n.take_applied(),
        vec![(4, vec![2]), (5, vec![3]), (6, vec![4])]
    );
    assert_eq!(n.drain_committed().count(), 0);
    assert!(n.take_applied().is_empty());
}
