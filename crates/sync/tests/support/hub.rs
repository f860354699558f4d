//! A simulated client–server message fabric (paper §2.4, "execution
//! overview").
//!
//! [`Hub`] wires one server replica to any number of client replicas through
//! reliable, per-link FIFO queues — exactly the delivery assumptions of the
//! paper's model. Delivery *across* links can be interleaved arbitrarily,
//! which is what the convergence theorem's property tests exploit: any
//! schedule of [`Hub::step`] choices must quiesce to identical replicas.
//!
//! The production deployment uses the same [`Replica`] type behind real
//! transports (`crowdfill-net`); the hub exists so correctness can be tested
//! against *all* delivery orders rather than the one the network happened to
//! produce. It is a test fixture: the convergence properties' fabric.

use crowdfill_model::{ClientId, Message, OpError, Operation, Schema};
use crowdfill_sync::Replica;
use std::collections::VecDeque;
use std::sync::Arc;

/// Reserved client id for the server replica. The server never generates
/// operations of its own, so it never mints row ids under this id.
const SERVER_ID: ClientId = ClientId(u32::MAX);

/// An in-memory client–server topology with per-link FIFO delivery.
#[derive(Debug, Clone)]
pub struct Hub {
    server: Replica,
    clients: Vec<Replica>,
    /// Upstream queues: client i → server.
    to_server: Vec<VecDeque<Message>>,
    /// Downstream queues: server → client i.
    to_client: Vec<VecDeque<Message>>,
}

/// One pending delivery opportunity: which link [`Hub::step`] may fire next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Deliver the head of client `i`'s upstream queue to the server
    /// (which also broadcasts it to every other client's downstream queue).
    ToServer(usize),
    /// Deliver the head of client `i`'s downstream queue to client `i`.
    ToClient(usize),
}

impl Hub {
    /// Creates a hub with `client_ids` clients, all replicas empty.
    ///
    /// Panics if a client id collides with the reserved server id or another
    /// client.
    pub fn new(schema: Arc<Schema>, client_ids: &[ClientId]) -> Hub {
        let mut seen = Vec::new();
        for &id in client_ids {
            assert_ne!(id, SERVER_ID, "client id collides with the server");
            assert!(!seen.contains(&id), "duplicate client id {id}");
            seen.push(id);
        }
        Hub {
            server: Replica::new(SERVER_ID, Arc::clone(&schema)),
            clients: client_ids
                .iter()
                .map(|&id| Replica::new(id, Arc::clone(&schema)))
                .collect(),
            to_server: vec![VecDeque::new(); client_ids.len()],
            to_client: vec![VecDeque::new(); client_ids.len()],
        }
    }

    /// Number of clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The server's replica.
    pub fn server(&self) -> &Replica {
        &self.server
    }

    /// Client `i`'s replica.
    pub fn client(&self, i: usize) -> &Replica {
        &self.clients[i]
    }

    /// Client `i` performs `op` on its local copy; on success the generated
    /// message is enqueued on its upstream link.
    pub fn client_op(&mut self, i: usize, op: &Operation) -> Result<Message, OpError> {
        let msg = self.clients[i].apply_local(op)?;
        self.to_server[i].push_back(msg.clone());
        Ok(msg)
    }

    /// The links that currently have a pending message, in deterministic
    /// order (upstream links first).
    pub fn pending_links(&self) -> Vec<Link> {
        let mut links = Vec::new();
        for (i, q) in self.to_server.iter().enumerate() {
            if !q.is_empty() {
                links.push(Link::ToServer(i));
            }
        }
        for (i, q) in self.to_client.iter().enumerate() {
            if !q.is_empty() {
                links.push(Link::ToClient(i));
            }
        }
        links
    }

    /// Total undelivered messages.
    pub fn pending_count(&self) -> usize {
        self.to_server.iter().map(VecDeque::len).sum::<usize>()
            + self.to_client.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Whether every generated message has been delivered everywhere.
    pub fn quiesced(&self) -> bool {
        self.pending_count() == 0
    }

    /// Fires one link: delivers (and processes) the message at its head.
    /// Delivering upstream also enqueues the broadcast on every *other*
    /// client's downstream link, per the paper's forwarding rule.
    ///
    /// Returns `false` if the link had nothing to deliver.
    pub fn step(&mut self, link: Link) -> bool {
        match link {
            Link::ToServer(i) => {
                let Some(msg) = self.to_server[i].pop_front() else {
                    return false;
                };
                self.server.process(&msg);
                for (j, q) in self.to_client.iter_mut().enumerate() {
                    if j != i {
                        q.push_back(msg.clone());
                    }
                }
                true
            }
            Link::ToClient(i) => {
                let Some(msg) = self.to_client[i].pop_front() else {
                    return false;
                };
                self.clients[i].process(&msg);
                true
            }
        }
    }

    /// Delivers everything in a fixed round-robin order until quiescent.
    pub fn drain(&mut self) {
        while let Some(&link) = self.pending_links().first() {
            self.step(link);
        }
    }

    /// Delivers everything, choosing the next link by repeatedly consulting
    /// `chooser` with the number of currently-pending links; used to drive
    /// randomized/property-based schedules. `chooser`'s return value is taken
    /// modulo the number of pending links.
    pub fn drain_with(&mut self, mut chooser: impl FnMut(usize) -> usize) {
        loop {
            let links = self.pending_links();
            if links.is_empty() {
                return;
            }
            let pick = chooser(links.len()) % links.len();
            self.step(links[pick]);
        }
    }

    /// Whether the server and all clients have identical candidate tables and
    /// vote histories — the convergence theorem's postcondition. Meaningful
    /// once [`Hub::quiesced`] holds.
    pub fn converged(&self) -> bool {
        self.clients.iter().all(|c| c.same_state(&self.server))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_model::{Column, ColumnId, DataType};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "T",
                vec![
                    Column::new("a", DataType::Text),
                    Column::new("b", DataType::Text),
                ],
                &["a"],
            )
            .unwrap(),
        )
    }

    fn hub(n: u32) -> Hub {
        let ids: Vec<ClientId> = (1..=n).map(ClientId).collect();
        Hub::new(schema(), &ids)
    }

    #[test]
    fn empty_hub_is_quiescent_and_converged() {
        let h = hub(3);
        assert!(h.quiesced());
        assert!(h.converged());
        assert_eq!(h.client_count(), 3);
    }

    #[test]
    fn single_op_propagates_to_everyone() {
        let mut h = hub(3);
        h.client_op(0, &Operation::Insert).unwrap();
        assert_eq!(h.pending_count(), 1);
        assert!(!h.converged());
        h.drain();
        assert!(h.quiesced());
        assert!(h.converged());
        assert_eq!(h.server().table().len(), 1);
    }

    #[test]
    fn originator_does_not_receive_own_message() {
        let mut h = hub(2);
        h.client_op(0, &Operation::Insert).unwrap();
        // Deliver upstream: broadcast goes only to client 1.
        assert!(h.step(Link::ToServer(0)));
        assert_eq!(h.pending_links(), vec![Link::ToClient(1)]);
        h.drain();
        assert!(h.converged());
    }

    #[test]
    fn step_on_empty_link_is_noop() {
        let mut h = hub(2);
        assert!(!h.step(Link::ToServer(0)));
        assert!(!h.step(Link::ToClient(1)));
    }

    #[test]
    fn interleaved_fills_converge() {
        let mut h = hub(2);
        let row = h
            .client_op(0, &Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        h.drain();
        // Both clients fill different columns of the same row concurrently.
        h.client_op(0, &Operation::fill(row, ColumnId(0), "x"))
            .unwrap();
        h.client_op(1, &Operation::fill(row, ColumnId(1), "y"))
            .unwrap();
        h.drain();
        assert!(h.converged());
        assert_eq!(h.server().table().len(), 2); // forked, per the model
    }

    #[test]
    fn drain_with_explores_alternative_schedules() {
        // A deterministic "worst case" chooser: always pick the last link.
        let mut h = hub(3);
        let row = h
            .client_op(0, &Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        h.drain();
        h.client_op(0, &Operation::fill(row, ColumnId(0), "x"))
            .unwrap();
        h.client_op(1, &Operation::fill(row, ColumnId(0), "y"))
            .unwrap();
        h.client_op(2, &Operation::fill(row, ColumnId(1), "z"))
            .unwrap();
        h.drain_with(|n| n - 1);
        assert!(h.quiesced());
        assert!(h.converged());
        assert_eq!(h.server().table().len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate client id")]
    fn duplicate_client_ids_rejected() {
        let _ = Hub::new(schema(), &[ClientId(1), ClientId(1)]);
    }
}
