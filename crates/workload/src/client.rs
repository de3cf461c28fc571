//! Closed-loop client population.
//!
//! The paper's experiments run client threads that issue one request at a
//! time: a client's next request is issued only after the previous one
//! completes (closed loop), plus a small think time. The client count is
//! the independent variable of Figure 7 (10 / 100 / 150 clients).

use ddp_sim::{Duration, SimRng};

use crate::ycsb::{Request, RequestStream, WorkloadSpec};

/// Identifier of a client thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl ClientId {
    /// Zero-based index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// One closed-loop client: a request stream plus think-time state.
#[derive(Debug)]
pub struct Client {
    id: ClientId,
    stream: RequestStream,
    /// Node the client's requests are serviced by (its coordinator).
    home_node: u8,
    think_time: Duration,
    rng: SimRng,
    completed: u64,
    deferred: u64,
}

impl Client {
    /// The client's id.
    #[must_use]
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The node that coordinates this client's requests.
    #[must_use]
    pub fn home_node(&self) -> u8 {
        self.home_node
    }

    /// Draws the client's next request.
    pub fn next_request(&mut self) -> Request {
        self.stream.next_request()
    }

    /// Think time before issuing the next request (0–2× the configured
    /// mean, uniformly distributed, so clients don't phase-lock).
    pub fn think(&mut self) -> Duration {
        if self.think_time.is_zero() {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.rng.range_inclusive(0, 2 * self.think_time.as_nanos()))
    }

    /// Marks one request completed; returns the new total.
    pub fn complete_one(&mut self) -> u64 {
        self.completed += 1;
        self.completed
    }

    /// Requests completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Notes one issue attempt deferred because the client's home node was
    /// unreachable (crashed); returns the new total.
    pub fn note_deferred(&mut self) -> u64 {
        self.deferred += 1;
        self.deferred
    }

    /// Issue attempts deferred by an unreachable home node so far.
    #[must_use]
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// Transaction groups this client's stream rejected-and-re-homed
    /// because their natural key set spanned shards (zero when the
    /// workload is unsharded).
    #[must_use]
    pub fn cross_shard_groups(&self) -> u64 {
        self.stream.cross_shard_groups()
    }
}

/// Builds the closed-loop client population for a cluster.
///
/// Clients are spread round-robin over the nodes, matching the paper's
/// "20 clients per server" default (Table 5).
///
/// # Examples
///
/// ```
/// use ddp_workload::{ClientPool, WorkloadSpec};
///
/// let pool = ClientPool::new(&WorkloadSpec::ycsb_a(), 100, 5, 42);
/// assert_eq!(pool.len(), 100);
/// assert_eq!(pool.clients().filter(|c| c.home_node() == 0).count(), 20);
/// ```
#[derive(Debug)]
pub struct ClientPool {
    clients: Vec<Client>,
}

impl ClientPool {
    /// Creates `count` clients over `nodes` servers, seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `nodes` is zero.
    #[must_use]
    pub fn new(spec: &WorkloadSpec, count: u32, nodes: u8, seed: u64) -> Self {
        Self::with_think_time(spec, count, nodes, seed, Duration::ZERO)
    }

    /// Like [`ClientPool::new`] with a mean think time between requests.
    #[must_use]
    pub fn with_think_time(
        spec: &WorkloadSpec,
        count: u32,
        nodes: u8,
        seed: u64,
        think_time: Duration,
    ) -> Self {
        assert!(count > 0, "need at least one client");
        assert!(nodes > 0, "need at least one node");
        // One chooser for the whole pool: every client's stream draws from
        // the same distribution, and a Zipfian costs O(key_space) to build.
        let chooser = spec.chooser();
        let mut root = SimRng::seed_from(seed);
        let clients = (0..count)
            .map(|i| Client {
                id: ClientId(i),
                stream: spec.stream_with(chooser.clone(), root.fork(u64::from(i)).next_u64()),
                home_node: (i % u32::from(nodes)) as u8,
                think_time,
                rng: root.fork(0x5EED_0000 + u64::from(i)),
                completed: 0,
                deferred: 0,
            })
            .collect();
        ClientPool { clients }
    }

    /// Number of clients.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Returns `true` if the pool is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Iterates over the clients.
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.clients.iter()
    }

    /// Mutable access to one client.
    pub fn client_mut(&mut self, id: ClientId) -> &mut Client {
        &mut self.clients[id.index()]
    }

    /// Total requests completed across all clients.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.clients.iter().map(Client::completed).sum()
    }

    /// Total cross-shard transaction groups rejected-and-re-homed across
    /// all client streams (zero for unsharded workloads).
    #[must_use]
    pub fn total_cross_shard(&self) -> u64 {
        self.clients.iter().map(Client::cross_shard_groups).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clients_spread_round_robin() {
        let pool = ClientPool::new(&WorkloadSpec::ycsb_a(), 10, 3, 1);
        let homes: Vec<u8> = pool.clients().map(Client::home_node).collect();
        assert_eq!(homes, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn client_streams_differ() {
        let mut pool = ClientPool::new(&WorkloadSpec::ycsb_a(), 2, 1, 1);
        let a: Vec<_> = (0..50)
            .map(|_| pool.client_mut(ClientId(0)).next_request())
            .collect();
        let b: Vec<_> = (0..50)
            .map(|_| pool.client_mut(ClientId(1)).next_request())
            .collect();
        assert_ne!(a, b, "clients must not replay the same stream");
    }

    #[test]
    fn pools_are_deterministic() {
        let mut p1 = ClientPool::new(&WorkloadSpec::ycsb_a(), 4, 2, 9);
        let mut p2 = ClientPool::new(&WorkloadSpec::ycsb_a(), 4, 2, 9);
        for i in 0..4 {
            let a = p1.client_mut(ClientId(i)).next_request();
            let b = p2.client_mut(ClientId(i)).next_request();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pooled_clients_match_independently_built_streams() {
        // Each client once built its own chooser from the spec; the pool
        // now shares one. Rebuild each stream the old way and compare.
        let spec = WorkloadSpec::ycsb_a();
        let seed = 42;
        let mut pool = ClientPool::new(&spec, 100, 5, seed);
        let mut root = SimRng::seed_from(seed);
        for i in 0..100 {
            let mut expected = spec.stream(root.fork(u64::from(i)).next_u64());
            let _think_rng = root.fork(0x5EED_0000 + u64::from(i));
            let client = pool.client_mut(ClientId(i));
            for _ in 0..100 {
                assert_eq!(client.next_request(), expected.next_request(), "client {i}");
            }
        }
    }

    #[test]
    fn completion_counting() {
        let mut pool = ClientPool::new(&WorkloadSpec::ycsb_a(), 3, 1, 2);
        pool.client_mut(ClientId(0)).complete_one();
        pool.client_mut(ClientId(0)).complete_one();
        pool.client_mut(ClientId(2)).complete_one();
        assert_eq!(pool.total_completed(), 3);
        assert_eq!(pool.client_mut(ClientId(0)).completed(), 2);
    }

    #[test]
    fn zero_think_time_is_zero() {
        let mut pool = ClientPool::new(&WorkloadSpec::ycsb_a(), 1, 1, 3);
        assert_eq!(pool.client_mut(ClientId(0)).think(), Duration::ZERO);
    }

    #[test]
    fn think_time_is_bounded() {
        let mut pool = ClientPool::with_think_time(
            &WorkloadSpec::ycsb_a(),
            1,
            1,
            4,
            Duration::from_nanos(100),
        );
        for _ in 0..1_000 {
            let t = pool.client_mut(ClientId(0)).think();
            assert!(t <= Duration::from_nanos(200));
        }
    }
}
