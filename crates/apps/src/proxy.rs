//! The HAProxy-like proxy worker.
//!
//! For every client connection accepted, the proxy opens an **active**
//! connection to a backend, forwards the request, relays the response
//! back, and closes both sides. Active connections are the workload
//! that exposes the paper's active-connection locality problem: the
//! backend's reply packets land wherever the NIC hashes them unless
//! Receive Flow Deliver steers them home.
//!
//! With [`Proxy::with_keep_alive`] the client side stays open across
//! requests (each request still opens a fresh backend connection, as
//! HAProxy's default `http-server-close` mode does); the client closes
//! first, exactly like the keep-alive web server.
//!
//! With [`Proxy::with_edge`] the proxy becomes a resilient edge tier:
//! the client's first payload carries an SNI-like token selecting a
//! weighted backend *pool*, per-backend health is tracked from active
//! probes and passive connection errors, failed requests retry with
//! jittered exponential backoff against the next healthy backend, and
//! idle backend connections are pooled for reuse. See [`crate::edge`]
//! for the mechanism layer.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};
use sim_core::{Cycles, SimRng};
use sim_load::BackoffPolicy;
use sim_os::epoll::EpollEvent;
use sim_os::fdtable::{Fd, FdTable};
use tcp_stack::SockId;

use crate::edge::{EdgeConfig, EdgeCounters, HealthTracker, WeightedRr};
use crate::sys::{Sys, Worker, LISTEN_TOKEN};

/// The `client` link of a pooled (idle) backend connection. Client
/// tokens count up from 0, so the sentinel is unreachable.
const IDLE_CLIENT: u64 = u64::MAX;

/// Proxy tuning.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProxyConfig {
    /// Client-facing service port.
    pub port: u16,
    /// Backend addresses, used round-robin.
    pub backends: Vec<Ipv4Addr>,
    /// Backend service port.
    pub backend_port: u16,
    /// Request length forwarded to the backend.
    pub request_len: u16,
    /// Response length relayed to the client.
    pub response_len: u16,
    /// User-level cycles per relay direction.
    pub app_work: Cycles,
    /// Maximum accepts per listen-readable event.
    pub accept_batch: u32,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            port: 80,
            backends: vec![Ipv4Addr::new(10, 0, 0, 100), Ipv4Addr::new(10, 0, 0, 101)],
            backend_port: 80,
            request_len: 600,
            response_len: 1_200,
            app_work: 4_200,
            accept_batch: 4,
        }
    }
}

#[derive(Debug)]
enum Conn {
    /// A client-facing connection.
    Client {
        sock: SockId,
        fd: Fd,
        /// Token of the backend side once the request was relayed.
        backend: Option<u64>,
    },
    /// A backend-facing (active) connection.
    Backend {
        sock: SockId,
        fd: Fd,
        /// Client token served, or [`IDLE_CLIENT`] when pooled.
        client: u64,
        request_sent: bool,
        /// Index into the edge tier's backend list (0 without edge).
        backend_idx: usize,
        /// Socket allocation generation at connect time. Teardown can
        /// free the slot and a later connect can reuse it before this
        /// conn's last epoll event drains; a bare [`SockId`] would then
        /// alias the stranger. All edge-tier liveness checks are
        /// generation-checked for exactly this reason.
        gen: u64,
    },
    /// An active health probe (edge tier only).
    Probe {
        sock: SockId,
        fd: Fd,
        backend_idx: usize,
        /// Socket generation at connect time (see [`Conn::Backend`]).
        gen: u64,
    },
}

/// Edge-tier view of one backend: health, pooled idle connections, and
/// the in-flight probe.
#[derive(Debug)]
struct EdgeBackend {
    ip: Ipv4Addr,
    health: HealthTracker,
    /// Tokens of pooled idle connections (most-recently-idled last).
    idle: Vec<u64>,
    /// Token of the in-flight health probe, if any.
    probe: Option<u64>,
}

/// One SNI-routed pool: member indices into the backend list plus the
/// smooth weighted round-robin scheduler over them.
#[derive(Debug)]
struct PoolState {
    members: Vec<usize>,
    weights: Vec<u32>,
    rr: WeightedRr,
}

/// A client request waiting out its backoff before re-dispatch.
#[derive(Debug)]
struct PendingRetry {
    due: Cycles,
    client: u64,
}

/// Where a client request currently stands in the routing state
/// machine: its pool, how many dispatch attempts it has burned, and
/// the backend the last attempt went to (for failover accounting).
#[derive(Debug, Clone, Copy)]
struct RouteState {
    pool: usize,
    attempt: u8,
    last_backend: usize,
}

/// The edge tier bolted onto a proxy worker by [`Proxy::with_edge`].
#[derive(Debug)]
struct EdgeState {
    cfg: EdgeConfig,
    rng: SimRng,
    backoff: BackoffPolicy,
    backends: Vec<EdgeBackend>,
    pools: Vec<PoolState>,
    /// Requests waiting out their backoff, released on ticks in
    /// insertion order (deterministic).
    retries: Vec<PendingRetry>,
    /// Routing state per live client token.
    route: HashMap<u64, RouteState>,
    counters: EdgeCounters,
}

/// One HAProxy-like worker process.
#[derive(Debug)]
pub struct Proxy {
    config: ProxyConfig,
    fds: FdTable<SockId>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    rr: usize,
    served: u64,
    /// Keep client connections open across requests (the client closes).
    keep_alive: bool,
    /// Bulk mode: backend responses stream in over many segments and
    /// are relayed chunk-by-chunk through the data plane; the client
    /// side closes when the backend's FIN arrives.
    bulk: bool,
    /// The edge tier, when armed via [`Proxy::with_edge`].
    edge: Option<EdgeState>,
    /// Backend connects that failed (port exhaustion).
    pub connect_failures: u64,
}

impl Proxy {
    /// Creates a worker.
    pub fn new(config: ProxyConfig) -> Self {
        Proxy {
            config,
            fds: FdTable::new(1 << 20),
            conns: HashMap::new(),
            next_token: 0,
            rr: 0,
            served: 0,
            keep_alive: false,
            bulk: false,
            edge: None,
            connect_failures: 0,
        }
    }

    /// Arms the edge tier (builder style): SNI-routed weighted pools,
    /// health checks, failover retries and connection pooling. `rng`
    /// must be a per-worker forked stream so retry jitter is
    /// deterministic per seed yet decorrelated across workers.
    pub fn with_edge(mut self, cfg: EdgeConfig, rng: SimRng) -> Self {
        cfg.validate();
        let union = cfg.union_backends();
        let backends: Vec<EdgeBackend> = union
            .iter()
            .map(|&ip| EdgeBackend {
                ip,
                health: HealthTracker::new(cfg.fail_threshold, cfg.success_threshold),
                idle: Vec::new(),
                probe: None,
            })
            .collect();
        let pools: Vec<PoolState> = cfg
            .pools
            .iter()
            .map(|p| {
                let members: Vec<usize> = p
                    .backends
                    .iter()
                    .map(|b| union.iter().position(|&ip| ip == b.ip).expect("union"))
                    .collect();
                let weights: Vec<u32> = p.backends.iter().map(|b| b.weight).collect();
                let rr = WeightedRr::new(members.len());
                PoolState {
                    members,
                    weights,
                    rr,
                }
            })
            .collect();
        let backoff = BackoffPolicy::new(cfg.retry_base, cfg.retry_cap_shift);
        self.edge = Some(EdgeState {
            cfg,
            rng,
            backoff,
            backends,
            pools,
            retries: Vec::new(),
            route: HashMap::new(),
            counters: EdgeCounters::default(),
        });
        self
    }

    /// Relays backend responses as streamed chunks through the data
    /// plane (builder style); requires `StackConfig::cc` to be armed.
    pub fn with_bulk(mut self, on: bool) -> Self {
        self.bulk = on;
        self
    }

    /// Serves multiple requests per client connection (builder style):
    /// after each relayed response the client side stays open and the
    /// next request opens a fresh backend connection.
    pub fn with_keep_alive(mut self, on: bool) -> Self {
        self.keep_alive = on;
        self
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn accept_loop(&mut self, sys: &mut Sys<'_>) {
        for _ in 0..self.config.accept_batch {
            let Some(sock) = sys.accept(self.config.port) else {
                break;
            };
            let fd = self.fds.alloc(sock).expect("fd limit");
            let token = self.token();
            sys.register(sock, token);
            self.conns.insert(
                token,
                Conn::Client {
                    sock,
                    fd,
                    backend: None,
                },
            );
            if sys.rx_pending(sock) > 0 {
                self.on_client_readable(sys, token);
            }
        }
        if sys.accept_ready(self.config.port) {
            sys.repoll_listen();
        }
    }

    fn on_client_readable(&mut self, sys: &mut Sys<'_>, token: u64) {
        let (sock, has_backend) = match self.conns.get(&token) {
            Some(Conn::Client { sock, backend, .. }) => (*sock, backend.is_some()),
            _ => return,
        };
        if !sys.alive(sock) {
            self.drop_conn(sys, token, false);
            return;
        }
        let bytes = sys.recv(sock);
        if bytes == 0 {
            if sys.peer_fin(sock) && !has_backend {
                // Client gave up before sending a request.
                self.drop_conn(sys, token, true);
            }
            return;
        }
        if has_backend {
            return; // pipelined bytes after the request: ignore
        }
        sys.work(self.config.app_work);
        if self.edge.is_some() {
            // SNI routing: the first payload's server-name token (the
            // per-connection flow hash — packets carry no bytes in the
            // model) selects the pool; dispatch picks the backend.
            let e = self.edge.as_mut().expect("edge armed");
            let pool = (sys.flow_hash(sock) % e.pools.len() as u64) as usize;
            e.route.insert(
                token,
                RouteState {
                    pool,
                    attempt: 0,
                    last_backend: usize::MAX,
                },
            );
            self.edge_dispatch(sys, token);
            return;
        }
        // Open the active connection to a backend.
        let dst = self.config.backends[self.rr % self.config.backends.len()];
        self.rr += 1;
        let Some(bsock) = sys.connect(dst, self.config.backend_port) else {
            self.connect_failures += 1;
            self.drop_conn(sys, token, true);
            return;
        };
        let bfd = self.fds.alloc(bsock).expect("fd limit");
        let btoken = self.token();
        sys.register(bsock, btoken);
        self.conns.insert(
            btoken,
            Conn::Backend {
                sock: bsock,
                fd: bfd,
                client: token,
                request_sent: false,
                backend_idx: 0,
                gen: sys.sock_gen(bsock),
            },
        );
        if let Some(Conn::Client { backend, .. }) = self.conns.get_mut(&token) {
            *backend = Some(btoken);
        }
    }

    /// Dispatches (or re-dispatches) a routed client request: picks a
    /// healthy backend from its pool by smooth weighted round-robin,
    /// reusing a pooled idle connection when one is available, else
    /// opening a fresh one. No healthy backend or a failed connect
    /// counts as an attempt and goes through the retry policy.
    fn edge_dispatch(&mut self, sys: &mut Sys<'_>, client: u64) {
        let e = self.edge.as_mut().expect("edge armed");
        let Some(route) = e.route.get(&client).copied() else {
            return; // client vanished while queued
        };
        let pool = &mut e.pools[route.pool];
        let healthy: Vec<bool> = pool
            .members
            .iter()
            .map(|&b| e.backends[b].health.is_up())
            .collect();
        let weights = pool.weights.clone();
        let Some(slot) = pool.rr.pick(&weights, &healthy) else {
            // Whole pool down: burn the attempt, back off, retry.
            self.edge_retry_or_lose(sys, client);
            return;
        };
        let bidx = pool.members[slot];
        if route.attempt > 0 && route.last_backend != bidx {
            e.counters.failed_over += 1;
        }
        if let Some(r) = e.route.get_mut(&client) {
            r.last_backend = bidx;
        }
        // Prefer a pooled idle connection (skipping any that died).
        while let Some(btoken) = self.edge.as_mut().expect("edge").backends[bidx].idle.pop() {
            let alive = match self.conns.get(&btoken) {
                Some(Conn::Backend { sock, gen, .. }) => sys.alive_gen(*sock, *gen),
                _ => false,
            };
            if !alive {
                self.drop_conn(sys, btoken, false);
                continue;
            }
            let Some(Conn::Backend {
                sock,
                client: owner,
                request_sent,
                ..
            }) = self.conns.get_mut(&btoken)
            else {
                unreachable!("checked above");
            };
            *owner = client;
            *request_sent = true;
            let bsock = *sock;
            let e = self.edge.as_mut().expect("edge");
            e.counters.reused_conns += 1;
            if let Some(Conn::Client { backend, .. }) = self.conns.get_mut(&client) {
                *backend = Some(btoken);
            }
            // Already established: the request goes out immediately.
            sys.send(bsock, self.config.request_len);
            return;
        }
        let ip = self.edge.as_ref().expect("edge").backends[bidx].ip;
        let Some(bsock) = sys.connect(ip, self.config.backend_port) else {
            self.connect_failures += 1;
            self.edge_retry_or_lose(sys, client);
            return;
        };
        let bfd = self.fds.alloc(bsock).expect("fd limit");
        let btoken = self.token();
        sys.register(bsock, btoken);
        self.conns.insert(
            btoken,
            Conn::Backend {
                sock: bsock,
                fd: bfd,
                client,
                request_sent: false,
                backend_idx: bidx,
                gen: sys.sock_gen(bsock),
            },
        );
        if let Some(Conn::Client { backend, .. }) = self.conns.get_mut(&client) {
            *backend = Some(btoken);
        }
    }

    /// One dispatch attempt failed: schedule a backoff-jittered retry
    /// if the client's budget allows, else count the request lost and
    /// drop the client connection (it will be reset by its timeout).
    fn edge_retry_or_lose(&mut self, sys: &mut Sys<'_>, client: u64) {
        let e = self.edge.as_mut().expect("edge armed");
        let Some(route) = e.route.get_mut(&client) else {
            return;
        };
        if route.attempt < e.cfg.retry_budget {
            let attempt = route.attempt;
            route.attempt += 1;
            let delay = e.backoff.delay(attempt, &mut e.rng);
            e.counters.retried += 1;
            e.retries.push(PendingRetry {
                due: sys.now() + delay,
                client,
            });
        } else {
            e.counters.lost += 1;
            self.drop_conn(sys, client, true);
        }
    }

    /// Passive health signal plus failover: a backend connection died
    /// under a live request. Marks the backend, then retries the
    /// client within its budget.
    fn edge_backend_failed(&mut self, sys: &mut Sys<'_>, btoken: u64) {
        let (client, bidx) = match self.conns.get(&btoken) {
            Some(Conn::Backend {
                client,
                backend_idx,
                ..
            }) => (*client, *backend_idx),
            _ => return,
        };
        let e = self.edge.as_mut().expect("edge armed");
        e.backends[bidx].health.on_failure();
        e.backends[bidx].idle.retain(|&t| t != btoken);
        self.drop_conn(sys, btoken, false);
        if client == IDLE_CLIENT {
            return; // a pooled conn died: nothing to retry
        }
        if let Some(Conn::Client { backend, .. }) = self.conns.get_mut(&client) {
            *backend = None;
        }
        self.edge_retry_or_lose(sys, client);
    }

    /// A request finished on a backend connection: either pool it for
    /// reuse (keep-alive backends, pooling armed) or close it.
    fn edge_release_backend(&mut self, sys: &mut Sys<'_>, btoken: u64) {
        let e = self.edge.as_mut().expect("edge armed");
        let cap = e.cfg.pooling as usize;
        let (bidx, alive) = match self.conns.get(&btoken) {
            Some(Conn::Backend {
                sock,
                backend_idx,
                gen,
                ..
            }) => (*backend_idx, sys.alive_gen(*sock, *gen)),
            _ => return,
        };
        let e = self.edge.as_mut().expect("edge");
        if cap > 0
            && alive
            && e.backends[bidx].idle.len() < cap
            && !e.backends[bidx].idle.contains(&btoken)
        {
            e.backends[bidx].idle.push(btoken);
            if let Some(Conn::Backend {
                client,
                request_sent,
                ..
            }) = self.conns.get_mut(&btoken)
            {
                *client = IDLE_CLIENT;
                *request_sent = false;
            }
        } else {
            self.drop_conn(sys, btoken, true);
        }
    }

    /// Handles an event on a health-probe connection: writability means
    /// the handshake completed (probe success); a torn-down socket
    /// means the backend refused or timed out (probe failure). The
    /// liveness check is generation-checked: a refused probe's error
    /// event can drain *after* the socket slot was reused by a fresh
    /// connection, and a bare slot check would mistake the stranger for
    /// a live probe and wedge the probe slot forever.
    fn on_probe_event(&mut self, sys: &mut Sys<'_>, token: u64, ev: &EpollEvent) {
        let (sock, bidx, gen) = match self.conns.get(&token) {
            Some(Conn::Probe {
                sock,
                backend_idx,
                gen,
                ..
            }) => (*sock, *backend_idx, *gen),
            _ => return,
        };
        if !sys.alive_gen(sock, gen) {
            let e = self.edge.as_mut().expect("edge armed");
            e.counters.probe_failures += 1;
            e.backends[bidx].health.on_failure();
            e.backends[bidx].probe = None;
            self.drop_conn(sys, token, false);
            return;
        }
        if ev.writable {
            let e = self.edge.as_mut().expect("edge armed");
            if e.backends[bidx].health.on_success() {
                e.counters.readmissions += 1;
            }
            e.backends[bidx].probe = None;
            self.drop_conn(sys, token, true);
        }
    }

    /// The edge tier's timed duties, run at the probe interval:
    /// release due retries (in insertion order) and launch one active
    /// probe per backend without one in flight.
    fn edge_tick(&mut self, sys: &mut Sys<'_>) {
        if self.edge.is_none() {
            return;
        }
        let now = sys.now();
        // Release due retries first: a re-dispatch may pick a backend
        // this tick's probes are about to re-admit — next tick's work.
        let due: Vec<u64> = {
            let e = self.edge.as_mut().expect("edge armed");
            let mut due = Vec::new();
            let mut keep = Vec::with_capacity(e.retries.len());
            for r in e.retries.drain(..) {
                if r.due <= now {
                    due.push(r.client);
                } else {
                    keep.push(r);
                }
            }
            e.retries = keep;
            due
        };
        for client in due {
            let live = matches!(
                self.conns.get(&client),
                Some(Conn::Client { sock, .. }) if sys.alive(*sock)
            );
            if live {
                self.edge_dispatch(sys, client);
            } else {
                // Client reset or timed out while we backed off.
                self.edge.as_mut().expect("edge").route.remove(&client);
            }
        }
        let n = self.edge.as_ref().expect("edge armed").backends.len();
        for bidx in 0..n {
            if self.edge.as_ref().expect("edge").backends[bidx]
                .probe
                .is_some()
            {
                continue;
            }
            let ip = self.edge.as_ref().expect("edge").backends[bidx].ip;
            let Some(psock) = sys.connect(ip, self.config.backend_port) else {
                continue; // ephemeral ports exhausted: skip this round
            };
            let pfd = self.fds.alloc(psock).expect("fd limit");
            let ptoken = self.token();
            sys.register(psock, ptoken);
            self.conns.insert(
                ptoken,
                Conn::Probe {
                    sock: psock,
                    fd: pfd,
                    backend_idx: bidx,
                    gen: sys.sock_gen(psock),
                },
            );
            let e = self.edge.as_mut().expect("edge");
            e.backends[bidx].probe = Some(ptoken);
            e.counters.probes_sent += 1;
        }
    }

    fn on_backend_event(&mut self, sys: &mut Sys<'_>, token: u64, ev: &EpollEvent) {
        let (sock, client, request_sent, gen) = match self.conns.get(&token) {
            Some(Conn::Backend {
                sock,
                client,
                request_sent,
                gen,
                ..
            }) => (*sock, *client, *request_sent, *gen),
            _ => return,
        };
        // Generation-checked in edge mode: a crashed backend's RST can
        // free the slot for reuse before this conn's error event drains
        // (see `on_probe_event`). The plain proxy keeps the bare check:
        // without error events a dead socket delivers nothing late.
        let alive = if self.edge.is_some() {
            sys.alive_gen(sock, gen)
        } else {
            sys.alive(sock)
        };
        if !alive {
            if self.edge.is_some() {
                // RST from a crashed backend, or retransmission gave
                // up: a passive health signal plus a failover retry.
                self.edge_backend_failed(sys, token);
            } else {
                self.drop_conn(sys, token, false);
            }
            return;
        }
        if ev.writable && !request_sent {
            // Connection to the backend established: forward the request.
            sys.send(sock, self.config.request_len);
            if let Some(Conn::Backend { request_sent, .. }) = self.conns.get_mut(&token) {
                *request_sent = true;
            }
        }
        if ev.readable && self.bulk {
            // Streamed relay: forward every drained chunk to the client
            // immediately; the response is done when the backend's FIN
            // arrives behind its last byte.
            let bytes = sys.recv(sock);
            if bytes > 0 {
                sys.work(self.config.app_work);
                let client_sock = match self.conns.get(&client) {
                    Some(Conn::Client { sock, .. }) => Some(*sock),
                    _ => None,
                };
                if let Some(cs) = client_sock {
                    sys.send_bulk(cs, bytes);
                }
            }
            if sys.peer_fin(sock) {
                self.served += 1;
                let client_sock = match self.conns.get(&client) {
                    Some(Conn::Client { sock, .. }) => Some(*sock),
                    _ => None,
                };
                if let Some(cs) = client_sock {
                    if self.keep_alive && !sys.peer_fin(cs) {
                        if let Some(Conn::Client { backend, .. }) = self.conns.get_mut(&client) {
                            *backend = None;
                        }
                    } else {
                        self.drop_conn(sys, client, true);
                    }
                }
                self.drop_conn(sys, token, true);
            }
            return;
        }
        if ev.readable {
            let bytes = sys.recv(sock);
            if bytes > 0 {
                // Relay the response to the client; without keep-alive
                // that side closes, with keep-alive it stays open for
                // the next request (which gets a fresh backend).
                sys.work(self.config.app_work);
                let client_sock = match self.conns.get(&client) {
                    Some(Conn::Client { sock, .. }) => Some(*sock),
                    _ => None,
                };
                if let Some(cs) = client_sock {
                    sys.send(cs, self.config.response_len);
                    self.served += 1;
                    if let Some(e) = &mut self.edge {
                        e.route.remove(&client); // request fulfilled
                    }
                    if self.keep_alive && !sys.peer_fin(cs) {
                        if let Some(Conn::Client { backend, .. }) = self.conns.get_mut(&client) {
                            *backend = None;
                        }
                    } else {
                        self.drop_conn(sys, client, true);
                    }
                }
                if self.edge.is_some() && !sys.peer_fin(sock) {
                    // Keep-alive backend: no FIN follows the response —
                    // pool the connection (or close it) right away.
                    self.edge_release_backend(sys, token);
                    return;
                }
            }
            if sys.peer_fin(sock) {
                // Backend closed after responding; close our side too.
                self.drop_conn(sys, token, true);
            }
        }
    }

    /// Removes a connection; `close` additionally issues the `close()`
    /// syscall (skipped when the socket was already reset). Edge-tier
    /// bookkeeping (routes, idle pools, probe slots) is scrubbed of the
    /// dropped token.
    fn drop_conn(&mut self, sys: &mut Sys<'_>, token: u64, close: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            let (sock, fd, gen) = match conn {
                Conn::Client { sock, fd, .. } => {
                    if let Some(e) = &mut self.edge {
                        e.route.remove(&token);
                    }
                    (sock, fd, None)
                }
                Conn::Backend {
                    sock,
                    fd,
                    backend_idx,
                    gen,
                    ..
                } => {
                    if let Some(e) = &mut self.edge {
                        e.backends[backend_idx].idle.retain(|&t| t != token);
                    }
                    (sock, fd, Some(gen))
                }
                Conn::Probe {
                    sock,
                    fd,
                    backend_idx,
                    gen,
                } => {
                    if let Some(e) = &mut self.edge {
                        if e.backends[backend_idx].probe == Some(token) {
                            e.backends[backend_idx].probe = None;
                        }
                    }
                    (sock, fd, Some(gen))
                }
            };
            // A gen-carrying conn must never close a reused slot: the
            // socket living there now belongs to someone else.
            if close && gen.map_or_else(|| sys.alive(sock), |g| sys.alive_gen(sock, g)) {
                sys.close(sock);
            }
            let _ = self.fds.close(fd);
        }
    }
}

impl Worker for Proxy {
    fn on_events(&mut self, sys: &mut Sys<'_>, events: &[EpollEvent]) {
        for ev in events {
            if ev.data == LISTEN_TOKEN {
                self.accept_loop(sys);
                continue;
            }
            match self.conns.get(&ev.data) {
                Some(Conn::Client { .. }) if ev.readable => {
                    self.on_client_readable(sys, ev.data);
                }
                Some(Conn::Backend { .. }) => self.on_backend_event(sys, ev.data, ev),
                Some(Conn::Probe { .. }) => self.on_probe_event(sys, ev.data, ev),
                _ => {} // client write-readiness, or a stale token
            }
        }
    }

    fn on_tick(&mut self, sys: &mut Sys<'_>) {
        self.edge_tick(sys);
    }

    fn edge_counters(&self) -> Option<EdgeCounters> {
        self.edge.as_ref().map(|e| e.counters)
    }

    fn open_conns(&self) -> usize {
        self.conns.len()
    }

    fn served(&self) -> u64 {
        self.served
    }
}
