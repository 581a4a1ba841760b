//! The nginx-like web server worker.
//!
//! Short-lived HTTP/1.0 service: accept, read the one-packet request,
//! write the one-packet response, close. The paper's nginx benchmark
//! serves a 64-byte in-memory file; request parsing and response
//! building are pure user-level cycles.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sim_core::Cycles;
use sim_os::epoll::EpollEvent;
use sim_os::fdtable::{Fd, FdTable};
use tcp_stack::SockId;

use crate::sys::{Sys, Worker, LISTEN_TOKEN};

/// Web-server tuning.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WebConfig {
    /// Service port.
    pub port: u16,
    /// Response payload length.
    pub response_len: u16,
    /// User-level cycles to parse a request and build a response.
    pub app_work: Cycles,
    /// Maximum connections accepted per listen-readable event.
    pub accept_batch: u32,
    /// HTTP keep-alive: serve multiple requests per connection and let
    /// the client close. The paper's benchmarks disable this.
    pub keep_alive: bool,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            port: 80,
            response_len: 1_200,
            app_work: 24_000,
            accept_batch: 4,
            keep_alive: false,
        }
    }
}

#[derive(Debug)]
struct Conn {
    sock: SockId,
    fd: Fd,
}

/// One nginx-like worker process.
#[derive(Debug)]
pub struct WebServer {
    config: WebConfig,
    fds: FdTable<SockId>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    served: u64,
    /// Bulk mode: stream responses of this many bytes through the
    /// sliding-window data plane instead of one-packet sends.
    bulk: Option<u32>,
}

impl WebServer {
    /// Creates a worker.
    pub fn new(config: WebConfig) -> Self {
        WebServer {
            config,
            fds: FdTable::new(1 << 20),
            conns: HashMap::new(),
            next_token: 0,
            served: 0,
            bulk: None,
        }
    }

    /// Streams `response_bytes`-sized responses through the data plane
    /// (builder style); requires `StackConfig::cc` to be armed.
    pub fn with_bulk(mut self, response_bytes: u32) -> Self {
        self.bulk = Some(response_bytes);
        self
    }

    fn accept_loop(&mut self, sys: &mut Sys<'_>) {
        for _ in 0..self.config.accept_batch {
            let Some(sock) = sys.accept(self.config.port) else {
                break;
            };
            let fd = self.fds.alloc(sock).expect("fd limit");
            let token = self.next_token;
            self.next_token += 1;
            sys.register(sock, token);
            self.conns.insert(token, Conn { sock, fd });
            // Level-triggered: the request may already be buffered.
            if sys.rx_pending(sock) > 0 {
                self.serve(sys, token);
            }
        }
        // Level-triggered: if the queue still has connections after a
        // budgeted batch, re-arm our own readiness event.
        if sys.accept_ready(self.config.port) {
            sys.repoll_listen();
        }
    }

    fn serve(&mut self, sys: &mut Sys<'_>, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let sock = conn.sock;
        let bytes = sys.recv(sock);
        if bytes == 0 {
            if sys.peer_fin(sock) {
                // Keep-alive client finished (or the client went away
                // before sending a request): close our side.
                self.teardown(sys, token);
            }
            return;
        }
        // One request per readable event: the closed-loop client sends
        // the next request only after the previous response.
        let _ = bytes;
        sys.work(self.config.app_work);
        match self.bulk {
            Some(resp) => sys.send_bulk(sock, resp),
            None => sys.send(sock, self.config.response_len),
        }
        self.served += 1;
        if self.config.keep_alive {
            if sys.peer_fin(sock) {
                self.teardown(sys, token);
            }
        } else {
            self.teardown(sys, token);
        }
    }

    fn teardown(&mut self, sys: &mut Sys<'_>, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            sys.close(conn.sock);
            let _ = self.fds.close(conn.fd);
        }
    }
}

impl Worker for WebServer {
    fn on_events(&mut self, sys: &mut Sys<'_>, events: &[EpollEvent]) {
        for ev in events {
            if ev.data == LISTEN_TOKEN {
                self.accept_loop(sys);
            } else if ev.readable {
                // The connection may already be gone (served + closed
                // earlier in this same batch).
                if let Some(conn) = self.conns.get(&ev.data) {
                    if sys.alive(conn.sock) {
                        self.serve(sys, ev.data);
                    } else {
                        let token = ev.data;
                        if let Some(c) = self.conns.remove(&token) {
                            let _ = self.fds.close(c.fd);
                        }
                    }
                }
            }
        }
    }

    fn open_conns(&self) -> usize {
        self.conns.len()
    }

    fn served(&self) -> u64 {
        self.served
    }
}
