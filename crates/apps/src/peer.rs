//! Scripted remote endpoints: the closed-loop client (`http_load`) and
//! the backend HTTP server.
//!
//! The paper saturates the server under test with Fastsocket-enabled
//! clients and backends ("we have to deploy Fastsocket on the clients
//! and backend servers to increase their throughput to the same
//! level"); accordingly, peers here are infinitely fast — they cost no
//! simulated CPU, only wire latency — but follow exact TCP sequencing.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use sim_net::{FlowTuple, Packet, TcpFlags};

/// A closed-loop client slot: runs one short-lived connection at a
/// time, immediately starting the next when one completes.
#[derive(Debug)]
pub struct ClientSlot {
    ip: Ipv4Addr,
    server_ip: Ipv4Addr,
    server_port: u16,
    request_len: u16,
    /// Requests issued per connection (HTTP keep-alive when > 1).
    requests_per_conn: u32,
    requests_left: u32,
    /// Whether this side closes first after the last response. True
    /// whenever the server runs keep-alive (it waits for our FIN);
    /// false for HTTP/1.0 servers, which close after one response.
    client_closes: bool,
    /// The request in flight, kept for retransmission when the server's
    /// duplicate SYN-ACK reveals our ACK/request was lost.
    inflight_request: Option<Packet>,
    next_port: u16,
    state: ClientState,
    flow: FlowTuple,
    snd_nxt: u32,
    rcv_nxt: u32,
    /// Completed connections.
    pub completed: u64,
    /// Responses received (= requests served), across all connections.
    pub responses: u64,
    /// Connections aborted by RST.
    pub resets: u64,
    /// Long-lived mode: after the last response the slot parks in
    /// `Holding` with the connection open instead of closing; the
    /// driver releases the hold later (WebSocket-like sessions).
    hold: bool,
    /// Set when the slot just entered `Holding`; the driver consumes it
    /// via [`ClientSlot::take_hold_started`] to schedule the release.
    hold_started: bool,
    /// Bulk mode: expected response size in bytes. The slot then ACKs
    /// every in-order data segment (the server's ACK clock), echoes ECN
    /// marks, dup-ACKs on gaps, and counts a response complete only
    /// once all its bytes arrived.
    bulk: Option<u32>,
    /// Bytes of the current response still outstanding (bulk mode).
    resp_remaining: u32,
    /// Response payload bytes received across all connections (bulk
    /// goodput accounting).
    pub bytes_received: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    Idle,
    SynSent,
    AwaitResponse,
    /// Server closed first (no keep-alive); we FIN'd back and await the
    /// final ACK.
    AwaitFinalAck,
    /// We closed first (keep-alive); awaiting the server's FIN.
    Closing,
    /// Long-lived session: all responses received, connection parked
    /// open until the driver releases the hold (sends our FIN).
    Holding,
}

impl ClientSlot {
    /// Creates a slot with its own client IP, issuing
    /// `requests_per_conn` request/response rounds per connection.
    pub fn new(
        ip: Ipv4Addr,
        server_ip: Ipv4Addr,
        server_port: u16,
        request_len: u16,
        requests_per_conn: u32,
    ) -> Self {
        assert!(
            requests_per_conn >= 1,
            "a connection carries at least one request"
        );
        ClientSlot {
            ip,
            server_ip,
            server_port,
            request_len,
            requests_per_conn,
            requests_left: 0,
            client_closes: requests_per_conn > 1,
            hold: false,
            hold_started: false,
            inflight_request: None,
            next_port: 1_025,
            state: ClientState::Idle,
            flow: FlowTuple::new(ip, 0, server_ip, server_port),
            snd_nxt: 0,
            rcv_nxt: 0,
            completed: 0,
            responses: 0,
            resets: 0,
            bulk: None,
            resp_remaining: 0,
            bytes_received: 0,
        }
    }

    /// Switches the slot to bulk mode (builder style): responses are
    /// `response_bytes` long, streamed over many segments.
    pub fn with_bulk(mut self, response_bytes: u32) -> Self {
        self.bulk = Some(response_bytes);
        self
    }

    /// Starts a new connection, returning the SYN to send.
    ///
    /// # Panics
    ///
    /// Panics if a connection is already in flight.
    pub fn start(&mut self, isn: u32) -> Packet {
        assert_eq!(self.state, ClientState::Idle, "connection already active");
        let port = self.next_port;
        self.next_port = if self.next_port >= 60_999 {
            1_025
        } else {
            self.next_port + 1
        };
        self.flow = FlowTuple::new(self.ip, port, self.server_ip, self.server_port);
        self.snd_nxt = isn.wrapping_add(1);
        self.rcv_nxt = 0;
        self.requests_left = self.requests_per_conn;
        self.inflight_request = None;
        self.hold_started = false;
        self.state = ClientState::SynSent;
        Packet::new(self.flow, TcpFlags::SYN).with_seq(isn)
    }

    /// Whether the slot is between connections.
    pub fn idle(&self) -> bool {
        self.state == ClientState::Idle
    }

    /// Reprofiles the slot for its next connection (an open-loop
    /// arrival picks its session length: the workload's, or the
    /// long-lived mix's). Must be called between connections;
    /// `client_closes` decides who FINs first after the last response
    /// (see the field on [`ClientSlot`]).
    ///
    /// # Panics
    ///
    /// Panics if a connection is in flight or `requests_per_conn == 0`.
    pub fn set_session(&mut self, requests_per_conn: u32, client_closes: bool) {
        assert_eq!(self.state, ClientState::Idle, "connection already active");
        assert!(
            requests_per_conn >= 1,
            "a connection carries at least one request"
        );
        self.requests_per_conn = requests_per_conn;
        self.client_closes = client_closes;
    }

    /// Arms or disarms the long-lived hold for the next session (the
    /// open-loop long-lived mix). With the hold armed the slot parks
    /// in `Holding` after its last response instead of closing.
    ///
    /// # Panics
    ///
    /// Panics if a connection is in flight.
    pub fn set_hold(&mut self, on: bool) {
        assert_eq!(self.state, ClientState::Idle, "connection already active");
        self.hold = on;
    }

    /// Whether the slot just parked into its idle hold. Edge-triggered:
    /// reading clears the flag, so the driver schedules exactly one
    /// release per hold.
    pub fn take_hold_started(&mut self) -> bool {
        std::mem::take(&mut self.hold_started)
    }

    /// Ends the idle hold: appends the deferred FIN to `out` and moves
    /// to `Closing`. Returns `false` (sending nothing) when the
    /// connection already ended some other way (reset, abort).
    pub fn release_hold(&mut self, out: &mut Vec<Packet>) -> bool {
        if self.state != ClientState::Holding {
            return false;
        }
        out.push(
            Packet::new(self.flow, TcpFlags::FIN | TcpFlags::ACK)
                .with_seq(self.snd_nxt)
                .with_ack(self.rcv_nxt),
        );
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.state = ClientState::Closing;
        true
    }

    /// Aborts the in-flight connection (client-side timeout). Returns
    /// an RST to send so the server can reclaim its state, or `None`
    /// when the slot was idle.
    pub fn abort(&mut self) -> Option<Packet> {
        if self.state == ClientState::Idle {
            return None;
        }
        self.state = ClientState::Idle;
        Some(Packet::new(self.flow, TcpFlags::RST).with_seq(self.snd_nxt))
    }

    /// The flow of the connection in flight (client perspective).
    pub fn flow(&self) -> FlowTuple {
        self.flow
    }

    fn request(&mut self) -> Packet {
        let p = Packet::new(self.flow, TcpFlags::PSH | TcpFlags::ACK)
            .with_seq(self.snd_nxt)
            .with_ack(self.rcv_nxt)
            .with_payload(self.request_len);
        self.snd_nxt = self.snd_nxt.wrapping_add(u32::from(self.request_len));
        self.inflight_request = Some(p);
        self.resp_remaining = self.bulk.unwrap_or(0);
        p
    }

    fn fin_ack_resend(&self) -> Packet {
        // Our FIN (already counted in snd_nxt) retransmitted.
        Packet::new(self.flow, TcpFlags::FIN | TcpFlags::ACK)
            .with_seq(self.snd_nxt.wrapping_sub(1))
            .with_ack(self.rcv_nxt)
    }

    /// Client-side retransmission: called by the driver when the
    /// connection has made no progress for a while. Resends whatever
    /// the slot is waiting on (its own last transmission may have been
    /// lost). Returns nothing when idle.
    pub fn nudge(&mut self, out: &mut Vec<Packet>) {
        match self.state {
            ClientState::Idle => {}
            ClientState::SynSent => {
                // Our SYN may have been lost.
                out.push(
                    Packet::new(self.flow, TcpFlags::SYN).with_seq(self.snd_nxt.wrapping_sub(1)),
                );
            }
            ClientState::AwaitResponse => {
                // The handshake ACK and/or request may have been lost.
                out.push(
                    Packet::new(self.flow, TcpFlags::ACK)
                        .with_seq(self.snd_nxt.wrapping_sub(u32::from(self.request_len)))
                        .with_ack(self.rcv_nxt),
                );
                if let Some(req) = self.inflight_request {
                    out.push(req);
                }
            }
            ClientState::AwaitFinalAck | ClientState::Closing => {
                out.push(self.fin_ack_resend());
            }
            // Nothing of ours is in flight during the hold.
            ClientState::Holding => {}
        }
    }

    /// Handles a packet from the server. Replies are appended to
    /// `out`; returns `true` when the connection just completed (the
    /// driver should schedule the next `start`).
    pub fn on_packet(&mut self, pkt: &Packet, out: &mut Vec<Packet>) -> bool {
        debug_assert_eq!(pkt.flow.reversed(), self.flow, "packet for wrong slot");
        if pkt.flags.rst() {
            self.resets += 1;
            self.state = ClientState::Idle;
            return true;
        }
        match self.state {
            ClientState::Idle => false,
            ClientState::SynSent => {
                if pkt.flags.syn() && pkt.flags.ack() {
                    debug_assert_eq!(pkt.ack, self.snd_nxt);
                    self.rcv_nxt = pkt.seq.wrapping_add(1);
                    // Handshake ACK, then the first request immediately.
                    out.push(
                        Packet::new(self.flow, TcpFlags::ACK)
                            .with_seq(self.snd_nxt)
                            .with_ack(self.rcv_nxt),
                    );
                    out.push(self.request());
                    self.state = ClientState::AwaitResponse;
                }
                false
            }
            ClientState::AwaitResponse => {
                if pkt.flags.syn() {
                    // Duplicate SYN-ACK: our handshake ACK and request
                    // were lost — resend both.
                    out.push(
                        Packet::new(self.flow, TcpFlags::ACK)
                            .with_seq(self.snd_nxt.wrapping_sub(u32::from(self.request_len)))
                            .with_ack(self.rcv_nxt),
                    );
                    if let Some(req) = self.inflight_request {
                        out.push(req);
                    }
                    return false;
                }
                if pkt.seq_len() > 0 && pkt.seq != self.rcv_nxt {
                    if self.bulk.is_some() {
                        // A gap (a segment ahead of this one was lost)
                        // or a duplicate: re-ACK the hole so the
                        // server's dup-ACK counter can trip fast
                        // retransmit.
                        out.push(
                            Packet::new(self.flow, TcpFlags::ACK)
                                .with_seq(self.snd_nxt)
                                .with_ack(self.rcv_nxt),
                        );
                    }
                    // Stale duplicate (the server's RTO fired while the
                    // original was in flight): ignore.
                    return false;
                }
                self.rcv_nxt = self.rcv_nxt.wrapping_add(pkt.seq_len());
                if pkt.payload_len > 0 {
                    let complete = match self.bulk {
                        Some(_) => {
                            // Bulk: one segment of many. ACK it (the
                            // sender's ACK clock), echoing a CE mark as
                            // ECE so the congestion controller sees it.
                            self.bytes_received += u64::from(pkt.payload_len);
                            self.resp_remaining = self
                                .resp_remaining
                                .saturating_sub(u32::from(pkt.payload_len));
                            let flags = if pkt.flags.ce() {
                                TcpFlags::ACK | TcpFlags::ECE
                            } else {
                                TcpFlags::ACK
                            };
                            out.push(
                                Packet::new(self.flow, flags)
                                    .with_seq(self.snd_nxt)
                                    .with_ack(self.rcv_nxt),
                            );
                            self.resp_remaining == 0
                        }
                        // One response per packet.
                        None => true,
                    };
                    if complete {
                        self.responses += 1;
                        self.requests_left = self.requests_left.saturating_sub(1);
                        if self.requests_left > 0 {
                            // Keep-alive: next request on the same connection.
                            out.push(self.request());
                            return false;
                        }
                        if self.client_closes && !pkt.flags.fin() {
                            if self.hold {
                                // Long-lived: park with the connection
                                // open; the driver sends the FIN when
                                // the hold expires. ACK the response
                                // first (the bulk path just did), or
                                // the server's RTO resends it for the
                                // whole hold.
                                if self.bulk.is_none() {
                                    out.push(
                                        Packet::new(self.flow, TcpFlags::ACK)
                                            .with_seq(self.snd_nxt)
                                            .with_ack(self.rcv_nxt),
                                    );
                                }
                                self.hold_started = true;
                                self.state = ClientState::Holding;
                                return false;
                            }
                            // Keep-alive done: the client closes first.
                            out.push(
                                Packet::new(self.flow, TcpFlags::FIN | TcpFlags::ACK)
                                    .with_seq(self.snd_nxt)
                                    .with_ack(self.rcv_nxt),
                            );
                            self.snd_nxt = self.snd_nxt.wrapping_add(1);
                            self.state = ClientState::Closing;
                            return false;
                        }
                    }
                }
                if pkt.flags.fin() {
                    // Server closed first (HTTP/1.0): FIN back and wait
                    // for the final ACK (delayed-ACK coalescing).
                    out.push(
                        Packet::new(self.flow, TcpFlags::FIN | TcpFlags::ACK)
                            .with_seq(self.snd_nxt)
                            .with_ack(self.rcv_nxt),
                    );
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.state = ClientState::AwaitFinalAck;
                }
                false
            }
            ClientState::AwaitFinalAck => {
                if pkt.flags.fin() {
                    // The server re-sent its FIN: our FIN+ACK was lost.
                    out.push(self.fin_ack_resend());
                    return false;
                }
                if pkt.flags.ack() && pkt.ack == self.snd_nxt {
                    self.completed += 1;
                    self.state = ClientState::Idle;
                    true
                } else {
                    false
                }
            }
            ClientState::Holding => {
                if pkt.seq_len() > 0 && pkt.seq != self.rcv_nxt {
                    // A retransmitted response: our ACK was lost —
                    // re-ACK it and stay parked.
                    out.push(
                        Packet::new(self.flow, TcpFlags::ACK)
                            .with_seq(self.snd_nxt)
                            .with_ack(self.rcv_nxt),
                    );
                    return false;
                }
                if pkt.flags.fin() {
                    // The server closed under our hold (shutdown or an
                    // orphan kill): FIN back and finish normally.
                    self.rcv_nxt = self.rcv_nxt.wrapping_add(pkt.seq_len());
                    out.push(
                        Packet::new(self.flow, TcpFlags::FIN | TcpFlags::ACK)
                            .with_seq(self.snd_nxt)
                            .with_ack(self.rcv_nxt),
                    );
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.state = ClientState::AwaitFinalAck;
                }
                false
            }
            ClientState::Closing => {
                if pkt.seq_len() > 0 && pkt.seq != self.rcv_nxt {
                    // Duplicate data: our FIN was lost — resend it.
                    out.push(self.fin_ack_resend());
                    return false;
                }
                self.rcv_nxt = self.rcv_nxt.wrapping_add(pkt.seq_len());
                if pkt.flags.fin() {
                    // The server's FIN (LAST_ACK side): acknowledge it
                    // and the connection is done.
                    out.push(
                        Packet::new(self.flow, TcpFlags::ACK)
                            .with_seq(self.snd_nxt)
                            .with_ack(self.rcv_nxt),
                    );
                    self.completed += 1;
                    self.state = ClientState::Idle;
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[derive(Debug)]
struct BackendConn {
    snd_nxt: u32,
    rcv_nxt: u32,
    established: bool,
    fin_sent: bool,
    /// In-flight bulk response (bulk mode only).
    bulk: Option<BulkSend>,
}

/// A sliding-window bulk response in flight from the backend: the
/// scripted peer paces itself by the proxy's advertised window (carried
/// on every ACK the proxy's stack emits), so it never overruns the
/// proxy's receive budget. The backend LAN is lossless and in-order, so
/// no retransmission state is needed.
#[derive(Debug)]
struct BulkSend {
    /// Sequence number of the response's first byte.
    base: u32,
    /// Total response bytes.
    total: u32,
    /// Bytes sent so far (offset past `base`).
    sent: u32,
    /// Bytes the proxy has cumulatively ACKed (offset past `base`).
    una: u32,
    /// The proxy's advertised receive window, from its last ACK.
    peer_wnd: u32,
}

/// A scripted backend HTTP/1.0 server: accepts connections, answers
/// each one-packet request with a response and a FIN (the backend
/// closes first, so the proxy side avoids TIME_WAIT on its active
/// connections).
#[derive(Debug)]
pub struct Backend {
    ip: Ipv4Addr,
    port: u16,
    response_len: u16,
    conns: HashMap<FlowTuple, BackendConn>,
    /// Bulk mode: `(response_bytes, mss)` — responses stream as MSS
    /// segments paced by the proxy's advertised window.
    bulk: Option<(u32, u16)>,
    /// Keep-alive mode: respond without a FIN so the proxy can pool
    /// the connection for later requests.
    keep_alive: bool,
    /// Crashed: every arriving segment is answered with RST, exactly
    /// what a host whose process died does to live connections.
    down: bool,
    /// Requests served.
    pub served: u64,
}

impl Backend {
    /// Creates a backend at `ip:port`.
    pub fn new(ip: Ipv4Addr, port: u16, response_len: u16) -> Self {
        Backend {
            ip,
            port,
            response_len,
            conns: HashMap::new(),
            bulk: None,
            keep_alive: false,
            down: false,
            served: 0,
        }
    }

    /// Switches the backend to bulk mode (builder style): each request
    /// is answered with `response_bytes` streamed in `mss`-sized
    /// segments, flow-controlled by the proxy's advertised window.
    pub fn with_bulk(mut self, response_bytes: u32, mss: u16) -> Self {
        self.bulk = Some((response_bytes, mss));
        self
    }

    /// Switches the backend to keep-alive mode (builder style):
    /// responses carry no FIN and the connection stays open for the
    /// proxy's next pooled request; the proxy closes first.
    pub fn with_keep_alive(mut self, on: bool) -> Self {
        self.keep_alive = on;
        self
    }

    /// Crashes the backend: all connection state is lost and every
    /// subsequent segment (including new SYNs) is answered with RST
    /// until [`heal`](Self::heal).
    pub fn crash(&mut self) {
        self.down = true;
        self.conns.clear();
    }

    /// Restores a crashed backend. Its conn table starts empty — the
    /// proxy's health checker decides when it re-enters rotation.
    pub fn heal(&mut self) {
        self.down = false;
    }

    /// Whether the backend is currently crashed.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Sends whatever the flow-control window currently allows of a
    /// bulk response, followed by the FIN once everything is out.
    fn push_bulk(conn: &mut BackendConn, lflow: FlowTuple, mss: u16, out: &mut Vec<Packet>) {
        let Some(b) = &mut conn.bulk else {
            return;
        };
        while b.sent < b.total {
            let inflight = b.sent - b.una;
            let usable = b.peer_wnd.saturating_sub(inflight);
            let seg = (b.total - b.sent).min(u32::from(mss)).min(usable);
            if seg == 0 {
                return; // window closed: resume on the next ACK
            }
            out.push(
                Packet::new(lflow, TcpFlags::PSH | TcpFlags::ACK)
                    .with_seq(b.base.wrapping_add(b.sent))
                    .with_ack(conn.rcv_nxt)
                    .with_payload(seg as u16),
            );
            b.sent += seg;
            conn.snd_nxt = conn.snd_nxt.wrapping_add(seg);
        }
        // Everything queued for the wire: the FIN rides right behind
        // the last segment (HTTP/1.0 close).
        out.push(
            Packet::new(lflow, TcpFlags::FIN | TcpFlags::ACK)
                .with_seq(conn.snd_nxt)
                .with_ack(conn.rcv_nxt),
        );
        conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
        conn.fin_sent = true;
        conn.bulk = None;
    }

    /// The backend's address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Handles a packet from the proxy, appending replies to `out`.
    pub fn on_packet(&mut self, pkt: &Packet, isn: u32, out: &mut Vec<Packet>) {
        debug_assert_eq!(pkt.flow.dst_ip, self.ip);
        debug_assert_eq!(pkt.flow.dst_port, self.port);
        let lflow = pkt.flow.reversed();
        if self.down {
            // A crashed host: no listener, no connection state. RFC
            // 9293-style refusal — RST seq'd at the peer's ACK so the
            // proxy's stack accepts it in SYN_SENT and ESTABLISHED
            // alike (nothing answers an RST with an RST).
            if !pkt.flags.rst() {
                out.push(
                    Packet::new(lflow, TcpFlags::RST)
                        .with_seq(pkt.ack)
                        .with_ack(pkt.seq.wrapping_add(pkt.seq_len())),
                );
            }
            return;
        }
        if pkt.flags.syn() && !pkt.flags.ack() {
            let conn = BackendConn {
                snd_nxt: isn.wrapping_add(1),
                rcv_nxt: pkt.seq.wrapping_add(1),
                established: false,
                fin_sent: false,
                bulk: None,
            };
            self.conns.insert(lflow, conn);
            out.push(
                Packet::new(lflow, TcpFlags::SYN | TcpFlags::ACK)
                    .with_seq(isn)
                    .with_ack(pkt.seq.wrapping_add(1)),
            );
            return;
        }
        let Some(conn) = self.conns.get_mut(&lflow) else {
            return; // stray segment for a finished connection
        };
        if pkt.flags.rst() {
            self.conns.remove(&lflow);
            return;
        }
        if pkt.seq_len() > 0 && pkt.seq != conn.rcv_nxt {
            // A retransmission (the proxy's RTO fired before our
            // response/ACK made it back). Serving it again would
            // duplicate the response — fatal for a pooled keep-alive
            // connection, where the stray response reaches whichever
            // client owns the conn by then. Re-ACK the cumulative
            // point to quench the retransmit timer and drop it.
            out.push(
                Packet::new(lflow, TcpFlags::ACK)
                    .with_seq(conn.snd_nxt)
                    .with_ack(conn.rcv_nxt),
            );
            return;
        }
        conn.rcv_nxt = conn.rcv_nxt.wrapping_add(pkt.seq_len());
        if !conn.established && pkt.flags.ack() {
            conn.established = true;
        }
        if let Some(b) = &mut conn.bulk {
            // Mid-transfer ACK from the proxy: advance the cumulative
            // ACK point, refresh the advertised window, and send more.
            if pkt.flags.ack() {
                let off = pkt.ack.wrapping_sub(b.base);
                if off <= b.sent {
                    b.una = b.una.max(off);
                }
                b.peer_wnd = u32::from(pkt.wnd);
                Self::push_bulk(conn, lflow, self.bulk.map_or(1_448, |(_, m)| m), out);
            }
        } else if pkt.payload_len > 0 && !conn.fin_sent {
            match self.bulk {
                Some((total, mss)) => {
                    // The request: stream the bulk response, windowed.
                    conn.bulk = Some(BulkSend {
                        base: conn.snd_nxt,
                        total,
                        sent: 0,
                        una: 0,
                        peer_wnd: u32::from(pkt.wnd),
                    });
                    self.served += 1;
                    Self::push_bulk(conn, lflow, mss, out);
                }
                None => {
                    // The request: answer with the response, followed
                    // by a FIN (HTTP/1.0 close) unless keep-alive keeps
                    // the connection open for the proxy's next request.
                    out.push(
                        Packet::new(lflow, TcpFlags::PSH | TcpFlags::ACK)
                            .with_seq(conn.snd_nxt)
                            .with_ack(conn.rcv_nxt)
                            .with_payload(self.response_len),
                    );
                    conn.snd_nxt = conn.snd_nxt.wrapping_add(u32::from(self.response_len));
                    if !self.keep_alive {
                        out.push(
                            Packet::new(lflow, TcpFlags::FIN | TcpFlags::ACK)
                                .with_seq(conn.snd_nxt)
                                .with_ack(conn.rcv_nxt),
                        );
                        conn.snd_nxt = conn.snd_nxt.wrapping_add(1);
                        conn.fin_sent = true;
                    }
                    self.served += 1;
                }
            }
        }
        if pkt.flags.fin() {
            if conn.fin_sent {
                // The proxy's FIN (LAST_ACK side): acknowledge, forget.
                out.push(
                    Packet::new(lflow, TcpFlags::ACK)
                        .with_seq(conn.snd_nxt)
                        .with_ack(conn.rcv_nxt),
                );
            } else {
                // The proxy closed first (a pooled keep-alive conn, or
                // a probe): close our side with the acknowledging FIN.
                out.push(
                    Packet::new(lflow, TcpFlags::FIN | TcpFlags::ACK)
                        .with_seq(conn.snd_nxt)
                        .with_ack(conn.rcv_nxt),
                );
            }
            self.conns.remove(&lflow);
        }
    }

    /// Connections currently tracked.
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);
    const BACKEND: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

    #[test]
    fn client_slot_runs_full_exchange() {
        let mut slot = ClientSlot::new(CLIENT, SERVER, 80, 600, 1);
        let syn = slot.start(100);
        assert!(syn.flags.syn());
        assert!(!slot.idle());

        // Server SYN-ACK -> client sends ACK + request.
        let synack = Packet::new(syn.flow.reversed(), TcpFlags::SYN | TcpFlags::ACK)
            .with_seq(500)
            .with_ack(101);
        let mut out = Vec::new();
        assert!(!slot.on_packet(&synack, &mut out));
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].payload_len, 600);

        // Server ACKs the request (ignored), sends response, FIN.
        out.clear();
        let resp = Packet::new(syn.flow.reversed(), TcpFlags::PSH | TcpFlags::ACK)
            .with_seq(501)
            .with_ack(701)
            .with_payload(1_200);
        slot.on_packet(&resp, &mut out);
        assert!(out.is_empty(), "delayed ACK: no reply to data alone");
        let fin = Packet::new(syn.flow.reversed(), TcpFlags::FIN | TcpFlags::ACK)
            .with_seq(1_701)
            .with_ack(701);
        slot.on_packet(&fin, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.fin() && out[0].flags.ack());
        assert_eq!(out[0].ack, 1_702, "acks response + FIN");

        // Server's final ACK completes the exchange.
        let last = Packet::new(syn.flow.reversed(), TcpFlags::ACK)
            .with_seq(1_702)
            .with_ack(out[0].seq.wrapping_add(1));
        assert!(slot.on_packet(&last, &mut Vec::new()));
        assert_eq!(slot.completed, 1);
        assert!(slot.idle());
    }

    #[test]
    fn client_hold_parks_then_releases_fin() {
        let mut slot = ClientSlot::new(CLIENT, SERVER, 80, 600, 1);
        slot.set_session(1, true);
        slot.set_hold(true);
        let syn = slot.start(100);
        let rev = syn.flow.reversed();
        let mut out = Vec::new();
        let synack = Packet::new(rev, TcpFlags::SYN | TcpFlags::ACK)
            .with_seq(500)
            .with_ack(101);
        assert!(!slot.on_packet(&synack, &mut out));
        out.clear();

        // Last response arrives: the slot ACKs it and parks instead of
        // closing.
        let resp = Packet::new(rev, TcpFlags::PSH | TcpFlags::ACK)
            .with_seq(501)
            .with_ack(701)
            .with_payload(1_200);
        assert!(!slot.on_packet(&resp, &mut out));
        assert_eq!(out.len(), 1, "parked: one pure ACK, no FIN yet");
        assert!(!out[0].flags.fin() && out[0].flags.ack());
        assert_eq!(
            (out[0].seq, out[0].ack, out[0].payload_len),
            (701, 1_701, 0)
        );
        out.clear();
        assert!(slot.take_hold_started());
        assert!(!slot.take_hold_started(), "edge-triggered");
        assert!(!slot.idle(), "the connection is still open");

        // The driver releases the hold: our FIN goes out.
        assert!(slot.release_hold(&mut out));
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.fin());
        out.clear();
        assert!(!slot.release_hold(&mut out), "hold already released");

        // Server FINs back; the close handshake completes the session.
        let fin = Packet::new(rev, TcpFlags::FIN | TcpFlags::ACK)
            .with_seq(1_701)
            .with_ack(702);
        assert!(slot.on_packet(&fin, &mut out));
        assert_eq!(slot.completed, 1);
        assert!(slot.idle());
    }

    #[test]
    fn retransmitted_response_during_hold_is_reacked() {
        let mut slot = ClientSlot::new(CLIENT, SERVER, 80, 600, 1);
        slot.set_session(1, true);
        slot.set_hold(true);
        let syn = slot.start(100);
        let rev = syn.flow.reversed();
        let mut out = Vec::new();
        slot.on_packet(
            &Packet::new(rev, TcpFlags::SYN | TcpFlags::ACK)
                .with_seq(500)
                .with_ack(101),
            &mut out,
        );
        let resp = Packet::new(rev, TcpFlags::PSH | TcpFlags::ACK)
            .with_seq(501)
            .with_ack(701)
            .with_payload(1_200);
        slot.on_packet(&resp, &mut out);
        assert!(slot.take_hold_started());

        // The server's RTO resends the response (our ACK was lost):
        // one pure ACK at the unchanged cumulative point, still parked.
        out.clear();
        assert!(!slot.on_packet(&resp, &mut out));
        assert_eq!(out.len(), 1);
        assert!(!out[0].flags.fin() && out[0].flags.ack());
        assert_eq!(
            (out[0].seq, out[0].ack, out[0].payload_len),
            (701, 1_701, 0)
        );
        assert!(!slot.take_hold_started(), "no second hold");
        assert_eq!(slot.responses, 1, "the duplicate is not a response");

        // The hold still ends with our FIN.
        out.clear();
        assert!(slot.release_hold(&mut out));
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.fin());
        assert_eq!(out[0].ack, 1_701);
    }

    #[test]
    fn server_fin_during_hold_closes_cleanly() {
        let mut slot = ClientSlot::new(CLIENT, SERVER, 80, 600, 1);
        slot.set_hold(true);
        slot.set_session(1, true);
        let syn = slot.start(100);
        let rev = syn.flow.reversed();
        let mut out = Vec::new();
        slot.on_packet(
            &Packet::new(rev, TcpFlags::SYN | TcpFlags::ACK)
                .with_seq(500)
                .with_ack(101),
            &mut out,
        );
        out.clear();
        slot.on_packet(
            &Packet::new(rev, TcpFlags::PSH | TcpFlags::ACK)
                .with_seq(501)
                .with_ack(701)
                .with_payload(1_200),
            &mut out,
        );
        assert!(slot.take_hold_started());

        // The server closes under the hold: FIN back, await final ACK.
        out.clear();
        let fin = Packet::new(rev, TcpFlags::FIN | TcpFlags::ACK)
            .with_seq(1_701)
            .with_ack(701);
        assert!(!slot.on_packet(&fin, &mut out));
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.fin() && out[0].flags.ack());
        let last = Packet::new(rev, TcpFlags::ACK)
            .with_seq(1_702)
            .with_ack(out[0].seq.wrapping_add(1));
        assert!(slot.on_packet(&last, &mut Vec::new()));
        assert_eq!(slot.completed, 1);
    }

    #[test]
    fn client_rotates_source_ports() {
        let mut slot = ClientSlot::new(CLIENT, SERVER, 80, 600, 1);
        let a = slot.start(1);
        slot.state = ClientState::Idle;
        let b = slot.start(1);
        assert_ne!(a.flow.src_port, b.flow.src_port);
    }

    #[test]
    fn client_handles_rst() {
        let mut slot = ClientSlot::new(CLIENT, SERVER, 80, 600, 1);
        let syn = slot.start(7);
        let rst = Packet::new(syn.flow.reversed(), TcpFlags::RST);
        assert!(slot.on_packet(&rst, &mut Vec::new()));
        assert_eq!(slot.resets, 1);
        assert!(slot.idle());
    }

    #[test]
    fn backend_serves_request_then_fin() {
        let mut be = Backend::new(BACKEND, 80, 1_200);
        let flow = FlowTuple::new(SERVER, 40_000, BACKEND, 80);
        let mut out = Vec::new();

        be.on_packet(
            &Packet::new(flow, TcpFlags::SYN).with_seq(10),
            900,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.syn() && out[0].flags.ack());

        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::ACK).with_seq(11).with_ack(901),
            0,
            &mut out,
        );
        assert!(out.is_empty());

        be.on_packet(
            &Packet::new(flow, TcpFlags::PSH | TcpFlags::ACK)
                .with_seq(11)
                .with_ack(901)
                .with_payload(600),
            0,
            &mut out,
        );
        assert_eq!(out.len(), 2, "response + FIN");
        assert_eq!(out[0].payload_len, 1_200);
        assert!(out[1].flags.fin());
        assert_eq!(be.served, 1);

        // Proxy's FIN ends it.
        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::FIN | TcpFlags::ACK)
                .with_seq(611)
                .with_ack(out.len() as u32), // ack value unused by the model
            0,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.ack());
        assert_eq!(be.open_conns(), 0);
    }

    #[test]
    fn crashed_backend_rsts_everything_and_heals_empty() {
        let mut be = Backend::new(BACKEND, 80, 1_200);
        let flow = FlowTuple::new(SERVER, 40_000, BACKEND, 80);
        let mut out = Vec::new();

        // Establish a connection, then crash under it.
        be.on_packet(
            &Packet::new(flow, TcpFlags::SYN).with_seq(10),
            900,
            &mut out,
        );
        assert_eq!(be.open_conns(), 1);
        be.crash();
        assert!(be.is_down());
        assert_eq!(be.open_conns(), 0, "crash wipes connection state");

        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::SYN).with_seq(50),
            901,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.rst(), "new SYN refused with RST");

        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::PSH | TcpFlags::ACK)
                .with_seq(11)
                .with_ack(901)
                .with_payload(600),
            0,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.rst(), "old-connection data refused with RST");

        out.clear();
        be.on_packet(&Packet::new(flow, TcpFlags::RST).with_seq(11), 0, &mut out);
        assert!(out.is_empty(), "nothing answers an RST with an RST");

        be.heal();
        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::SYN).with_seq(99),
            902,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(
            out[0].flags.syn() && out[0].flags.ack(),
            "healed: accepts again"
        );
    }

    #[test]
    fn keep_alive_backend_serves_repeat_requests_without_fin() {
        let mut be = Backend::new(BACKEND, 80, 1_200).with_keep_alive(true);
        let flow = FlowTuple::new(SERVER, 41_000, BACKEND, 80);
        let mut out = Vec::new();

        be.on_packet(
            &Packet::new(flow, TcpFlags::SYN).with_seq(10),
            900,
            &mut out,
        );
        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::PSH | TcpFlags::ACK)
                .with_seq(11)
                .with_ack(901)
                .with_payload(600),
            0,
            &mut out,
        );
        assert_eq!(out.len(), 1, "response only, no FIN");
        assert_eq!(out[0].payload_len, 1_200);
        assert!(!out[0].flags.fin());
        assert_eq!(be.open_conns(), 1, "connection stays pooled");

        // A second request on the same connection is served too.
        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::PSH | TcpFlags::ACK)
                .with_seq(611)
                .with_ack(2_101)
                .with_payload(600),
            0,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(be.served, 2);

        // The proxy closes first; the backend FINs back and forgets.
        out.clear();
        be.on_packet(
            &Packet::new(flow, TcpFlags::FIN | TcpFlags::ACK)
                .with_seq(1_211)
                .with_ack(3_301),
            0,
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.fin() && out[0].flags.ack());
        assert_eq!(be.open_conns(), 0);
    }
}
