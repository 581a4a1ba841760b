//! End-to-end lifecycle tests for the simulated TCP stack: full
//! handshakes, data transfer and teardown through `net_rx`, across all
//! three kernel variants.

use sim_core::{CoreId, SimRng};
use sim_mem::{CacheCosts, CacheModel};
use sim_net::{FlowTuple, Packet, TcpFlags};
use sim_os::process::Pid;
use sim_os::KernelCtx;
use sim_sync::{LockClass, LockCosts, LockTable};
use std::net::Ipv4Addr;
use tcp_stack::stack::{
    OsServices, RxOutcome, StackConfig, TcpStack, MAX_RTO_BACKOFF_SHIFT, MAX_RTX_ATTEMPTS,
};
use tcp_stack::{AcceptSource, ListenVariant, SockId, TcpState};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 80;

/// A test rig holding one simulated server kernel.
struct Rig {
    ctx: KernelCtx,
    os: OsServices,
    stack: TcpStack,
    now: u64,
}

impl Rig {
    fn new(config: StackConfig) -> Rig {
        let mut ctx = KernelCtx::new(
            config.cores as usize,
            LockTable::new(LockCosts::default()),
            CacheModel::new(CacheCosts::default()),
            SimRng::seed(99),
        );
        let os = OsServices::new(&mut ctx, &config);
        let stack = TcpStack::new(&mut ctx, config);
        Rig {
            ctx,
            os,
            stack,
            now: 0,
        }
    }

    /// Runs `f` as one costed operation on `core`, advancing time.
    fn op<T>(&mut self, core: CoreId, f: impl FnOnce(&mut Self, &mut sim_os::Op) -> T) -> T {
        let mut op = self.ctx.begin(core, self.now);
        let out = f(self, &mut op);
        let span = op.commit(&mut self.ctx.cpu);
        self.now = self.now.max(span.end) + 50;
        out
    }

    fn rx(&mut self, core: CoreId, pkt: Packet) -> RxOutcome {
        self.op(core, |rig, op| {
            rig.stack.net_rx(&mut rig.ctx, &mut rig.os, op, &pkt, false)
        })
    }

    /// Sets up the server listening per the configured variant, with
    /// one worker per core.
    fn listen_all(&mut self) {
        let cores = self.stack.config().cores;
        let variant = self.stack.config().listen;
        self.op(CoreId(0), |rig, op| {
            rig.stack.listen(&mut rig.ctx, op, PORT, 1024, CoreId(0));
        });
        for c in 0..cores {
            let pid = Pid(c as u32);
            match variant {
                ListenVariant::Global => {}
                ListenVariant::ReusePort => {
                    self.op(CoreId(c), |rig, op| {
                        rig.stack
                            .reuseport_listen(&mut rig.ctx, op, PORT, 1024, pid, CoreId(c));
                    });
                }
                ListenVariant::Local => {
                    self.op(CoreId(c), |rig, op| {
                        rig.stack
                            .local_listen(&mut rig.ctx, op, PORT, 1024, pid, CoreId(c));
                    });
                }
            }
        }
    }
}

/// A scripted TCP client endpoint for driving the server stack.
struct Client {
    flow: FlowTuple, // client perspective
    snd_nxt: u32,
    rcv_nxt: u32,
}

impl Client {
    fn new(src_port: u16) -> Client {
        Client {
            flow: FlowTuple::new(CLIENT_IP, src_port, SERVER_IP, PORT),
            snd_nxt: 1_000,
            rcv_nxt: 0,
        }
    }

    fn syn(&mut self) -> Packet {
        let p = Packet::new(self.flow, TcpFlags::SYN).with_seq(self.snd_nxt);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        p
    }

    /// Consumes the server's SYN-ACK and produces the 3rd ACK.
    fn ack_synack(&mut self, synack: &Packet) -> Packet {
        assert!(synack.flags.syn() && synack.flags.ack(), "expected SYN-ACK");
        assert_eq!(synack.ack, self.snd_nxt, "server must ack our ISN+1");
        self.rcv_nxt = synack.seq.wrapping_add(1);
        Packet::new(self.flow, TcpFlags::ACK)
            .with_seq(self.snd_nxt)
            .with_ack(self.rcv_nxt)
    }

    fn data(&mut self, len: u16) -> Packet {
        let p = Packet::new(self.flow, TcpFlags::PSH | TcpFlags::ACK)
            .with_seq(self.snd_nxt)
            .with_ack(self.rcv_nxt);
        self.snd_nxt = self.snd_nxt.wrapping_add(u32::from(len));
        p.with_payload(len)
    }

    /// Absorbs a server segment (data or FIN), updating rcv_nxt.
    fn absorb(&mut self, pkt: &Packet) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(pkt.seq_len());
    }

    fn ack(&self) -> Packet {
        Packet::new(self.flow, TcpFlags::ACK)
            .with_seq(self.snd_nxt)
            .with_ack(self.rcv_nxt)
    }

    fn fin(&mut self) -> Packet {
        let p = Packet::new(self.flow, TcpFlags::FIN | TcpFlags::ACK)
            .with_seq(self.snd_nxt)
            .with_ack(self.rcv_nxt);
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        p
    }
}

/// Drives one complete HTTP-style exchange on `core`, returning the
/// accepted socket.
fn run_one_connection(rig: &mut Rig, core: CoreId, src_port: u16) -> SockId {
    let pid = Pid(core.0 as u32);
    let mut client = Client::new(src_port);

    // Handshake.
    let out = rig.rx(core, client.syn());
    assert_eq!(out.replies.len(), 1, "expected SYN-ACK");
    let third = client.ack_synack(&out.replies[0]);
    let out = rig.rx(core, third);
    assert!(out.replies.is_empty(), "3rd ACK needs no reply");

    // Accept.
    let (sock, _src) = rig
        .op(core, |rig, op| {
            rig.stack
                .accept(&mut rig.ctx, &mut rig.os, op, PORT, core, pid)
        })
        .expect("connection must be accepted");

    // Request.
    let out = rig.rx(core, client.data(600));
    assert_eq!(out.replies.len(), 1, "data must be ACKed");
    let (got, wnd_update) = rig.op(core, |rig, op| rig.stack.recv(&mut rig.ctx, op, sock));
    assert_eq!(got, 600);
    assert!(
        wnd_update.is_none(),
        "no window updates without a data plane"
    );

    // Response + server-initiated close.
    let resp = rig
        .op(core, |rig, op| {
            rig.stack.send(&mut rig.ctx, &mut rig.os, op, sock, 1200)
        })
        .expect("send on established socket");
    client.absorb(&resp);
    let fin = rig.op(core, |rig, op| {
        rig.stack.close(&mut rig.ctx, &mut rig.os, op, sock)
    });
    let fin = fin.expect("close sends FIN");
    client.absorb(&fin);

    // Client ACKs response+FIN, then FINs itself.
    let out = rig.rx(core, client.ack());
    assert!(out.time_wait.is_empty());
    let out = rig.rx(core, client.fin());
    assert_eq!(out.time_wait, vec![sock], "server entered TIME_WAIT");
    assert_eq!(out.replies.len(), 1, "FIN must be ACKed");

    // Recycle.
    let gen = rig.stack.sock_gen(sock);
    rig.stack.tw_expire(&mut rig.ctx, &mut rig.os, sock, gen);
    sock
}

#[test]
fn full_lifecycle_base_kernel() {
    let mut rig = Rig::new(StackConfig::base_linux(4));
    rig.listen_all();
    run_one_connection(&mut rig, CoreId(1), 40_001);
    let stats = rig.stack.stats();
    assert_eq!(stats.passive_established, 1);
    assert_eq!(stats.closed, 1);
    assert_eq!(stats.rst_sent, 0);
    assert_eq!(
        rig.stack.socks.live_count(),
        1,
        "only the listen socket remains"
    );
}

#[test]
fn full_lifecycle_reuseport() {
    let mut rig = Rig::new(StackConfig::linux_313(4));
    rig.listen_all();
    run_one_connection(&mut rig, CoreId(2), 40_002);
    let stats = rig.stack.stats();
    assert_eq!(stats.passive_established, 1);
    // ReusePort walks all 4 copies per lookup.
    assert!(
        stats.avg_listen_walk() >= 3.9,
        "walk={}",
        stats.avg_listen_walk()
    );
}

#[test]
fn full_lifecycle_fastsocket() {
    let mut rig = Rig::new(StackConfig::fastsocket(4));
    rig.listen_all();
    run_one_connection(&mut rig, CoreId(3), 40_003);
    let stats = rig.stack.stats();
    assert_eq!(stats.passive_established, 1);
    assert_eq!(stats.accepts_local, 1, "fast path used");
    assert_eq!(stats.accepts_global, 0);
    // O(1) lookups.
    assert!(stats.avg_listen_walk() <= 1.01);
}

#[test]
fn fastsocket_many_connections_zero_contention() {
    // With complete locality (all activity on one connection's core),
    // the partitioned design contends on nothing.
    let mut rig = Rig::new(StackConfig::fastsocket(4));
    rig.listen_all();
    for i in 0..32 {
        let core = CoreId(i % 4);
        run_one_connection(&mut rig, core, 41_000 + i);
    }
    for class in [
        LockClass::DcacheLock,
        LockClass::InodeLock,
        LockClass::EhashLock,
    ] {
        assert_eq!(
            rig.ctx.locks.stats(class).acquisitions,
            0,
            "{class:?} must not be taken at all under Fastsocket"
        );
    }
    assert_eq!(rig.stack.stats().passive_established, 32);
}

#[test]
fn syn_to_unlistened_port_is_reset() {
    let mut rig = Rig::new(StackConfig::base_linux(2));
    rig.listen_all();
    let flow = FlowTuple::new(CLIENT_IP, 40_000, SERVER_IP, 8_080);
    let out = rig.rx(CoreId(0), Packet::new(flow, TcpFlags::SYN).with_seq(5));
    assert_eq!(out.replies.len(), 1);
    assert!(out.replies[0].flags.rst(), "expected RST");
    assert_eq!(rig.stack.stats().rst_sent, 1);
}

#[test]
fn backlog_overflow_drops_syn_without_cookies() {
    let mut config = StackConfig::base_linux(1);
    config.syn_cookies = false;
    let mut rig = Rig::new(config);
    rig.op(CoreId(0), |rig, op| {
        rig.stack.listen(&mut rig.ctx, op, PORT, 4, CoreId(0));
    });
    for i in 0..8u16 {
        let mut c = Client::new(42_000 + i);
        rig.rx(CoreId(0), c.syn());
    }
    let stats = rig.stack.stats();
    assert_eq!(stats.syn_drops, 4, "4 fit in the backlog, 4 dropped");
}

#[test]
fn backlog_overflow_answers_with_syn_cookies() {
    // Default kernels answer overflow SYNs statelessly (§1's security
    // requirement), and the cookie ACK completes the handshake.
    let mut rig = Rig::new(StackConfig::base_linux(1));
    rig.op(CoreId(0), |rig, op| {
        rig.stack.listen(&mut rig.ctx, op, PORT, 2, CoreId(0));
    });
    // Fill the backlog with embryonic connections.
    for i in 0..2u16 {
        let mut c = Client::new(42_100 + i);
        rig.rx(CoreId(0), c.syn());
    }
    // The next SYN gets a cookie SYN-ACK, not a drop.
    let mut c = Client::new(42_200);
    let out = rig.rx(CoreId(0), c.syn());
    assert_eq!(out.replies.len(), 1);
    assert!(out.replies[0].flags.syn() && out.replies[0].flags.ack());
    assert_eq!(rig.stack.stats().syn_cookies_sent, 1);
    assert_eq!(rig.stack.stats().syn_drops, 0);

    // Completing the handshake with the cookie establishes the
    // connection even though no SYN-queue entry ever existed.
    let third = c.ack_synack(&out.replies[0]);
    rig.rx(CoreId(0), third);
    assert_eq!(rig.stack.stats().syn_cookies_ok, 1);
    let got = rig.op(CoreId(0), |rig, op| {
        rig.stack
            .accept(&mut rig.ctx, &mut rig.os, op, PORT, CoreId(0), Pid(0))
    });
    assert!(got.is_some(), "cookie connection must be acceptable");
}

#[test]
fn invalid_cookie_ack_is_reset() {
    let mut rig = Rig::new(StackConfig::base_linux(1));
    rig.op(CoreId(0), |rig, op| {
        rig.stack.listen(&mut rig.ctx, op, PORT, 1024, CoreId(0));
    });
    // A stray ACK that matches no SYN-queue entry and carries no valid
    // cookie must be refused.
    let flow = FlowTuple::new(CLIENT_IP, 47_000, SERVER_IP, PORT);
    let stray = Packet::new(flow, TcpFlags::ACK)
        .with_seq(9)
        .with_ack(0xdead);
    let out = rig.rx(CoreId(0), stray);
    assert_eq!(out.replies.len(), 1);
    assert!(out.replies[0].flags.rst());
}

#[test]
fn rto_retransmits_lost_syn_ack() {
    // Lose the SYN-ACK: the RTO mechanism must offer it again.
    let mut rig = Rig::new(StackConfig::fastsocket(2));
    rig.listen_all();
    let mut c = Client::new(48_000);
    let out = rig.rx(CoreId(0), c.syn());
    let synack = out.replies[0];
    let arms = rig.stack.take_rto_arms();
    assert_eq!(arms.len(), 1, "the SYN-ACK must arm an RTO");
    let (sock, gen, delay) = arms[0];
    assert_eq!(delay, rig.stack.config().rto, "first arm uses the base RTO");
    // Pretend the SYN-ACK was lost: fire the RTO.
    let reseg = rig
        .stack
        .on_rto(&mut rig.ctx, &mut rig.os, sock, gen)
        .expect("unacked SYN-ACK must be retransmitted");
    assert_eq!(reseg, synack);
    assert_eq!(rig.stack.stats().retransmits, 1);
    // The client completes with the retransmitted copy.
    let third = c.ack_synack(&reseg);
    rig.rx(CoreId(0), third);
    // The ACK cleared the queue: the next RTO finds nothing.
    let arms = rig.stack.take_rto_arms();
    let (s2, g2, _) = arms[0];
    assert!(rig
        .stack
        .on_rto(&mut rig.ctx, &mut rig.os, s2, g2)
        .is_none());
}

#[test]
fn rto_backs_off_exponentially_and_still_aborts() {
    // Each retry doubles the timer (capped), and the `tcp_retries2`
    // abort still fires after MAX_RTX_ATTEMPTS.
    let mut rig = Rig::new(StackConfig::fastsocket(2));
    rig.listen_all();
    let mut c = Client::new(48_500);
    rig.rx(CoreId(0), c.syn());
    let rto = rig.stack.config().rto;
    let (mut sock, mut gen, first) = rig.stack.take_rto_arms()[0];
    assert_eq!(first, rto);
    let mut delays = Vec::new();
    while rig
        .stack
        .on_rto(&mut rig.ctx, &mut rig.os, sock, gen)
        .is_some()
    {
        let arms = rig.stack.take_rto_arms();
        assert_eq!(arms.len(), 1);
        let (s, g, d) = arms[0];
        delays.push(d);
        sock = s;
        gen = g;
    }
    // Doubling per retry, capped at rto << MAX_RTO_BACKOFF_SHIFT.
    let expected: Vec<u64> = (1..=MAX_RTX_ATTEMPTS)
        .map(|a| rto << a.min(MAX_RTO_BACKOFF_SHIFT))
        .collect();
    assert_eq!(delays, expected);
    assert!(delays.windows(2).all(|w| w[1] >= w[0]), "monotone backoff");
    assert_eq!(rig.stack.stats().retransmits, u64::from(MAX_RTX_ATTEMPTS));
    assert_eq!(rig.stack.stats().rtx_abandoned, 1, "abort still fires");
    assert_eq!(rig.stack.take_rto_arms().len(), 0, "no re-arm after abort");
}

#[test]
fn fastsocket_slow_path_survives_worker_crash() {
    // Figure 2 steps (7), (11), (12): the local listen socket of core 1
    // is destroyed (its process died); a SYN delivered to core 1 must
    // still be accepted — through the global listen socket — by any
    // other worker. A naive local-only partition would send RST here.
    let mut rig = Rig::new(StackConfig::fastsocket(4));
    rig.listen_all();
    rig.stack
        .listen_table_mut()
        .destroy_process_socket(PORT, CoreId(1));

    let mut client = Client::new(43_000);
    let out = rig.rx(CoreId(1), client.syn());
    assert_eq!(out.replies.len(), 1);
    assert!(
        out.replies[0].flags.syn() && out.replies[0].flags.ack(),
        "robustness: SYN-ACK, not RST, after worker crash"
    );
    let third = client.ack_synack(&out.replies[0]);
    rig.rx(CoreId(1), third);

    // Another worker (core 2) accepts it via the global queue.
    let got = rig.op(CoreId(2), |rig, op| {
        rig.stack
            .accept(&mut rig.ctx, &mut rig.os, op, PORT, CoreId(2), Pid(2))
    });
    let (_sock, src) = got.expect("slow-path connection must be acceptable");
    assert_eq!(src, AcceptSource::Global);
    assert_eq!(rig.stack.stats().accepts_global, 1);
}

#[test]
fn global_queue_checked_before_local() {
    // Figure 2's ordering argument: on a busy server the local queue is
    // never empty, so checking local first would starve the global
    // (slow-path) connections.
    let mut rig = Rig::new(StackConfig::fastsocket(2));
    rig.listen_all();

    // One connection lands in the global queue (core 1's local socket
    // destroyed mid-run), then gets re-created for the local one.
    rig.stack
        .listen_table_mut()
        .destroy_process_socket(PORT, CoreId(1));
    let mut slowpath = Client::new(44_000);
    let out = rig.rx(CoreId(1), slowpath.syn());
    let third = slowpath.ack_synack(&out.replies[0]);
    rig.rx(CoreId(1), third);

    // Core 1's worker restarts and fills its local queue.
    rig.op(CoreId(1), |rig, op| {
        rig.stack
            .local_listen(&mut rig.ctx, op, PORT, 1024, Pid(1), CoreId(1));
    });
    let mut fastpath = Client::new(44_001);
    let out = rig.rx(CoreId(1), fastpath.syn());
    let third = fastpath.ack_synack(&out.replies[0]);
    rig.rx(CoreId(1), third);

    // Accept on core 1: must take the GLOBAL connection first.
    let (_s1, src1) = rig
        .op(CoreId(1), |rig, op| {
            rig.stack
                .accept(&mut rig.ctx, &mut rig.os, op, PORT, CoreId(1), Pid(1))
        })
        .unwrap();
    assert_eq!(src1, AcceptSource::Global, "global queue served first");
    let (_s2, src2) = rig
        .op(CoreId(1), |rig, op| {
            rig.stack
                .accept(&mut rig.ctx, &mut rig.os, op, PORT, CoreId(1), Pid(1))
        })
        .unwrap();
    assert_eq!(src2, AcceptSource::Local);
}

#[test]
fn active_connection_lifecycle() {
    // The server actively connects out (proxy behaviour); a scripted
    // backend answers.
    let mut rig = Rig::new(StackConfig::fastsocket(2));
    rig.listen_all();
    let core = CoreId(1);
    let backend_ip = Ipv4Addr::new(10, 0, 0, 100);

    let (sock, syn) = rig
        .op(core, |rig, op| {
            rig.stack.connect(
                &mut rig.ctx,
                &mut rig.os,
                op,
                core,
                Pid(1),
                SERVER_IP,
                backend_ip,
                PORT,
            )
        })
        .expect("ports available");
    assert!(syn.flags.syn() && !syn.flags.ack());
    // RFD chose a port encoding core 1.
    assert!(rig.stack.rfd().port_matches_core(syn.flow.src_port, core));

    // Backend SYN-ACK.
    let synack = Packet::new(syn.flow.reversed(), TcpFlags::SYN | TcpFlags::ACK)
        .with_seq(7_000)
        .with_ack(syn.seq.wrapping_add(1));
    let out = rig.rx(core, synack);
    assert_eq!(out.replies.len(), 1, "handshake ACK");
    assert_eq!(rig.stack.socks.get(sock).state, TcpState::Established);
    assert_eq!(rig.stack.stats().active_established, 1);

    // Send the request, receive the response + FIN from the backend.
    let req = rig
        .op(core, |rig, op| {
            rig.stack.send(&mut rig.ctx, &mut rig.os, op, sock, 600)
        })
        .unwrap();
    assert_eq!(req.payload_len, 600);
    let resp = Packet::new(syn.flow.reversed(), TcpFlags::PSH | TcpFlags::ACK)
        .with_seq(7_001)
        .with_ack(req.seq.wrapping_add(600))
        .with_payload(1_200);
    let out = rig.rx(core, resp);
    assert_eq!(out.replies.len(), 1);
    let fin = Packet::new(syn.flow.reversed(), TcpFlags::FIN | TcpFlags::ACK)
        .with_seq(8_201)
        .with_ack(req.seq.wrapping_add(600));
    let out = rig.rx(core, fin);
    assert!(out.replies.len() == 1, "FIN acked");

    // Proxy side closes: CLOSE_WAIT -> LAST_ACK -> CLOSED.
    let fin = rig
        .op(core, |rig, op| {
            rig.stack.close(&mut rig.ctx, &mut rig.os, op, sock)
        })
        .expect("close sends FIN");
    let lastack = Packet::new(syn.flow.reversed(), TcpFlags::ACK)
        .with_seq(8_202)
        .with_ack(fin.seq.wrapping_add(1));
    let out = rig.rx(core, lastack);
    assert_eq!(out.closed, vec![sock]);
    assert_eq!(rig.stack.stats().closed, 1);
}

#[test]
fn rfd_steers_active_packets_to_owning_core() {
    let mut rig = Rig::new(StackConfig::fastsocket(4));
    rig.listen_all();
    let backend_ip = Ipv4Addr::new(10, 0, 0, 100);

    let (_sock, syn) = rig
        .op(CoreId(2), |rig, op| {
            rig.stack.connect(
                &mut rig.ctx,
                &mut rig.os,
                op,
                CoreId(2),
                Pid(2),
                SERVER_IP,
                backend_ip,
                PORT,
            )
        })
        .unwrap();

    // The backend's reply lands on the WRONG core (0). RFD must steer
    // it to core 2 without touching any table.
    let synack = Packet::new(syn.flow.reversed(), TcpFlags::SYN | TcpFlags::ACK)
        .with_seq(1)
        .with_ack(syn.seq.wrapping_add(1));
    let out = rig.rx(CoreId(0), synack);
    assert_eq!(out.steer, Some(CoreId(2)));
    assert!(out.replies.is_empty());
    assert_eq!(rig.stack.stats().steered_packets, 1);

    // Re-delivered on the right core it completes the handshake.
    let out = rig.op(CoreId(2), |rig, op| {
        rig.stack
            .net_rx(&mut rig.ctx, &mut rig.os, op, &synack, true)
    });
    assert_eq!(out.steer, None);
    assert_eq!(out.replies.len(), 1);
    assert_eq!(rig.stack.stats().active_established, 1);
    // Locality accounting: 1 active packet seen at NIC level, 0 local.
    assert_eq!(rig.stack.stats().active_in_packets, 1);
    assert_eq!(rig.stack.stats().active_in_local, 0);
}

#[test]
fn reuseport_distributes_by_flow_hash() {
    let mut rig = Rig::new(StackConfig::linux_313(4));
    rig.listen_all();
    // Many SYNs: connections should spread over the 4 copies.
    let mut accepted_per_core = [0u32; 4];
    for i in 0..64u16 {
        let mut c = Client::new(45_000 + i);
        let out = rig.rx(CoreId(i % 4), c.syn());
        let third = c.ack_synack(&out.replies[0]);
        rig.rx(CoreId(i % 4), third);
    }
    for core in 0..4u16 {
        loop {
            let got = rig.op(CoreId(core), |rig, op| {
                rig.stack.accept(
                    &mut rig.ctx,
                    &mut rig.os,
                    op,
                    PORT,
                    CoreId(core),
                    Pid(core as u32),
                )
            });
            if got.is_none() {
                break;
            }
            accepted_per_core[core as usize] += 1;
        }
    }
    let total: u32 = accepted_per_core.iter().sum();
    assert_eq!(total, 64);
    for (c, &n) in accepted_per_core.iter().enumerate() {
        assert!(n >= 4, "copy on core {c} starved: {accepted_per_core:?}");
    }
}

#[test]
fn proc_net_tcp_shows_sockets_in_every_vfs_mode() {
    // §3.4 "Keep Compatibility": the fast path keeps enough state for
    // /proc-based tools. The dump must show LISTEN sockets and live
    // connections under the Fastsocket VFS just as under the legacy one.
    for config in [StackConfig::base_linux(2), StackConfig::fastsocket(2)] {
        let mut rig = Rig::new(config);
        rig.listen_all();
        let mut client = Client::new(49_000);
        let out = rig.rx(CoreId(0), client.syn());
        let third = client.ack_synack(&out.replies[0]);
        rig.rx(CoreId(0), third);

        let dump = rig.stack.proc_net_tcp();
        assert!(dump.contains("local_address"), "{dump}");
        assert!(
            dump.contains(" 0A\n"),
            "a LISTEN socket must appear: {dump}"
        );
        assert!(
            dump.contains(" 01\n"),
            "an ESTABLISHED socket must appear: {dump}"
        );
        // Port 80 in hex.
        assert!(
            dump.contains(":0050"),
            "service port rendered in hex: {dump}"
        );

        let summary = rig.stack.socket_summary();
        assert!(summary
            .iter()
            .any(|(s, n)| *s == TcpState::Established && *n == 1));
        assert!(summary.iter().any(|(s, _)| *s == TcpState::Listen));
    }
}
