//! The generator host: an [`lumina_rnic::Rnic`] plus the requester or
//! responder application, adapted onto the simulation engine.

use crate::metrics::MetricsHandle;
use crate::spec::FlowPlan;
use lumina_rnic::verbs::{Completion, CompletionStatus, WorkRequest};
use lumina_rnic::{Action, Rnic};
use lumina_sim::{Frame, Node, NodeCtx, PortId, SimTime};
use lumina_telemetry::tev;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Timer-token kind bytes ≥ 100 belong to the host application; the rest
/// to the RNIC model.
const HOST_TOKEN_KIND_BASE: u8 = 100;
/// Kick-off token: start posting traffic.
const START_TOKEN: u64 = (HOST_TOKEN_KIND_BASE as u64) << 56;

/// Which side of the connection this host plays.
pub enum Role {
    /// Posts work requests and measures completions.
    Requester {
        /// Flow plans, keyed by local QPN.
        plans: Vec<FlowPlan>,
        /// Barrier synchronization across QPs (§3.2): post round `k+1`
        /// only after round `k` completed on *all* QPs.
        barrier_sync: bool,
    },
    /// Pre-posts receives and answers reads/writes.
    Responder,
}

struct FlowState {
    plan: FlowPlan,
    posted: u32,
    completed: u32,
    failed: u32,
    outstanding: u32,
    post_times: HashMap<u64, SimTime>,
}

/// A traffic-generation host node.
pub struct HostNode {
    /// The RNIC under test.
    pub rnic: Rnic,
    role_is_requester: bool,
    barrier_sync: bool,
    /// Ascending by QPN.
    flows: Vec<FlowState>,
    /// Flows with `outstanding > 0`.
    busy_flows: usize,
    /// Flows with `posted < num_msgs`.
    unposted_flows: usize,
    /// Flows with `completed + failed < num_msgs`.
    unfinished_flows: usize,
    metrics: MetricsHandle,
    next_wr_id: u64,
    name: String,
    /// Rounds completed (barrier mode).
    round: u32,
}

impl HostNode {
    /// Build a host. For a responder pass `Role::Responder`; receive WQEs
    /// for Send traffic must be pre-posted by the orchestrator via
    /// [`HostNode::rnic`]'s `post_recv`.
    pub fn new(rnic: Rnic, role: Role, metrics: MetricsHandle, name: impl Into<String>) -> HostNode {
        let (role_is_requester, barrier_sync, plans) = match role {
            Role::Requester {
                plans,
                barrier_sync,
            } => (true, barrier_sync, plans),
            Role::Responder => (false, false, Vec::new()),
        };
        let mut by_qpn = BTreeMap::new();
        for plan in plans {
            metrics
                .borrow_mut()
                .flows
                .entry(plan.qpn)
                .or_default();
            by_qpn.insert(
                plan.qpn,
                FlowState {
                    plan,
                    posted: 0,
                    completed: 0,
                    failed: 0,
                    outstanding: 0,
                    post_times: HashMap::new(),
                },
            );
        }
        let flows: Vec<FlowState> = by_qpn.into_values().collect();
        let with_msgs = flows.iter().filter(|f| f.plan.num_msgs > 0).count();
        HostNode {
            rnic,
            role_is_requester,
            barrier_sync,
            flows,
            busy_flows: 0,
            unposted_flows: with_msgs,
            unfinished_flows: with_msgs,
            metrics,
            next_wr_id: 1,
            name: name.into(),
            round: 0,
        }
    }

    /// The absolute time token to schedule on the engine to start traffic.
    pub fn start_token() -> u64 {
        START_TOKEN
    }

    fn apply_actions(&mut self, actions: Vec<Action>, ctx: &mut NodeCtx<'_>) {
        let mut queue: VecDeque<Action> = actions.into();
        while let Some(act) = queue.pop_front() {
            match act {
                Action::Emit(frame) => {
                    // Every frame the host hands the engine — data, ACK,
                    // CNP, retransmission — passes this one choke point.
                    ctx.telemetry().record_hop(
                        frame.trace_id(),
                        lumina_telemetry::trace::hops::GEN_ENQUEUE,
                        ctx.telemetry_node(),
                        ctx.now().as_nanos(),
                    );
                    ctx.send(PortId(0), frame);
                }
                Action::ArmTimer { at, token } => ctx.set_timer_at(at.max(ctx.now()), token),
                Action::Complete(c) => self.on_completion(c, ctx, &mut queue),
            }
        }
        // Drained: the device fills the same buffer on its next call.
        self.rnic.recycle(queue.into());
    }

    /// Post flow `i`'s next message; the device's actions go to `out`.
    fn post_one(&mut self, i: usize, now: SimTime, out: &mut VecDeque<Action>) {
        let wr_id = self.next_wr_id;
        self.next_wr_id += 1;
        let flow = &mut self.flows[i];
        let qpn = flow.plan.qpn;
        flow.posted += 1;
        if flow.posted == flow.plan.num_msgs {
            self.unposted_flows -= 1;
        }
        flow.outstanding += 1;
        if flow.outstanding == 1 {
            self.busy_flows += 1;
        }
        flow.post_times.insert(wr_id, now);
        {
            let mut m = self.metrics.borrow_mut();
            let fm = m.flows.get_mut(&qpn).unwrap();
            if fm.first_post.is_none() {
                fm.first_post = Some(now);
            }
        }
        let wr = WorkRequest {
            wr_id,
            verb: flow.plan.verb_of_msg(flow.posted - 1),
            len: flow.plan.msg_size,
        };
        let mut actions = self.rnic.post_send(qpn, wr, now);
        out.extend(actions.drain(..));
        self.rnic.recycle(actions);
    }

    /// Post on flow `i` until its pipeline is full or its plan exhausted.
    fn fill_flow(&mut self, i: usize, now: SimTime, out: &mut VecDeque<Action>) {
        loop {
            let f = &self.flows[i];
            if f.posted >= f.plan.num_msgs || f.outstanding >= f.plan.tx_depth {
                break;
            }
            self.post_one(i, now, out);
        }
    }

    /// Barrier mode: post exactly one message per QP per round; a new round
    /// starts only when every QP finished the previous one.
    fn start_round_if_idle(&mut self, now: SimTime, out: &mut VecDeque<Action>) {
        if self.busy_flows == 0 && self.unposted_flows > 0 {
            self.round += 1;
            for i in 0..self.flows.len() {
                if self.flows[i].posted < self.flows[i].plan.num_msgs {
                    self.post_one(i, now, out);
                }
            }
        }
    }

    fn on_completion(&mut self, c: Completion, ctx: &mut NodeCtx<'_>, out: &mut VecDeque<Action>) {
        let now = ctx.now();
        if c.is_recv {
            // Responder-side receive completion: account bytes only.
            return;
        }
        let Ok(i) = self.flows.binary_search_by_key(&c.qpn, |f| f.plan.qpn) else {
            return;
        };
        let flow = &mut self.flows[i];
        if flow.outstanding == 1 {
            self.busy_flows -= 1;
        }
        flow.outstanding = flow.outstanding.saturating_sub(1);
        let post_time = flow.post_times.remove(&c.wr_id);
        {
            let mut m = self.metrics.borrow_mut();
            let fm = m.flows.get_mut(&c.qpn).unwrap();
            match c.status {
                CompletionStatus::Success => {
                    flow.completed += 1;
                    fm.completed += 1;
                    fm.bytes += c.len as u64;
                    if let Some(p) = post_time {
                        let mct = c.time.saturating_since(p);
                        fm.mcts.push(mct);
                        ctx.telemetry()
                            .record_hist(ctx.telemetry_node(), "mct_ns", mct.as_nanos());
                    }
                    fm.last_completion = Some(c.time);
                }
                _ => {
                    flow.failed += 1;
                    fm.failed += 1;
                    fm.last_completion = Some(c.time);
                    tev!(
                        ctx.telemetry(),
                        now.as_nanos(),
                        ctx.telemetry_node(),
                        "gen",
                        "msg.failed",
                        qpn = c.qpn,
                        wr_id = c.wr_id,
                    );
                }
            }
        }
        if flow.completed + flow.failed == flow.plan.num_msgs {
            self.unfinished_flows -= 1;
            tev!(
                ctx.telemetry(),
                now.as_nanos(),
                ctx.telemetry_node(),
                "gen",
                "flow.done",
                qpn = c.qpn,
                completed = flow.completed,
                failed = flow.failed,
            );
        }
        if self.barrier_sync {
            self.start_round_if_idle(now, out);
        } else {
            // Every other flow is still full or exhausted: each was filled
            // to that point at start and after each of its own completions.
            self.fill_flow(i, now, out);
        }
        if self.unfinished_flows == 0 {
            let mut m = self.metrics.borrow_mut();
            if m.all_done_at.is_none() {
                m.all_done_at = Some(now);
            }
        }
    }
}

impl Node for HostNode {
    fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        let actions = self.rnic.on_frame(frame, now);
        self.apply_actions(actions, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut NodeCtx<'_>) {
        let now = ctx.now();
        if token == START_TOKEN {
            if self.role_is_requester {
                let mut first = VecDeque::new();
                if self.barrier_sync {
                    self.start_round_if_idle(now, &mut first);
                } else {
                    for i in 0..self.flows.len() {
                        self.fill_flow(i, now, &mut first);
                    }
                }
                self.apply_actions(first.into(), ctx);
            }
            return;
        }
        let actions = self.rnic.on_timer(token, now);
        self.apply_actions(actions, ctx);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lumina_packet::MacAddr;
    use lumina_rnic::ets::EtsConfig;
    use lumina_rnic::profile::DeviceProfile;
    use lumina_rnic::Verb;
    use lumina_rnic::qp::{QpConfig, QpEndpoint};
    use lumina_sim::{Bandwidth, Engine};
    use std::net::Ipv4Addr;

    fn qp_cfg(local_req: bool, mtu: u32) -> QpConfig {
        let req = QpEndpoint {
            ip: Ipv4Addr::new(10, 0, 0, 1),
            qpn: 0x11,
            ipsn: 100,
        };
        let rsp = QpEndpoint {
            ip: Ipv4Addr::new(10, 0, 0, 2),
            qpn: 0x22,
            ipsn: 200,
        };
        let (local, remote) = if local_req { (req, rsp) } else { (rsp, req) };
        QpConfig {
            local,
            remote,
            remote_mac: MacAddr::local(9),
            mtu,
            timeout_code: 14,
            retry_cnt: 7,
            adaptive_retrans: false,
            traffic_class: 0,
            dcqcn_rp: false,
            dcqcn_np: false,
            min_time_between_cnps: SimTime::from_micros(4),
            udp_src_port: 49152,
        }
    }

    /// Two hosts wired back-to-back (no switch): the simplest end-to-end
    /// sanity check of the host adapter.
    #[test]
    fn back_to_back_write_flow() {
        let mut eng = Engine::new(5);
        let mut req_rnic = Rnic::new(
            DeviceProfile::cx5(),
            EtsConfig::single_queue(),
            MacAddr::local(1),
        );
        req_rnic.create_qp(qp_cfg(true, 1024));
        let mut rsp_rnic = Rnic::new(
            DeviceProfile::cx5(),
            EtsConfig::single_queue(),
            MacAddr::local(2),
        );
        rsp_rnic.create_qp(qp_cfg(false, 1024));

        let m_req = crate::metrics::metrics_handle();
        let m_rsp = crate::metrics::metrics_handle();
        let req = HostNode::new(
            req_rnic,
            Role::Requester {
                plans: vec![FlowPlan {
                    qpn: 0x11,
                    verbs: vec![Verb::Write],
                    num_msgs: 10,
                    msg_size: 10_240,
                    tx_depth: 1,
                }],
                barrier_sync: true,
            },
            m_req.clone(),
            "requester",
        );
        let rsp = HostNode::new(rsp_rnic, Role::Responder, m_rsp, "responder");

        let req_id = eng.add_node(Box::new(req));
        let rsp_id = eng.add_node(Box::new(rsp));
        eng.connect(
            req_id,
            PortId(0),
            rsp_id,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_micros(1),
        );
        eng.schedule_timer(req_id, SimTime::ZERO, HostNode::start_token());
        let outcome = eng.run(Some(SimTime::from_secs(5)));
        assert!(outcome.is_quiescent(), "network should quiesce");

        let m = m_req.borrow();
        assert!(m.done());
        let f = &m.flows[&0x11];
        assert_eq!(f.completed, 10);
        assert_eq!(f.failed, 0);
        assert_eq!(f.bytes, 102_400);
        assert_eq!(f.mcts.len(), 10);
        // Single in-flight message of 10 KB over ~2 µs RTT: goodput well
        // below line rate but clearly positive.
        assert!(f.goodput_gbps() > 1.0, "goodput {}", f.goodput_gbps());
        // Every MCT ≥ RTT.
        for mct in &f.mcts {
            assert!(*mct >= SimTime::from_micros(2));
        }
    }

    #[test]
    fn read_flow_and_tx_depth_pipelining() {
        let mut eng = Engine::new(5);
        let mut req_rnic = Rnic::new(
            DeviceProfile::cx6_dx(),
            EtsConfig::single_queue(),
            MacAddr::local(1),
        );
        req_rnic.create_qp(qp_cfg(true, 1024));
        let mut rsp_rnic = Rnic::new(
            DeviceProfile::cx6_dx(),
            EtsConfig::single_queue(),
            MacAddr::local(2),
        );
        rsp_rnic.create_qp(qp_cfg(false, 1024));
        let m_req = crate::metrics::metrics_handle();
        let req = HostNode::new(
            req_rnic,
            Role::Requester {
                plans: vec![FlowPlan {
                    qpn: 0x11,
                    verbs: vec![Verb::Read],
                    num_msgs: 8,
                    msg_size: 20_480,
                    tx_depth: 4,
                }],
                barrier_sync: false,
            },
            m_req.clone(),
            "requester",
        );
        let rsp = HostNode::new(
            rsp_rnic,
            Role::Responder,
            crate::metrics::metrics_handle(),
            "responder",
        );
        let req_id = eng.add_node(Box::new(req));
        let rsp_id = eng.add_node(Box::new(rsp));
        eng.connect(
            req_id,
            PortId(0),
            rsp_id,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_micros(1),
        );
        eng.schedule_timer(req_id, SimTime::ZERO, HostNode::start_token());
        eng.run(Some(SimTime::from_secs(5)));
        let m = m_req.borrow();
        assert!(m.done());
        assert_eq!(m.flows[&0x11].completed, 8);
        assert_eq!(m.flows[&0x11].bytes, 8 * 20_480);
    }

    #[test]
    fn send_flow_with_preposted_recvs() {
        let mut eng = Engine::new(5);
        let mut req_rnic = Rnic::new(
            DeviceProfile::e810(),
            EtsConfig::single_queue(),
            MacAddr::local(1),
        );
        req_rnic.create_qp(qp_cfg(true, 1024));
        let mut rsp_rnic = Rnic::new(
            DeviceProfile::e810(),
            EtsConfig::single_queue(),
            MacAddr::local(2),
        );
        rsp_rnic.create_qp(qp_cfg(false, 1024));
        for i in 0..5 {
            rsp_rnic.post_recv(0x22, 900 + i, 4096);
        }
        let m_req = crate::metrics::metrics_handle();
        let m_rsp = crate::metrics::metrics_handle();
        let req = HostNode::new(
            req_rnic,
            Role::Requester {
                plans: vec![FlowPlan {
                    qpn: 0x11,
                    verbs: vec![Verb::Send],
                    num_msgs: 5,
                    msg_size: 4096,
                    tx_depth: 1,
                }],
                barrier_sync: false,
            },
            m_req.clone(),
            "requester",
        );
        let rsp = HostNode::new(rsp_rnic, Role::Responder, m_rsp, "responder");
        let req_id = eng.add_node(Box::new(req));
        let rsp_id = eng.add_node(Box::new(rsp));
        eng.connect(
            req_id,
            PortId(0),
            rsp_id,
            PortId(0),
            Bandwidth::gbps(100),
            SimTime::from_micros(1),
        );
        eng.schedule_timer(req_id, SimTime::ZERO, HostNode::start_token());
        eng.run(Some(SimTime::from_secs(5)));
        assert_eq!(m_req.borrow().flows[&0x11].completed, 5);
    }
}
