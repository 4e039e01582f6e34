//! The test suite (§4): built-in analyzers over reconstructed traces.

// The analyzers run over capture-derived data, where a panic forfeits the
// verdict. Lint levels are inherited, so every analyzer below is covered.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod cnp;
pub mod conformance;
pub mod counter;
pub mod gbn_fsm;
pub mod latency;
pub mod recovery;
pub mod retrans_perf;
#[cfg(test)]
mod routed_tests;

pub use cnp::CnpReport;
pub use conformance::{
    ConformanceOpts, ConformanceReport, ConformanceStream, Violation, ViolationClass,
};
pub use counter::CounterFinding;
pub use gbn_fsm::GbnReport;
pub use latency::{HopVerdict, LatencyReport};
pub use recovery::{
    FlowAccount, LivenessViolation, QpEndState, RecoveryOpts, RecoveryReport, WindowRecovery,
};
pub use retrans_perf::{RetransBreakdown, RetransKind};

use crate::translate::ConnMeta;
use lumina_dumper::{Trace, TraceEntry};
use lumina_packet::RoceFrame;
use std::net::Ipv4Addr;

/// What names a connection on the wire, one direction of it: `(ipv4.src,
/// ipv4.dst, bth.dest_qp)`, packed so that a lookup compares one integer.
fn route_key(src: Ipv4Addr, dst: Ipv4Addr, dest_qp: u32) -> u128 {
    (u128::from(u32::from(src)) << 64) | (u128::from(u32::from(dst)) << 32) | u128::from(dest_qp)
}

/// Which connections a packet can belong to, by [`route_key`]: both
/// directions of every connection, so that an analyzer asks the owners of a
/// packet about it and not every connection. Owners are candidates — the
/// analyzer still applies its own tests to each — and a key may have
/// several: connections can share an IP pair, and both hosts may hand out
/// the same QPN. The keys come from captures, so this is a sorted slice and
/// not a hash table someone could aim collisions at.
#[derive(Default)]
pub(crate) struct Routes {
    /// `(key, connection)`, ascending and distinct.
    owners: Vec<(u128, usize)>,
    #[cfg(test)]
    mode: RouteMode,
}

/// How a [`Routes`] under test departs from routing.
#[cfg(test)]
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum RouteMode {
    #[default]
    Routed,
    /// Every connection owns every packet: the walk over all connections
    /// the analyzers made before there were routes, kept as the reference
    /// the routed reports are compared against.
    FullWalk,
    /// A connection keeps the keys it was first added with — what forgetting
    /// to re-route a connection when discovery binds its second QPN does.
    /// Gives the comparison its teeth.
    NoRebind,
}

impl Routes {
    /// The routes of `conns`; a connection is known by its position.
    pub(crate) fn of(conns: &[ConnMeta]) -> Routes {
        Routes::default().with(conns)
    }

    #[cfg(test)]
    pub(crate) fn in_mode(mode: RouteMode, conns: &[ConnMeta]) -> Routes {
        let routes = Routes {
            mode,
            ..Routes::default()
        };
        routes.with(conns)
    }

    fn with(mut self, conns: &[ConnMeta]) -> Routes {
        for (conn, meta) in conns.iter().enumerate() {
            self.add(conn, meta, true, true);
        }
        self
    }

    fn key(&self, src: Ipv4Addr, dst: Ipv4Addr, dest_qp: u32) -> u128 {
        #[cfg(test)]
        if self.mode == RouteMode::FullWalk {
            return 0;
        }
        route_key(src, dst, dest_qp)
    }

    /// Make `conn` an owner of its data-direction key and of the key of the
    /// control packets that flow the other way (ACKs and NACKs toward the
    /// requester; for a read, the re-issued requests toward the responder).
    /// A direction whose destination QPN is not yet known has no key; call
    /// again once it is.
    pub(crate) fn add(
        &mut self,
        conn: usize,
        meta: &ConnMeta,
        data_known: bool,
        reverse_known: bool,
    ) {
        #[cfg(test)]
        if self.mode == RouteMode::NoRebind && self.owners.iter().any(|&(_, c)| c == conn) {
            return;
        }
        let data = meta.data_conn_key();
        let reverse_qpn = meta.reverse_qpn();
        for (known, key) in [
            (data_known, self.key(data.src_ip, data.dst_ip, data.dst_qpn)),
            (
                reverse_known,
                self.key(data.dst_ip, data.src_ip, reverse_qpn),
            ),
        ] {
            if let (true, Err(at)) = (known, self.owners.binary_search(&(key, conn))) {
                self.owners.insert(at, (key, conn));
            }
        }
    }

    /// The connections that may own `f`, ascending.
    pub(crate) fn owners(&self, f: &RoceFrame) -> impl Iterator<Item = usize> + '_ {
        let key = self.key(f.ipv4.src, f.ipv4.dst, f.bth.dest_qp);
        let first = self.owners.partition_point(|&(k, _)| k < key);
        self.owners
            .get(first..)
            .unwrap_or_default()
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, conn)| conn)
    }
}

/// A trace split by connection in one pass: for each connection, in trace
/// order, the entries [`Routes`] gives it. Built once per report and read by
/// every per-connection analyzer, which then visits its own packets and not
/// the whole trace once per connection.
pub(crate) struct ConnIndex<'t> {
    per_conn: Vec<Vec<&'t TraceEntry>>,
}

impl<'t> ConnIndex<'t> {
    pub(crate) fn build(trace: &'t Trace, conns: &[ConnMeta]) -> ConnIndex<'t> {
        ConnIndex::routed(&Routes::of(conns), trace, conns.len())
    }

    fn routed(routes: &Routes, trace: &'t Trace, conns: usize) -> ConnIndex<'t> {
        let mut per_conn = vec![Vec::new(); conns];
        for e in trace.iter() {
            for conn in routes.owners(&e.frame) {
                if let Some(entries) = per_conn.get_mut(conn) {
                    entries.push(e);
                }
            }
        }
        ConnIndex { per_conn }
    }

    /// The entries of the `conn`-th connection of the roster the index was
    /// built from.
    pub(crate) fn of_conn(&self, conn: usize) -> &[&'t TraceEntry] {
        self.per_conn.get(conn).map_or(&[], Vec::as_slice)
    }
}
