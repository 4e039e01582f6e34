//! The device's QPs, and what each currently offers the egress scheduler.
//!
//! A scheduling decision needs every QP that has data to send, in
//! round-robin order. Asking all of them on every decision costs O(QPs)
//! per event, most of it spent on QPs that were idle before and still
//! are. Hardware does not poll either: a doorbell puts a QP on a ready
//! list. Here the doorbell is the borrow — [`QpTable::get_mut`] is the only
//! way to a `&mut Qp`, and it marks the slot *dirty*. A walk re-reads the
//! dirty slots, moves them on or off the ready list as their answer
//! changed, and then reads the ready list alone.
//!
//! Dirty means "may have changed", nothing more: a slot whose QP was
//! borrowed and left as it was costs one re-read at the next walk. The
//! fields are private so that no code outside this module can reach a QP
//! around the mark.

use crate::device::Rnic;
use crate::ets::TxCandidate;
use crate::qp::Qp;
use lumina_sim::SimTime;
use std::cell::OnceCell;

/// What one QP offers the scheduler: the sizes of its head request packet
/// and head read-response packet (each present only while that side has
/// work), and the class and pacing instant both share.
#[derive(Clone, Copy, Default)]
struct Offer {
    /// The QP was borrowed mutably after this offer was computed.
    dirty: bool,
    tc: usize,
    eligible_at: SimTime,
    req: Option<usize>,
    read_resp: Option<usize>,
}

impl Offer {
    fn of(qp: &Qp) -> Offer {
        Offer {
            dirty: false,
            tc: qp.cfg.traffic_class,
            eligible_at: qp.next_allowed_tx,
            req: qp.has_tx_work().then(|| Rnic::peek_req_size(qp)),
            read_resp: qp
                .has_read_resp_work()
                .then(|| Rnic::peek_read_resp_size(qp)),
        }
    }

    fn is_ready(&self) -> bool {
        self.req.is_some() || self.read_resp.is_some()
    }
}

/// Marks a vacant [`Index`] cell (in its slot half; any `u32` is a QPN).
const VACANT: u32 = u32::MAX;

/// QPN → slot, open-addressed: a power-of-two array of `(qpn, slot)`
/// cells at most a quarter full, probed linearly from the QPN's Fibonacci
/// hash — one multiply, and almost always one cell read. QPNs are the
/// device's own (random high bits over a serial low byte), not outside
/// input, so a fixed hash is enough.
struct Index {
    /// `32 - log2(cells.len())`: the hash keeps the product's top bits.
    shift: u32,
    cells: Box<[(u32, u32)]>,
}

impl Index {
    fn of(qpns: &[u32]) -> Index {
        let len = (qpns.len() * 4).next_power_of_two().max(2);
        let mut index = Index {
            shift: 32 - len.trailing_zeros(),
            cells: vec![(0, VACANT); len].into(),
        };
        for (slot, &qpn) in qpns.iter().enumerate() {
            let mut at = index.home(qpn);
            while index.cells[at].1 != VACANT {
                at = (at + 1) & (len - 1);
            }
            index.cells[at] = (qpn, slot as u32);
        }
        index
    }

    fn home(&self, qpn: u32) -> usize {
        (qpn.wrapping_mul(0x9e37_79b9) >> self.shift) as usize
    }

    fn lookup(&self, qpn: u32) -> Option<usize> {
        let mut at = self.home(qpn);
        // Three cells in four are vacant, so the probe ends.
        loop {
            let (key, slot) = self.cells[at];
            if slot == VACANT {
                return None;
            }
            if key == qpn {
                return Some(slot as usize);
            }
            at = (at + 1) & (self.cells.len() - 1);
        }
    }
}

/// QPs in ascending QPN order. Slot `i` is `qpns[i]`, `qps[i]`,
/// `offers[i]`; the QPNs sit apart from the (large) QPs so the order is
/// one small array.
///
/// An insert moves slots, so everything derived from them — the lookup
/// index, the offers, the dirty and ready lists — is dropped there and
/// built once by whatever needs it next: the index by the first lookup,
/// the rest by the first walk. Creating N QPs costs N placements, not N
/// rebuilds.
#[derive(Default)]
pub(crate) struct QpTable {
    qpns: Vec<u32>,
    qps: Vec<Qp>,
    /// Unset from an insert to the next lookup.
    index: OnceCell<Index>,
    /// Empty from an insert to the next walk: every slot is then due a
    /// read, and [`QpTable::get_mut`] has nothing to mark.
    offers: Vec<Offer>,
    /// Slots whose offer is marked dirty, in no order.
    dirty: Vec<usize>,
    /// Slots whose (clean) offer is non-empty, ascending.
    ready: Vec<usize>,
}

impl QpTable {
    /// All QPNs, ascending.
    pub(crate) fn qpns(&self) -> &[u32] {
        &self.qpns
    }

    /// Install `qp` under `qpn`. Panics on a duplicate QPN.
    pub(crate) fn insert(&mut self, qpn: u32, qp: Qp) {
        let Err(at) = self.qpns.binary_search(&qpn) else {
            panic!("duplicate QPN {qpn:#x}");
        };
        self.qpns.insert(at, qpn);
        self.qps.insert(at, qp);
        self.index.take();
        self.offers.clear();
        self.dirty.clear();
        self.ready.clear();
    }

    /// The slot of `qpn`.
    pub(crate) fn lookup(&self, qpn: u32) -> Option<usize> {
        self.index.get_or_init(|| Index::of(&self.qpns)).lookup(qpn)
    }

    /// The QPN in slot `i`.
    pub(crate) fn qpn(&self, i: usize) -> u32 {
        self.qpns[i]
    }

    /// Read the QP in slot `i`.
    pub(crate) fn get(&self, i: usize) -> &Qp {
        &self.qps[i]
    }

    /// Borrow the QP in slot `i` for writing; its offer is re-read at the
    /// next walk.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut Qp {
        if let Some(offer) = self.offers.get_mut(i).filter(|offer| !offer.dirty) {
            offer.dirty = true;
            self.dirty.push(i);
        }
        &mut self.qps[i]
    }

    /// Recompute every dirty offer and keep the ready list in step.
    fn refresh(&mut self) {
        if self.offers.len() != self.qps.len() {
            let unread = Offer { dirty: true, ..Offer::default() };
            self.offers.resize(self.qps.len(), unread);
            self.dirty.extend(0..self.qps.len());
        }
        while let Some(i) = self.dirty.pop() {
            let was_ready = self.offers[i].is_ready();
            self.offers[i] = Offer::of(&self.qps[i]);
            if was_ready != self.offers[i].is_ready() {
                let at = self.ready.partition_point(|&r| r < i);
                if was_ready {
                    self.ready.remove(at);
                } else {
                    self.ready.insert(at, i);
                }
            }
        }
    }

    /// Append every transmit candidate to the scratch, in round-robin
    /// order: slots ascending, rotated to start at `cursor` (taken modulo
    /// the QP count); within a QP, request work before read-response work.
    /// Exactly what asking every QP in that order would append.
    pub(crate) fn offer_all(
        &mut self,
        cursor: usize,
        cands: &mut Vec<TxCandidate>,
        owners: &mut Vec<(u32, bool)>,
    ) {
        self.refresh();
        let start = cursor % self.qpns.len().max(1);
        let split = self.ready.partition_point(|&r| r < start);
        let (before, from) = self.ready.split_at(split);
        for &i in from.iter().chain(before) {
            self.push(i, cands, owners);
        }
    }

    /// Append slot `i`'s candidates alone.
    pub(crate) fn offer_one(
        &mut self,
        i: usize,
        cands: &mut Vec<TxCandidate>,
        owners: &mut Vec<(u32, bool)>,
    ) {
        self.refresh();
        self.push(i, cands, owners);
    }

    fn push(&self, i: usize, cands: &mut Vec<TxCandidate>, owners: &mut Vec<(u32, bool)>) {
        let offer = &self.offers[i];
        let heads = [(false, offer.req), (true, offer.read_resp)];
        for (is_read_resp, size) in heads {
            if let Some(size) = size {
                owners.push((self.qpns[i], is_read_resp));
                cands.push(TxCandidate {
                    tc: offer.tc,
                    eligible_at: offer.eligible_at,
                    size,
                });
            }
        }
    }
}
