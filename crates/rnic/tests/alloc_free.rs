//! Exact heap-allocation count of the device's commonest timer, under a
//! counting global allocator (the twin of `lumina-sim`'s
//! `tests/alloc_free.rs`): a DCQCN alpha tick that re-arms itself, with
//! the action list handed back as `HostNode::apply_actions` does, must not
//! reach the allocator at all.

use lumina_packet::builder::cnp_frame;
use lumina_packet::MacAddr;
use lumina_rnic::device::token;
use lumina_rnic::ets::EtsConfig;
use lumina_rnic::profile::DeviceProfile;
use lumina_rnic::qp::{QpConfig, QpEndpoint};
use lumina_rnic::{Action, Rnic};
use lumina_sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    /// Allocator calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// `const`-initialised thread-local `Cell` with no destructor, so touching
// it neither allocates nor can observe a torn-down slot.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_dcqcn_alpha_tick_with_hand_back_allocates_nothing() {
    let local = QpEndpoint {
        ip: Ipv4Addr::new(10, 0, 0, 1),
        qpn: 0x11,
        ipsn: 100,
    };
    let remote = QpEndpoint {
        ip: Ipv4Addr::new(10, 0, 0, 2),
        qpn: 0x22,
        ipsn: 200,
    };
    let mut rnic = Rnic::new(
        DeviceProfile::cx6_dx(),
        EtsConfig::single_queue(),
        MacAddr::local(1),
    );
    rnic.create_qp(QpConfig {
        local,
        remote,
        remote_mac: MacAddr::local(2),
        mtu: 1024,
        timeout_code: 14,
        retry_cnt: 7,
        adaptive_retrans: false,
        traffic_class: 0,
        dcqcn_rp: true,
        dcqcn_np: false,
        min_time_between_cnps: SimTime::from_micros(4),
        udp_src_port: 49152,
    });

    // One CNP cuts the rate and starts the QP's alpha and rate timers.
    // Only alpha ticks are pumped, so the rate never recovers and the
    // alpha timer re-arms for good.
    let mut now = SimTime::from_micros(1);
    let cnp = cnp_frame(remote.ip, local.ip, local.qpn).emit();
    let armed = rnic.on_frame(cnp, now);
    let alpha = token::pack(token::DCQCN_ALPHA, local.qpn, 1);
    assert!(
        armed
            .iter()
            .any(|a| matches!(a, Action::ArmTimer { token, .. } if *token == alpha)),
        "{armed:?}"
    );
    rnic.recycle(armed);

    let mut tick = |rnic: &mut Rnic| {
        now += rnic.dcqcn_params.alpha_timer;
        let actions = rnic.on_timer(alpha, now);
        assert!(
            matches!(actions[..], [Action::ArmTimer { token, .. }] if token == alpha),
            "{actions:?}"
        );
        rnic.recycle(actions);
    };
    tick(&mut rnic);
    let before = ALLOCS.with(Cell::get);
    for _ in 0..10_000 {
        tick(&mut rnic);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0);
}
