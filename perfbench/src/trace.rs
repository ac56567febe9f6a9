//! Layer self times measured from outside the program.
//!
//! A traced op calls the same public functions as the untraced op, each
//! inside [`span`]. A layer's *self* time is its spans' duration minus the
//! time of the spans nested in them (serve's replay encodes inside the
//! simulator's observer, so `serve.encode` nests in `net.sim`).
//!
//! While a span is open, the counting allocator ([`crate::alloc`])
//! attributes this thread's allocations to its layer. The span's own
//! bookkeeping runs with no layer current, so it is never charged to one.

use crate::alloc;
use std::cell::RefCell;
use std::time::Instant;

/// A layer of the program, named as its crate and stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Mpdu::build` and `freerider_wifi::Transmitter::transmit`.
    WifiTx,
    /// `Channel::new`, `Channel::propagate` and `propagate_padded`.
    Channel,
    /// `Interferer::new` and `Interferer::add_to`.
    ChannelInterference,
    /// The tag's translators: `capacity` and `translate`.
    Tag,
    /// `freerider_wifi::Receiver::receive` / `receive_with`.
    WifiRx,
    /// `freerider_core::decoder::decode_*`.
    CoreDecode,
    /// `Transmitter::new` and `Receiver::new` of every PHY.
    PhySetup,
    /// `freerider_zigbee::Transmitter::transmit`.
    ZigbeeTx,
    /// `freerider_zigbee::Receiver::receive`.
    ZigbeeRx,
    /// `freerider_ble::Transmitter::transmit`.
    BleTx,
    /// `freerider_ble::Receiver::receive`.
    BleRx,
    /// `DeploymentSim::new` and `run_observed` (self time).
    NetSim,
    /// `wire::encode_progress`, `encode_tags` and `encode_report`.
    ServeEncode,
    /// `wire::decode_*` on the client.
    ClientDecode,
    /// `frame::read_frame` on the client: waiting for the server.
    ServeWait,
}

/// Number of layers.
pub const N_LAYERS: usize = 15;

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::WifiTx,
        Layer::Channel,
        Layer::ChannelInterference,
        Layer::Tag,
        Layer::WifiRx,
        Layer::CoreDecode,
        Layer::PhySetup,
        Layer::ZigbeeTx,
        Layer::ZigbeeRx,
        Layer::BleTx,
        Layer::BleRx,
        Layer::NetSim,
        Layer::ServeEncode,
        Layer::ClientDecode,
        Layer::ServeWait,
    ];

    /// The metric prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::WifiTx => "wifi.tx",
            Layer::Channel => "channel",
            Layer::ChannelInterference => "channel.interference",
            Layer::Tag => "tag",
            Layer::WifiRx => "wifi.rx",
            Layer::CoreDecode => "core.decode",
            Layer::PhySetup => "phy.setup",
            Layer::ZigbeeTx => "zigbee.tx",
            Layer::ZigbeeRx => "zigbee.rx",
            Layer::BleTx => "ble.tx",
            Layer::BleRx => "ble.rx",
            Layer::NetSim => "net.sim",
            Layer::ServeEncode => "serve.encode",
            Layer::ClientDecode => "client.decode",
            Layer::ServeWait => "serve.wait",
        }
    }

    /// Index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

struct Open {
    start: Instant,
    child_ns: u64,
}

struct State {
    stack: Vec<Open>,
    self_ns: [u64; N_LAYERS],
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State {
        stack: Vec::with_capacity(8),
        self_ns: [0; N_LAYERS],
    });
}

/// Runs `f` as one span of `layer`.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    let parent = alloc::set_current(None);
    STATE.with(|s| {
        s.borrow_mut().stack.push(Open {
            start: Instant::now(),
            child_ns: 0,
        })
    });
    alloc::set_current(Some(layer));
    let out = f();
    alloc::set_current(None);
    let end = Instant::now();
    STATE.with(|s| {
        let s = &mut *s.borrow_mut();
        let open = s.stack.pop().expect("span stack is balanced");
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        s.self_ns[layer.index()] += dur_ns.saturating_sub(open.child_ns);
        if let Some(outer) = s.stack.last_mut() {
            outer.child_ns += dur_ns;
        }
    });
    alloc::set_current(parent);
    out
}

/// Per-layer self time recorded so far on this thread, nanoseconds.
pub fn self_ns() -> [u64; N_LAYERS] {
    STATE.with(|s| s.borrow().self_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_span_time_is_not_counted_twice() {
        let ms = std::time::Duration::from_millis;
        let before = self_ns();
        let t = Instant::now();
        span(Layer::NetSim, || {
            std::thread::sleep(ms(20));
            span(Layer::ServeEncode, || std::thread::sleep(ms(10)));
        });
        let total = t.elapsed().as_nanos() as u64;
        let after = self_ns();
        let sim = after[Layer::NetSim.index()] - before[Layer::NetSim.index()];
        let enc = after[Layer::ServeEncode.index()] - before[Layer::ServeEncode.index()];
        assert!(enc >= 10_000_000, "inner self time {enc} ns");
        assert!(sim >= 20_000_000, "outer self time {sim} ns");
        // Self times partition the outer span: nothing is counted twice.
        assert!(sim + enc <= total, "{sim} + {enc} > {total} ns");
    }
}
