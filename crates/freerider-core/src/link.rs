//! End-to-end single-tag backscatter links.
//!
//! Each link wires the full pipeline of Fig. 1 of the paper:
//!
//! ```text
//! excitation TX ──(direct channel)──► receiver 1  (original decode)
//!        │
//!        └─(TX→tag channel)─► tag: codeword translation + freq shift
//!                 └─(tag→RX channel)─► receiver 2  (backscatter decode)
//!                                          │
//!                orig bits ⊕ backscatter bits ──► tag data
//! ```
//!
//! The excitation radio keeps doing *productive* communication: the link
//! verifies receiver 1 still gets FCS-valid packets while the tag rides
//! on them.
//!
//! One packet loop, `run_link`, runs every link and every Fig. 16 window
//! (`crate::coexist`). A PHY supplies only what differs through the
//! crate-private `Phy` trait, implemented by each link's `Radios`: its
//! transmitter and receivers, its tag and its XOR decode.

use crate::decoder;
use crate::metrics::LinkStats;
use freerider_channel::channel::Channel;
pub use freerider_channel::channel::{Fading, Multipath};
use freerider_channel::interference::Interferer;
use freerider_channel::BackscatterBudget;
use freerider_dsp::Complex;
use freerider_rt::executor::Pipeline;
use freerider_rt::{derive_seed, stream, Executor, Rng64};
use freerider_tag::translator::{FskTranslator, PhaseTranslator};
use freerider_telemetry::trace;
use std::cell::Cell;

/// Configuration shared by the three technology links.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// The calibrated link budget (includes deployment geometry model).
    pub budget: BackscatterBudget,
    /// Excitation-transmitter-to-tag distance, metres (1 m in §4.1).
    pub d_tx_tag_m: f64,
    /// Tag-to-receiver distance, metres (the swept variable).
    pub d_tag_rx_m: f64,
    /// Excitation payload length, bytes.
    pub payload_len: usize,
    /// Packets to run.
    pub packets: usize,
    /// Fading on the backscatter path.
    pub fading: Fading,
    /// Frequency-selective multipath on the backscatter path (`None` =
    /// flat). The experiment presets enable the calibrated per-technology
    /// profiles; unit tests keep the flat channel for determinism.
    pub multipath: Option<Multipath>,
    /// Oscillator phase-noise random walk, radians per √sample.
    pub phase_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl LinkConfig {
    /// The paper's default geometry: tag 1 m from the transmitter.
    pub fn new(budget: BackscatterBudget, d_tag_rx_m: f64, seed: u64) -> Self {
        LinkConfig {
            budget,
            d_tx_tag_m: 1.0,
            d_tag_rx_m,
            payload_len: 1000,
            packets: 20,
            fading: Fading::Rician { k_db: 9.0 },
            multipath: None,
            phase_noise: 0.0,
            seed,
        }
    }
}

/// RSSI at which receiver 1 (co-located with the excitation TX) hears the
/// original signal — strong by construction.
const REFERENCE_RSSI_DBM: f64 = -45.0;

/// How a run draws each packet's payload from its RNG.
///
/// Both orders stay because each is pinned by outputs that already exist:
/// the links draw packed bytes (`Rng64::bytes`), WiFi drawing a random
/// sequence number first, and every link figure rests on that; the Fig. 16
/// windows draw one `Rng64::byte` per byte with sequence number 0, and the
/// Fig. 16 CDFs rest on that. Neither can change without moving its figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Draws {
    /// `Rng64::bytes`, after a random WiFi sequence number.
    Packed,
    /// One `Rng64::byte` per payload byte; WiFi sequence number 0.
    PerByte,
}

impl Draws {
    fn payload(self, len: usize, rng: &mut Rng64) -> Vec<u8> {
        match self {
            Draws::Packed => rng.bytes(len),
            Draws::PerByte => (0..len).map(|_| rng.byte()).collect(),
        }
    }
}

/// Receiver 1 (the productive link, hearing the excitation directly) or
/// receiver 2 (hearing the tag's backscatter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leg {
    Reference,
    Backscatter,
}

/// What one commodity PHY brings to [`run_link`]: its radios, its tag and
/// its XOR decode. Everything else about a backscatter packet is shared.
pub(crate) trait Phy: Sync {
    /// One receiver's working memory.
    type Scratch: Default + Send;
    /// A decoded packet, possibly borrowing its receiver's scratch.
    type Rx<'s>;
    /// Receiver 2's decoded packet, owned, so it can leave the thread that
    /// decoded it: what [`Phy::decode`] and [`Phy::rssi_dbm`] read.
    type Back: Send;
    /// Baseband sample rate, samples/second.
    const SAMPLE_RATE: f64;
    /// Largest payload the PHY's frame carries, bytes.
    const MAX_PAYLOAD: usize;
    /// Noise samples on each side of the packet receiver 2 hears.
    const PAD: usize;
    /// Flight-recorder scope of one packet.
    const SCOPE: &'static str;
    /// Failure label of a reference packet whose FCS/CRC fails.
    const REF_CHECK_FAILED: &'static str;

    /// The configuration of the link these radios run.
    fn config(&self) -> &LinkConfig;
    /// Draws a `len`-byte payload from `rng` in `draws` order and
    /// modulates it.
    fn transmit(&self, draws: Draws, len: usize, rng: &mut Rng64) -> Vec<Complex>;
    /// Decodes `heard` on `leg`'s receiver, or names the failure.
    fn receive<'s>(
        &self,
        leg: Leg,
        heard: &[Complex],
        scratch: &'s mut Self::Scratch,
    ) -> Result<Self::Rx<'s>, &'static str>;
    /// Receiver 2's `rx` as a [`Phy::Back`], reusing `spare`'s buffers
    /// if given.
    fn own(&self, rx: Self::Rx<'_>, spare: Option<Self::Back>) -> Self::Back;
    /// Whether the packet's FCS/CRC checks out.
    fn check_ok(rx: &Self::Rx<'_>) -> bool;
    /// The RSSI receiver 2 reported, dBm.
    fn rssi_dbm(back: &Self::Back) -> f64;
    /// Tag bits the tag embeds in a packet of `len` samples.
    fn capacity(&self, len: usize) -> usize;
    /// The tag's translation of `wave` into `tagged`, returning the tag
    /// bits it consumed.
    fn translate(&self, wave: &[Complex], tag_bits: &[u8], tagged: &mut Vec<Complex>) -> usize;
    /// The XOR decode of the tag bits from the two receivers' packets.
    fn decode(&self, original: &Self::Rx<'_>, backscattered: &Self::Back) -> Vec<u8>;
}

/// Receiver 2's packet, owned, or the label of its failure.
type Decoded<B> = Result<B, &'static str>;

/// One packet's receiver-2 leg as it crosses between [`run_link`]'s two
/// stages: the tag's waveform, and receiver 2's packet once decoded, clean
/// and, when the run carries an interferer, interfered. Its buffers come
/// back with the result and carry a later packet.
struct BackLeg<B> {
    tagged: Vec<Complex>,
    clean: Decoded<B>,
    interfered: Option<Decoded<B>>,
}

/// The backscatter packet loop of Fig. 1, for every PHY: `packets`
/// excitation packets through receiver 1, the tag, the backscatter channel
/// and receiver 2, then the XOR decode.
///
/// Returns the statistics of receiver 2's clean decodes and, when the run
/// carries an `interferer`, those of a second decode of each packet with
/// the interferer added: the two windows of a Fig. 16 pair from one
/// excitation leg. Both share the airtime, the productive frames and the
/// tag bits sent; each has its own decoded packets, compared and correct
/// tag bits and measured RSSI.
///
/// Receiver 2's side runs as the second stage of an
/// [`Executor::pipeline`]: for the whole run, the stage owns the
/// backscatter channel, the interferer, receiver 2's scratch and its
/// receive buffer, and turns each packet's tagged waveform into receiver
/// 2's packet. With an interferer, it then adds the interferer in place to
/// the samples it just decoded (the clean packet is already owned) and
/// decodes again. The caller runs the excitation TX, the tag and receiver 1.
/// As soon as receiver 1 decides whether the packet counts, the caller
/// commits the payload RNG and makes the next packet (its TX, tag-bit
/// draws and translation), so that work overlaps this packet's receiver-2
/// leg; then it takes receiver 2's packet and XOR-decodes it. The tag bits
/// are drawn from a clone of the payload RNG, committed only when receiver
/// 1 decoded, and a reference failure makes the pipeline roll the
/// backscatter channel and interferer back, exactly as if the leg never
/// ran, so the statistics are the same bits on any executor. Serially the
/// stage runs where the loop's `keep` is, so the flight recorder and the
/// profiler see the serial program's events: the TX and the tag record
/// none.
pub(crate) fn run_link<P: Phy>(
    phy: &P,
    draws: Draws,
    interferer: Option<Interferer>,
    exec: Executor,
    [reference, backscatter]: &mut [P::Scratch; 2],
) -> (LinkStats, Option<LinkStats>) {
    let cfg = phy.config();
    let mut rng = Rng64::derive(cfg.seed, stream::PAYLOAD);
    let rssi = cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m);
    let floor = cfg.budget.noise_floor_dbm;
    let mut ref_channel = Channel::new(
        REFERENCE_RSSI_DBM,
        floor,
        Fading::None,
        derive_seed(cfg.seed, stream::REF_CHANNEL),
    );
    let mut back_channel = Channel::new(
        rssi,
        floor,
        cfg.fading,
        derive_seed(cfg.seed, stream::BACK_CHANNEL),
    )
    .with_phase_noise(cfg.phase_noise);
    if let Some(mp) = cfg.multipath {
        back_channel = back_channel.with_multipath(mp);
    }

    let mut stats = LinkStats::new(rssi);
    let mut interfered_stats = interferer.is_some().then(|| LinkStats::new(rssi));
    if !cfg.budget.tag_operational(cfg.d_tx_tag_m) {
        // The excitation cannot power the tag's front end (§4.3's
        // TX-to-tag bound): nothing is backscattered at all.
        return (stats, interfered_stats);
    }
    let payload_len = cfg.payload_len.min(P::MAX_PAYLOAD);
    let mut heard_back = Vec::new();
    let receiver_2 =
        |(channel, interferer): &mut (Channel, Option<Interferer>),
         (tagged, [spare, interfered_spare]): (Vec<Complex>, [Option<P::Back>; 2])| {
            channel.propagate_padded_into(&tagged, P::PAD, &mut heard_back);
            let mut decode = |heard: &[Complex], spare| {
                let packet = phy.receive(Leg::Backscatter, heard, backscatter);
                packet.map(|rx| phy.own(rx, spare))
            };
            let clean = decode(&heard_back, spare);
            let interfered = interferer.as_mut().map(|i| {
                i.add_to(&mut heard_back);
                decode(&heard_back, interfered_spare)
            });
            BackLeg {
                tagged,
                clean,
                interfered,
            }
        };
    // Transmits the next packet and readies its receiver-2 leg: the tag
    // bits come from a clone of the payload RNG, returned for the caller
    // to commit, and the tag translates into `tagged` for the pipeline.
    let next_packet =
        |rng: &mut Rng64, mut tagged: Vec<Complex>, spares, pipe: &mut Pipeline<'_, _, _, _>| {
            let wave = phy.transmit(draws, payload_len, rng);
            let mut tagging = rng.clone();
            let tag_bits = tagging.bits(phy.capacity(wave.len()));
            let consumed = phy.translate(&wave, &tag_bits, &mut tagged);
            debug_assert_eq!(consumed, tag_bits.len());
            pipe.push((tagged, spares));
            (wave, tagging, tag_bits)
        };
    exec.pipeline((back_channel, interferer), receiver_2, |pipe| {
        // Two sample buffers cycle through the loop: one holds what
        // receiver 1 hears and then the next packet's tagged waveform,
        // while receiver 2's stage works on the other.
        let mut heard_ref = Vec::new();
        let mut spares = Default::default();
        let mut next = None;
        for i in 0..cfg.packets {
            // One flight-recorder scope per excitation packet; the id is
            // derived from (seed, index) so it is worker-count independent.
            let _pkt = trace::packet(P::SCOPE, derive_seed(cfg.seed, i as u64));
            let (wave, tagging, tag_bits) = next
                .take()
                .unwrap_or_else(|| next_packet(&mut rng, Vec::new(), Default::default(), pipe));
            stats.add_airtime(wave.len() as f64 / P::SAMPLE_RATE);

            ref_channel.propagate_into(&wave, &mut heard_ref);
            drop(wave);
            let ref_rx = phy.receive(Leg::Reference, &heard_ref, reference);
            // Only the *reference* copy is expected to pass the check;
            // the backscattered copy fails it by design.
            let failure = match &ref_rx {
                Ok(p) => (!P::check_ok(p)).then_some(P::REF_CHECK_FAILED),
                Err(label) => Some(*label),
            };
            if let Some(label) = failure {
                trace::fail(label);
            }
            stats.note_productive(failure.is_none());
            pipe.keep(ref_rx.is_ok());
            if ref_rx.is_ok() {
                rng = tagging;
            }
            if i + 1 < cfg.packets {
                let buffer = std::mem::take(&mut heard_ref);
                next = Some(next_packet(
                    &mut rng,
                    buffer,
                    std::mem::take(&mut spares),
                    pipe,
                ));
            }
            let (Ok(original), Some(leg)) = (ref_rx, pipe.pop()) else {
                continue;
            };
            let BackLeg {
                tagged,
                clean,
                interfered,
            } = leg;
            heard_ref = tagged;
            let note = |stats: &mut LinkStats, packet: &Decoded<P::Back>| match packet {
                Ok(back) => {
                    stats.note_measured_rssi(P::rssi_dbm(back));
                    stats.note_decoded(&tag_bits, &phy.decode(&original, back));
                }
                Err(label) => {
                    trace::fail(label);
                    stats.note_lost();
                }
            };
            stats.note_sent(tag_bits.len());
            note(&mut stats, &clean);
            if let (Some(s), Some(packet)) = (&mut interfered_stats, &interfered) {
                note(s, packet);
            }
            spares = [clean.ok(), interfered.and_then(Result::ok)];
        }
    });
    // The interfered decodes ride on the clean run's packets.
    if let Some(s) = &mut interfered_stats {
        s.packets_sent = stats.packets_sent;
        s.productive_ok = stats.productive_ok;
        s.tag_bits_sent = stats.tag_bits_sent;
        s.airtime_s = stats.airtime_s;
    }
    (stats, interfered_stats)
}

/// A link's radios for one run: receivers 1 and 2, indexed by [`Leg`].
pub(crate) struct Radios<'a, L, R> {
    link: &'a L,
    rx: [R; 2],
}

/// The 802.11g/n backscatter link.
#[derive(Debug, Clone)]
pub struct WifiLink {
    /// Link configuration.
    pub config: LinkConfig,
    /// The tag's phase translator.
    pub translator: PhaseTranslator,
    /// Tag data encoding: binary Δθ=180° (Eq. 4) or quaternary Δθ=90°
    /// (Eq. 5).
    pub scheme: WifiTagScheme,
    /// Excitation MCS. The paper's evaluation runs at 6 Mbps BPSK; the
    /// binary π translation is equally a valid codeword translation on
    /// QPSK (both bits of a symbol complement), so 12/18 Mbps excitation
    /// works too. 16/64-QAM excitation does *not* XOR-decode (a π flip
    /// complements only the sign bits — see
    /// `freerider_wifi::mapping::tests::pi_rotation_flips_only_sign_bits_of_qam16`).
    pub excitation_rate: freerider_wifi::Mcs,
    /// Backscatter-receiver configuration (the `ablation-pilots` bench
    /// sets `phase_tracking` to `FullPilot` here).
    pub rx_config: freerider_wifi::RxConfig,
}

/// The two tag-data encodings of §2.3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WifiTagScheme {
    /// Eq. 4: Δθ = 180°, one tag bit per window, decoded by bit XOR.
    Binary,
    /// Eq. 5: Δθ = 90°, two tag bits per window, decoded from the
    /// equalised constellations.
    Quaternary,
}

/// Reusable working memory for one [`WifiLink`] worker: one receive
/// arena per receiver (receiver 1's, then receiver 2's), so both decoded
/// copies of a packet stay live at once while everything underneath is
/// reused packet to packet.
#[derive(Debug, Clone, Default)]
pub struct WifiLinkScratch(pub(crate) [freerider_wifi::RxScratch; 2]);

impl WifiLinkScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    /// The receive arenas of every WiFi run on this thread that is not
    /// handed a scratch ([`WifiLink::run`], so every distance of a sweep,
    /// and the Fig. 16 windows), as `freerider_wifi::Receiver::receive`
    /// keeps one per-thread arena. A long-lived thread decodes every such
    /// run warm; a scoped executor worker gets its own pair, released
    /// when it exits.
    static THREAD_SCRATCH: Cell<Option<WifiLinkScratch>> = const { Cell::new(None) };
}

/// Runs `f` on this thread's [`WifiLinkScratch`]. The pair is taken out
/// for the call, so a run nested inside `f`, or one on a thread whose
/// locals are being torn down, decodes into a fresh pair instead of
/// panicking. The arenas are scratch memory only, so the result is the
/// same bits on a warm pair, a cold one or any other thread's.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut WifiLinkScratch) -> R) -> R {
    let mut pair = THREAD_SCRATCH
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default();
    let r = f(&mut pair);
    // An error here means the thread is exiting; the pair is dropped.
    let _ = THREAD_SCRATCH.try_with(|cell| cell.set(Some(pair)));
    r
}

impl WifiLink {
    /// Creates the paper's standard WiFi link (6 Mbps excitation, binary
    /// 180° translation over 4-symbol windows).
    pub fn new(config: LinkConfig) -> Self {
        WifiLink {
            config,
            translator: PhaseTranslator::wifi_binary(),
            scheme: WifiTagScheme::Binary,
            excitation_rate: freerider_wifi::Mcs::Bpsk12,
            rx_config: freerider_wifi::RxConfig::default(),
        }
    }

    /// Creates the higher-rate quaternary link (Eq. 5): 2 tag bits per
    /// 4-symbol window ⇒ ~125 kbps in-packet.
    ///
    /// Quaternary translation is only a *valid codeword translation* when
    /// π/2 is a symmetry of the excitation constellation, so this link
    /// excites at 12 Mbps QPSK. The receiver's decision-directed tracker
    /// (fourth-power on QPSK, blind mod π/2) then passes the tag's
    /// rotations through while still tracking drift — robust even on long
    /// packets, unlike `PhaseTracking::Off`.
    pub fn new_quaternary(config: LinkConfig) -> Self {
        WifiLink {
            config,
            translator: PhaseTranslator::wifi_quaternary(),
            scheme: WifiTagScheme::Quaternary,
            excitation_rate: freerider_wifi::Mcs::Qpsk12,
            rx_config: freerider_wifi::RxConfig::default(),
        }
    }

    /// Runs the link, returning aggregate statistics. It decodes into this
    /// thread's receive arenas, warm from the thread's previous WiFi run.
    pub fn run(&self) -> LinkStats {
        with_thread_scratch(|scratch| self.run_with(scratch))
    }

    /// [`WifiLink::run`] with caller-provided receive arenas.
    /// Statistics are bit-identical to [`WifiLink::run`].
    ///
    /// Receiver 2 runs on a helper thread for the whole run, beside the
    /// TX, the tag and receiver 1, when the environment's executor allows
    /// it (see [`Executor::pipeline`]); the statistics are the same bits
    /// either way.
    pub fn run_with(&self, scratch: &mut WifiLinkScratch) -> LinkStats {
        let exec = Executor::from_env();
        run_link(&self.radios(), Draws::Packed, None, exec, &mut scratch.0).0
    }

    /// The link's radios for one run.
    pub(crate) fn radios(&self) -> Radios<'_, Self, freerider_wifi::Receiver> {
        use freerider_wifi::{Receiver, RxConfig};
        let reference = RxConfig {
            sensitivity_dbm: -200.0,
            ..self.rx_config
        };
        Radios {
            link: self,
            rx: [Receiver::new(reference), Receiver::new(self.rx_config)],
        }
    }
}

impl Phy for Radios<'_, WifiLink, freerider_wifi::Receiver> {
    type Scratch = freerider_wifi::RxScratch;
    type Rx<'s> = &'s freerider_wifi::RxPacket;
    type Back = freerider_wifi::RxPacket;
    const SAMPLE_RATE: f64 = freerider_wifi::SAMPLE_RATE;
    // Header + payload + FCS never exceeds the 4095-byte PSDU.
    const MAX_PAYLOAD: usize = freerider_wifi::plcp::MAX_PSDU_LEN
        - freerider_wifi::frame::HEADER_LEN
        - freerider_wifi::frame::FCS_LEN;
    const PAD: usize = 200;
    const SCOPE: &'static str = "wifi.link";
    const REF_CHECK_FAILED: &'static str = "wifi.ref.fcs_bad";

    fn config(&self) -> &LinkConfig {
        &self.link.config
    }

    fn transmit(&self, draws: Draws, len: usize, rng: &mut Rng64) -> Vec<Complex> {
        use freerider_wifi::{frame::MacAddr, Mpdu, Transmitter, TxConfig};
        let seq = match draws {
            Draws::Packed => rng.below(4096) as u16,
            Draws::PerByte => 0,
        };
        let payload = draws.payload(len, rng);
        let frame = Mpdu::build(MacAddr::local(1), MacAddr::local(2), seq, &payload);
        let tx = Transmitter::new(TxConfig {
            rate: self.link.excitation_rate,
            ..TxConfig::default()
        });
        // lint: allow(panic) — run_link clamps the payload to MAX_PAYLOAD
        tx.transmit(frame.as_bytes()).expect("payload fits")
    }

    fn receive<'s>(
        &self,
        leg: Leg,
        heard: &[Complex],
        scratch: &'s mut freerider_wifi::RxScratch,
    ) -> Result<Self::Rx<'s>, &'static str> {
        use freerider_wifi::RxError;
        let rx = self.rx[leg as usize].receive_with(heard, scratch);
        rx.map_err(|e| match (leg, e) {
            (Leg::Reference, _) => "wifi.ref.rx_error",
            (_, RxError::NoPreamble) => "wifi.back.no_preamble",
            (_, RxError::BadSignal(_)) => "wifi.back.bad_signal",
            (_, RxError::Truncated) => "wifi.back.truncated",
        })
    }

    fn own(&self, rx: Self::Rx<'_>, spare: Option<Self::Back>) -> Self::Back {
        // Only what `decode` and `rssi_dbm` read, into reused buffers.
        let mut back = spare.unwrap_or_default();
        back.rssi_dbm = rx.rssi_dbm;
        match self.link.scheme {
            WifiTagScheme::Binary => back.data_bits.clone_from(&rx.data_bits),
            WifiTagScheme::Quaternary => back.equalized.clone_from(&rx.equalized),
        }
        back
    }

    fn check_ok(rx: &Self::Rx<'_>) -> bool {
        rx.fcs_valid
    }

    fn rssi_dbm(back: &Self::Back) -> f64 {
        back.rssi_dbm
    }

    fn capacity(&self, len: usize) -> usize {
        self.link.translator.capacity(len)
    }

    fn translate(&self, wave: &[Complex], tag_bits: &[u8], tagged: &mut Vec<Complex>) -> usize {
        self.link.translator.translate_into(wave, tag_bits, tagged)
    }

    fn decode(&self, original: &Self::Rx<'_>, backscattered: &Self::Back) -> Vec<u8> {
        let steps = self.link.translator.symbols_per_step;
        match self.link.scheme {
            WifiTagScheme::Binary => decoder::decode_wifi_binary(
                &original.data_bits,
                &backscattered.data_bits,
                self.link.excitation_rate.data_bits_per_symbol(),
                steps,
                1,
            ),
            WifiTagScheme::Quaternary => decoder::decode_wifi_quaternary(
                &original.equalized,
                &backscattered.equalized,
                steps,
                1,
                self.link.translator.delta_theta,
            ),
        }
    }
}

/// The ZigBee backscatter link.
#[derive(Debug, Clone)]
pub struct ZigbeeLink {
    /// Link configuration.
    pub config: LinkConfig,
    /// The tag's phase translator.
    pub translator: PhaseTranslator,
    /// Backscatter-receiver configuration.
    pub rx_config: freerider_zigbee::RxConfig,
}

impl ZigbeeLink {
    /// Creates the paper's standard ZigBee link (180° translation over
    /// 4-symbol windows).
    pub fn new(config: LinkConfig) -> Self {
        ZigbeeLink {
            config,
            translator: PhaseTranslator::zigbee_binary(),
            rx_config: freerider_zigbee::RxConfig::default(),
        }
    }

    /// Runs the link; each packet's two legs run as in
    /// [`WifiLink::run_with`].
    pub fn run(&self) -> LinkStats {
        let exec = Executor::from_env();
        run_link(&self.radios(), Draws::Packed, None, exec, &mut [(), ()]).0
    }

    /// The link's radios for one run.
    pub(crate) fn radios(&self) -> Radios<'_, Self, freerider_zigbee::Receiver> {
        use freerider_zigbee::{Receiver, RxConfig};
        let reference = RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        };
        Radios {
            link: self,
            rx: [Receiver::new(reference), Receiver::new(self.rx_config)],
        }
    }
}

impl Phy for Radios<'_, ZigbeeLink, freerider_zigbee::Receiver> {
    type Scratch = ();
    type Rx<'s> = freerider_zigbee::RxPacket;
    type Back = freerider_zigbee::RxPacket;
    const SAMPLE_RATE: f64 = freerider_zigbee::SAMPLE_RATE;
    const MAX_PAYLOAD: usize = 125;
    const PAD: usize = 150;
    const SCOPE: &'static str = "zigbee.link";
    const REF_CHECK_FAILED: &'static str = "zigbee.ref.fcs_bad";

    fn config(&self) -> &LinkConfig {
        &self.link.config
    }

    fn transmit(&self, draws: Draws, len: usize, rng: &mut Rng64) -> Vec<Complex> {
        let payload = draws.payload(len, rng);
        let tx = freerider_zigbee::Transmitter::new();
        // lint: allow(panic) — run_link clamps the payload to MAX_PAYLOAD
        tx.transmit(&payload).expect("payload fits")
    }

    fn receive<'s>(
        &self,
        leg: Leg,
        heard: &[Complex],
        _: &'s mut (),
    ) -> Result<Self::Rx<'s>, &'static str> {
        use freerider_zigbee::RxError;
        let rx = self.rx[leg as usize].receive(heard);
        rx.map_err(|e| match (leg, e) {
            (Leg::Reference, _) => "zigbee.ref.rx_error",
            (_, RxError::NoPreamble) => "zigbee.back.no_preamble",
            (_, RxError::NoSfd) => "zigbee.back.no_sfd",
            (_, RxError::Truncated) => "zigbee.back.truncated",
        })
    }

    fn own(&self, rx: Self::Rx<'_>, _: Option<Self::Back>) -> Self::Back {
        rx
    }

    fn check_ok(rx: &Self::Rx<'_>) -> bool {
        rx.fcs_valid
    }

    fn rssi_dbm(back: &Self::Back) -> f64 {
        back.rssi_dbm
    }

    fn capacity(&self, len: usize) -> usize {
        self.link.translator.capacity(len)
    }

    fn translate(&self, wave: &[Complex], tag_bits: &[u8], tagged: &mut Vec<Complex>) -> usize {
        self.link.translator.translate_into(wave, tag_bits, tagged)
    }

    fn decode(&self, original: &Self::Rx<'_>, backscattered: &Self::Back) -> Vec<u8> {
        decoder::decode_zigbee_binary(
            &original.psdu_symbols,
            &backscattered.psdu_symbols,
            self.link.translator.symbols_per_step,
        )
    }
}

/// The Bluetooth backscatter link.
#[derive(Debug, Clone)]
pub struct BleLink {
    /// Link configuration.
    pub config: LinkConfig,
    /// The tag's FSK translator.
    pub translator: FskTranslator,
    /// Backscatter-receiver configuration (the `ablation-shifter` bench
    /// disables `channel_filter` here to expose the mirror sideband).
    pub rx_config: freerider_ble::RxConfig,
}

impl BleLink {
    /// Creates the paper's standard Bluetooth link (Δf = 500 kHz toggling
    /// over 16-bit windows).
    pub fn new(config: LinkConfig) -> Self {
        BleLink {
            config,
            translator: FskTranslator::ble(),
            rx_config: freerider_ble::RxConfig::default(),
        }
    }

    /// Runs the link; each packet's two legs run as in
    /// [`WifiLink::run_with`].
    pub fn run(&self) -> LinkStats {
        let exec = Executor::from_env();
        run_link(&self.radios(), Draws::Packed, None, exec, &mut [(), ()]).0
    }

    /// The link's radios for one run.
    pub(crate) fn radios(&self) -> Radios<'_, Self, freerider_ble::Receiver> {
        use freerider_ble::{Receiver, RxConfig};
        let reference = RxConfig {
            sensitivity_dbm: -200.0,
            ..RxConfig::default()
        };
        Radios {
            link: self,
            rx: [Receiver::new(reference), Receiver::new(self.rx_config)],
        }
    }
}

impl Phy for Radios<'_, BleLink, freerider_ble::Receiver> {
    type Scratch = ();
    type Rx<'s> = freerider_ble::RxPacket;
    type Back = freerider_ble::RxPacket;
    const SAMPLE_RATE: f64 = freerider_ble::SAMPLE_RATE;
    const MAX_PAYLOAD: usize = 37;
    const PAD: usize = 200;
    const SCOPE: &'static str = "ble.link";
    const REF_CHECK_FAILED: &'static str = "ble.ref.crc_bad";

    fn config(&self) -> &LinkConfig {
        &self.link.config
    }

    fn transmit(&self, draws: Draws, len: usize, rng: &mut Rng64) -> Vec<Complex> {
        let payload = draws.payload(len, rng);
        let tx = freerider_ble::Transmitter::new();
        // lint: allow(panic) — run_link clamps the payload to MAX_PAYLOAD
        tx.transmit(&payload).expect("payload fits")
    }

    fn receive<'s>(
        &self,
        leg: Leg,
        heard: &[Complex],
        _: &'s mut (),
    ) -> Result<Self::Rx<'s>, &'static str> {
        use freerider_ble::RxError;
        let rx = self.rx[leg as usize].receive(heard);
        rx.map_err(|e| match (leg, e) {
            (Leg::Reference, _) => "ble.ref.rx_error",
            (_, RxError::NoSync) => "ble.back.no_sync",
            (_, RxError::Truncated(_)) => "ble.back.truncated",
        })
    }

    fn own(&self, rx: Self::Rx<'_>, _: Option<Self::Back>) -> Self::Back {
        rx
    }

    fn check_ok(rx: &Self::Rx<'_>) -> bool {
        rx.crc_valid
    }

    fn rssi_dbm(back: &Self::Back) -> f64 {
        back.rssi_dbm
    }

    fn capacity(&self, len: usize) -> usize {
        self.link.translator.capacity(len)
    }

    fn translate(&self, wave: &[Complex], tag_bits: &[u8], tagged: &mut Vec<Complex>) -> usize {
        self.link.translator.translate_into(wave, tag_bits, tagged)
    }

    fn decode(&self, original: &Self::Rx<'_>, backscattered: &Self::Back) -> Vec<u8> {
        decoder::decode_ble_binary(
            &original.pdu_bits,
            &backscattered.pdu_bits,
            self.link.translator.bits_per_tag_bit,
            16,
        )
    }
}

/// Every field of the statistics, bit for bit.
#[cfg(test)]
pub(crate) fn stat_bits(s: &LinkStats) -> [u64; 9] {
    [
        s.packets_sent as u64,
        s.packets_decoded as u64,
        s.productive_ok as u64,
        s.tag_bits_sent,
        s.tag_bits_compared,
        s.tag_bits_correct,
        s.budget_rssi_dbm.to_bits(),
        s.measured_rssi_dbm.to_bits(),
        s.airtime_s.to_bits(),
    ]
}

/// Held for reading by tests that compare a pipelined run with the serial
/// one, and for writing by a test that turns the profiler on, which makes
/// every pipeline in the process run serially.
#[cfg(test)]
pub(crate) fn profiler_switch() -> &'static std::sync::RwLock<()> {
    static SWITCH: std::sync::RwLock<()> = std::sync::RwLock::new(());
    &SWITCH
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Technology;

    fn wifi_cfg(d: f64) -> LinkConfig {
        LinkConfig {
            payload_len: 200,
            packets: 4,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), d, 7)
        }
    }

    #[test]
    fn wifi_link_close_range_is_error_free() {
        let stats = WifiLink::new(wifi_cfg(2.0)).run();
        assert_eq!(stats.packets_sent, 4);
        assert_eq!(stats.packets_decoded, 4);
        assert_eq!(
            stats.productive_ok, 4,
            "excitation link must stay productive"
        );
        assert!(stats.tag_bits_sent > 0);
        assert!(stats.ber() < 1e-2, "BER {}", stats.ber());
        // ~60 kbps at close range (Fig. 10a).
        let t = stats.throughput_bps();
        assert!((50e3..66e3).contains(&t), "throughput {t}");
    }

    #[test]
    fn a_nested_run_falls_back_to_a_fresh_pair() {
        // The outer call holds the thread's arenas, so the inner run
        // decodes into fresh ones rather than panicking.
        let link = WifiLink::new(wifi_cfg(2.0));
        let nested = with_thread_scratch(|_| link.run());
        assert_eq!(stat_bits(&nested), stat_bits(&link.run()));
    }

    #[test]
    fn wifi_link_dies_past_max_range() {
        let stats = WifiLink::new(wifi_cfg(60.0)).run();
        assert_eq!(stats.packets_decoded, 0, "60 m is past the 42 m cliff");
        assert_eq!(stats.throughput_bps(), 0.0);
    }

    /// Runs `phy` serially and with its two legs on two threads; the
    /// statistics, clean and interfered, must be the same bits.
    fn serial_and_concurrent<P: Phy>(
        phy: &P,
        draws: Draws,
        interferer: Option<Interferer>,
    ) -> (LinkStats, Option<LinkStats>) {
        let _pipelined = profiler_switch().read().unwrap_or_else(|p| p.into_inner());
        let mut scratch = Default::default();
        let serial = run_link(
            phy,
            draws,
            interferer.clone(),
            Executor::serial(),
            &mut scratch,
        );
        let concurrent = run_link(phy, draws, interferer, Executor::new(2), &mut scratch);
        let bits = |(clean, interfered): &(LinkStats, Option<LinkStats>)| {
            (stat_bits(clean), interfered.as_ref().map(stat_bits))
        };
        assert_eq!(
            bits(&serial),
            bits(&concurrent),
            "seed {}: {serial:?} vs {concurrent:?}",
            phy.config().seed
        );
        serial
    }

    /// [`serial_and_concurrent`] for a link's own run.
    fn both(phy: &impl Phy) -> LinkStats {
        serial_and_concurrent(phy, Draws::Packed, None).0
    }

    #[test]
    fn wifi_link_legs_are_bit_identical_on_two_threads() {
        for seed in 0..4 {
            let cfg = LinkConfig {
                fading: Fading::Rician { k_db: 9.0 },
                seed,
                ..wifi_cfg(20.0)
            };
            let s = both(&WifiLink::new(cfg.clone()).radios());
            assert!(s.packets_decoded > 0, "{s:?}");
            let s = both(&WifiLink::new_quaternary(cfg).radios());
            assert!(s.packets_decoded > 0, "{s:?}");
        }
    }

    /// [`serial_and_concurrent`] on `tech`'s standard link over `cfg`.
    fn both_for(
        tech: Technology,
        cfg: LinkConfig,
        draws: Draws,
        interferer: Option<Interferer>,
    ) -> (LinkStats, Option<LinkStats>) {
        match tech {
            Technology::Wifi => {
                serial_and_concurrent(&WifiLink::new(cfg).radios(), draws, interferer)
            }
            Technology::Zigbee => {
                serial_and_concurrent(&ZigbeeLink::new(cfg).radios(), draws, interferer)
            }
            Technology::Ble => {
                serial_and_concurrent(&BleLink::new(cfg).radios(), draws, interferer)
            }
        }
    }

    const TECHS: [Technology; 3] = [Technology::Wifi, Technology::Zigbee, Technology::Ble];

    /// Four short packets 2 m from the receiver on a flat channel.
    fn short_cfg(budget: BackscatterBudget) -> LinkConfig {
        LinkConfig {
            payload_len: 37,
            packets: 4,
            fading: Fading::None,
            ..LinkConfig::new(budget, 2.0, 7)
        }
    }

    /// A marginal reference leg beside a strong backscatter leg: receiver
    /// 1's −45 dBm sits a few dB at most above `floor_dbm`, so it decodes
    /// some packets and not others.
    fn marginal_cfg(tech: Technology, floor_dbm: f64) -> LinkConfig {
        let mut budget = tech.los_budget();
        budget.noise_floor_dbm = floor_dbm;
        budget.tx_power_dbm += 38.0;
        LinkConfig {
            packets: 12,
            ..short_cfg(budget)
        }
    }

    /// Per technology, a receiver-1 noise floor that fails some reference
    /// legs and passes others.
    const MARGINAL_FLOOR_DBM: [f64; 3] = [-45.5, -42.0, -42.0];

    #[test]
    fn reference_failure_rolls_the_backscatter_leg_back() {
        for (tech, floor) in TECHS.into_iter().zip(MARGINAL_FLOOR_DBM) {
            // A noise floor 15 dB above receiver 1's −45 dBm: the
            // reference leg fails on every packet, so the speculative
            // backscatter leg's RNG and channel draws are discarded each
            // time.
            let mut budget = tech.los_budget();
            budget.noise_floor_dbm = -30.0;
            let s = both_for(tech, short_cfg(budget), Draws::Packed, None).0;
            assert_eq!(
                (s.packets_sent, s.productive_ok, s.tag_bits_sent),
                (4, 0, 0),
                "{tech:?}"
            );

            // Packets after a discarded leg decode only with the payload
            // RNG and backscatter channel the serial program would hold,
            // so a wrong commit moves the tag bits and the measured RSSI.
            let cfg = marginal_cfg(tech, floor);
            let s = both_for(tech, cfg.clone(), Draws::Packed, None).0;
            let every_packet = both_for(
                tech,
                LinkConfig {
                    budget: tech.los_budget(),
                    ..cfg
                },
                Draws::Packed,
                None,
            )
            .0;
            assert!(
                s.tag_bits_sent < every_packet.tag_bits_sent,
                "{tech:?}: some reference legs must fail: {s:?}"
            );
            assert!(s.packets_decoded > 0, "{tech:?}: {s:?}");
        }
    }

    #[test]
    fn the_pipeline_fills_and_drains_like_the_serial_loop() {
        // Per technology, a seed of `marginal_cfg` whose first and sixth
        // reference legs fail.
        const SEEDS: [u64; 3] = [97, 6, 37];
        for ((tech, floor), seed) in TECHS.into_iter().zip(MARGINAL_FLOOR_DBM).zip(SEEDS) {
            // No job, one job, and one job pushed ahead of a pop.
            for packets in 0..3 {
                let cfg = LinkConfig {
                    packets,
                    ..short_cfg(tech.los_budget())
                };
                let s = both_for(tech, cfg, Draws::Packed, None).0;
                assert_eq!(s.packets_decoded, packets, "{tech:?}");
            }

            // A run whose first and last reference legs fail, so the
            // pipeline starts and ends on a rejected job. Packets before
            // the last are the same in a shorter run of the same seed.
            let bits_sent = |packets| {
                let cfg = LinkConfig {
                    seed,
                    packets,
                    ..marginal_cfg(tech, floor)
                };
                both_for(tech, cfg, Draws::Packed, None).0.tag_bits_sent
            };
            let n = 6;
            assert_eq!(bits_sent(1), 0, "{tech:?}: the first leg must fail");
            assert_eq!(
                bits_sent(n),
                bits_sent(n - 1),
                "{tech:?}: the last leg must fail"
            );
            assert!(bits_sent(n) > 0, "{tech:?}: some legs must pass");

            // A dark tag: the excitation cannot power it, so nothing runs.
            let mut dark = short_cfg(tech.los_budget());
            dark.d_tx_tag_m = 1e4;
            assert!(!dark.budget.tag_operational(dark.d_tx_tag_m));
            let s = both_for(tech, dark, Draws::Packed, None).0;
            assert_eq!(stat_bits(&s), stat_bits(&LinkStats::new(s.budget_rssi_dbm)));
        }
    }

    #[test]
    fn zigbee_and_ble_legs_are_bit_identical_on_two_threads() {
        for (tech, d) in [(Technology::Zigbee, 22.0), (Technology::Ble, 12.0)] {
            for seed in 0..4 {
                let cfg = LinkConfig {
                    payload_len: 40,
                    packets: 4,
                    multipath: Some(tech.multipath()),
                    phase_noise: 2e-4,
                    ..LinkConfig::new(tech.los_budget(), d, seed)
                };
                let s = both_for(tech, cfg, Draws::Packed, None).0;
                assert!(s.packets_decoded > 0, "{tech:?} seed {seed}: {s:?}");
            }
        }
    }

    #[test]
    fn per_byte_draws_with_an_interferer_are_bit_identical_on_two_threads() {
        // The Fig. 16 window's draws, with its interferer on the
        // backscatter path and reference legs that sometimes fail: the
        // interferer's bursts after a discarded leg come from the state
        // the serial program would hold only if the leg ran on a clone.
        for (tech, floor) in TECHS.into_iter().zip(MARGINAL_FLOOR_DBM) {
            let cfg = marginal_cfg(tech, floor);
            let leak = cfg.budget.rssi_dbm(cfg.d_tx_tag_m, cfg.d_tag_rx_m) - 6.0;
            let interferer = Interferer::new(leak, 0.0, 0.18, 12_000, cfg.seed);
            let (clean, s) = both_for(tech, cfg.clone(), Draws::PerByte, Some(interferer));
            let s = s.expect("a run with an interferer decodes it");
            // Carrying an interferer leaves the clean decodes alone.
            let quiet = both_for(tech, cfg, Draws::PerByte, None);
            assert_eq!(stat_bits(&clean), stat_bits(&quiet.0), "{tech:?}");
            assert!(quiet.1.is_none(), "{tech:?}: a run without an interferer");
            assert_ne!(
                (s.tag_bits_correct, s.measured_rssi_dbm.to_bits()),
                (clean.tag_bits_correct, clean.measured_rssi_dbm.to_bits()),
                "{tech:?}: the interferer must reach receiver 2"
            );
        }
    }

    #[test]
    fn zigbee_link_close_range_works() {
        let cfg = LinkConfig {
            payload_len: 60,
            packets: 4,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::zigbee_los(), 3.0, 9)
        };
        let stats = ZigbeeLink::new(cfg).run();
        assert_eq!(stats.packets_decoded, 4);
        assert!(stats.ber() < 0.12, "BER {}", stats.ber());
        let t = stats.throughput_bps();
        assert!((10e3..17e3).contains(&t), "throughput {t}");
    }

    #[test]
    fn ble_link_close_range_works() {
        let cfg = LinkConfig {
            payload_len: 37,
            packets: 6,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::ble_los(), 2.0, 11)
        };
        let stats = BleLink::new(cfg).run();
        assert_eq!(stats.packets_decoded, 6);
        assert!(stats.ber() < 0.12, "BER {}", stats.ber());
        let t = stats.throughput_bps();
        assert!((40e3..60e3).contains(&t), "throughput {t}");
    }
}

#[cfg(test)]
mod rate_tests {
    use super::*;
    use freerider_wifi::Mcs;

    fn cfg(seed: u64) -> LinkConfig {
        LinkConfig {
            payload_len: 300,
            packets: 3,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), 3.0, seed)
        }
    }

    #[test]
    fn qpsk_excitation_carries_tag_data_too() {
        // §2.2.1: "FreeRider does codeword translation regardless of the
        // data transmitted by these radios" — and regardless of whether
        // the symbols are BPSK or QPSK (π flips complement both bits).
        for rate in [Mcs::Qpsk12, Mcs::Qpsk34] {
            let mut link = WifiLink::new(cfg(71));
            link.excitation_rate = rate;
            let s = link.run();
            assert_eq!(s.packets_decoded, 3, "{rate:?}");
            assert_eq!(s.ber(), 0.0, "{rate:?} BER {}", s.ber());
            assert_eq!(s.productive_ok, 3, "{rate:?} productive");
        }
    }

    #[test]
    fn qam_excitation_breaks_xor_decoding() {
        // The flip complements only the sign bits of 16-QAM symbols: the
        // Viterbi decoder no longer sees complement-runs and the XOR
        // stream is garbage — the structural reason the paper evaluates
        // at 6 Mbps.
        let mut link = WifiLink::new(LinkConfig {
            packets: 8,
            ..cfg(72)
        });
        link.excitation_rate = Mcs::Qam16Half;
        let s = link.run();
        assert_eq!(s.productive_ok, 8, "excitation itself still works");
        assert!(s.ber() > 0.2, "QAM tag BER should collapse: {}", s.ber());
    }

    #[test]
    fn faster_excitation_does_not_change_tag_rate() {
        // The tag rate is set by the OFDM symbol clock, not the bit rate.
        let mut a = WifiLink::new(cfg(73));
        a.excitation_rate = Mcs::Bpsk12;
        let mut b = WifiLink::new(cfg(73));
        b.excitation_rate = Mcs::Qpsk12;
        let sa = a.run();
        let sb = b.run();
        // Same payload → half the symbols at QPSK → roughly half the tag
        // bits per packet, but the per-second rate during a packet is
        // identical (62.5 kbps); throughput over airtime matches closely.
        assert!((sa.throughput_bps() - sb.throughput_bps()).abs() < 6e3);
    }
}

#[cfg(test)]
mod quaternary_tests {
    use super::*;

    #[test]
    fn quaternary_on_qpsk_survives_long_packets() {
        // The fourth-power tracker removes drift mod π/2 while passing the
        // tag's Eq. 5 rotations — so even 1000-byte excitation packets
        // (340+ OFDM symbols of accumulated residual CFO) decode cleanly.
        let cfg = LinkConfig {
            payload_len: 1000,
            packets: 3,
            fading: Fading::None,
            ..LinkConfig::new(BackscatterBudget::wifi_los(), 4.0, 81)
        };
        let s = WifiLink::new_quaternary(cfg).run();
        assert_eq!(s.packets_decoded, 3);
        assert_eq!(s.productive_ok, 3, "QPSK excitation stays productive");
        assert!(s.ber() < 5e-3, "BER {}", s.ber());
        // ~125 kbps in-packet at QPSK: half the symbols of a BPSK packet
        // carry the same payload, so delivered rate stays ≈ 120 kbps.
        let t = s.throughput_bps();
        assert!((100e3..130e3).contains(&t), "throughput {t}");
    }
}
