// Package nic models the RDMA NIC at the fidelity Ragnar's reverse
// engineering exposes (paper Section IV, Figure 3): a requester Tx pipeline
// (SQE fetch, Tx arbiter, per-opcode processing units), a responder Rx
// pipeline (parser, Translation & Protection Unit, host DMA), a shared
// egress scheduler in which the logical Tx arbiter outranks the logical Rx
// arbiter (Key Finding 3), on-board context caches (the structures Pythia
// attacks), and an internal NoC whose clock boosts under heavy small-message
// load (Key Finding 2). All timing constants live in a per-adapter Profile
// so ConnectX-4/5/6 differ only by data (Table III).
package nic

import "github.com/thu-has/ragnar/internal/sim"

// Profile captures one ConnectX generation. The absolute values are
// engineering estimates consistent with public ConnectX datasheets and the
// measurement literature; the attacks only rely on their relative structure.
type Profile struct {
	Name string

	// Wire and PCIe (Table III).
	LineRateGbps float64
	PCIeGBps     float64      // effective host-interface bandwidth, bytes/ns = GB/s
	PCIeLatency  sim.Duration // one-way request latency host<->NIC

	// Requester side.
	SQEFetchTime   sim.Duration // DMA of one SQE descriptor (beyond PCIeLatency)
	TxPUTime       sim.Duration // per-message requester processing
	DoorbellTime   sim.Duration // MMIO doorbell cost
	CQEWriteTime   sim.Duration // DMA of one CQE back to the host
	MaxQPRate      float64      // requester message cap per QP, msgs/us
	RequesterSlots int          // parallel requester PU slots

	// Responder side.
	RxPUTime       sim.Duration // per-packet responder parse/dispatch
	AtomicExtra    sim.Duration // extra latency for atomic execute units
	ResponderSlots int

	// Translation & Protection Unit (Grain-IV home).
	TPUBase      sim.Duration // base translation+protection check per beat (TPUBeatBytes)
	TPUDrop8     sim.Duration // latency drop for 8 B-aligned offsets
	TPUDrop64    sim.Duration // additional drop for 64 B-multiple offsets
	TPUSaw2048   sim.Duration // amplitude of the 2048 B sawtooth component
	TPUBanks     int          // translation banks; same-bank back-to-back conflicts
	TPUBankCost  sim.Duration // penalty per bank conflict
	MRSwitchCost sim.Duration // penalty when consecutive accesses change MR
	TPUNoiseSig  sim.Duration // Gaussian jitter sigma on TPU service
	TPUSpike     sim.Duration // rare positive latency spikes
	TPUSpikeP    float64

	// On-board caches (Pythia's persistent channel target, and the
	// finite-resource surface the noisy-neighbor exhaustion attacks abuse).
	// QPCCacheEntries bounds the fully-associative ICM context cache
	// (ContextCache) holding QP and MR contexts; the set-associative
	// MTT cache keeps its own geometry for per-page translations.
	MTTCacheEntries int // translation entries cached on-NIC
	MTTCacheWays    int
	MTTMissPenalty  sim.Duration // ICM fetch over PCIe on miss
	QPCCacheEntries int
	QPCMissPenalty  sim.Duration
	// MPTMissPenalty prices an MR-context (MPT) miss in the shared ICM
	// context cache, charged on the TPU path. Zero disables MR-context
	// caching entirely — the legacy profiles below keep it at zero so every
	// pre-exhaustion experiment is timed exactly as before; the exhaust
	// experiment runs a constrained profile copy with it enabled.
	MPTMissPenalty sim.Duration

	// PU complex / NoC behaviour (Key Finding 2).
	ComplexPPS    float64      // shared processing complex capacity, msgs/us (base NoC clock)
	NoCBoost      float64      // capacity multiplier once boosted
	NoCBoostPPS   float64      // offered-load threshold (msgs/us) that activates boost
	EgressArbTime sim.Duration // per-packet decision time of the egress arbiter

	// ISO selects the isolation architecture (see Isolated): DWRR egress
	// scheduling over tenants and per-tenant responder credit pools.
	// ConstTPU pads every translation to the worst case (see WithConstTPU).
	// Both are false on the paper profiles.
	ISO      bool
	ConstTPU bool

	// Base names the paper profile a derived (hardened) profile was built
	// from; empty for the paper profiles themselves. Channel calibration
	// tables key on it so CX5-ISO measures with CX5's modulation
	// parameters rather than silently falling into another adapter's.
	Base string

	// Encryption-latency knobs (the AES-in-RDMA pricing study): when
	// non-zero, every verb pays EncPerMsg plus EncPerKB per KB of payload
	// on both the requester and responder processing paths. Zero disables
	// the model entirely — the paper profiles keep it at zero.
	EncPerMsg sim.Duration
	EncPerKB  sim.Duration
}

// encTime prices AES for one message of the given payload size.
func (p Profile) encTime(bytes int) sim.Duration {
	if p.EncPerMsg == 0 && p.EncPerKB == 0 {
		return 0
	}
	d := p.EncPerMsg
	if bytes > 0 {
		d += p.EncPerKB * sim.Duration(bytes) / 1024
	}
	return d
}

// CX4, CX5 and CX6 reproduce Table III's adapters. The generation-to-
// generation scaling (2x line rate steps, PCIe 3.0 x8 vs 4.0 x16, faster
// processing) follows the public specifications.
var (
	CX4 = Profile{
		Name:         "ConnectX-4",
		LineRateGbps: 25, PCIeGBps: 4.0, PCIeLatency: 420 * sim.Nanosecond,
		SQEFetchTime: 120 * sim.Nanosecond, TxPUTime: 90 * sim.Nanosecond,
		DoorbellTime: 90 * sim.Nanosecond, CQEWriteTime: 100 * sim.Nanosecond,
		MaxQPRate: 3.0, RequesterSlots: 2,
		RxPUTime: 80 * sim.Nanosecond, AtomicExtra: 150 * sim.Nanosecond, ResponderSlots: 2,
		TPUBase: 320 * sim.Nanosecond, TPUDrop8: 12 * sim.Nanosecond, TPUDrop64: 30 * sim.Nanosecond,
		TPUSaw2048: 24 * sim.Nanosecond, TPUBanks: 16, TPUBankCost: 18 * sim.Nanosecond,
		MRSwitchCost: 55 * sim.Nanosecond,
		TPUNoiseSig:  5 * sim.Nanosecond, TPUSpike: 120 * sim.Nanosecond, TPUSpikeP: 0.004,
		MTTCacheEntries: 2048, MTTCacheWays: 4, MTTMissPenalty: 900 * sim.Nanosecond,
		QPCCacheEntries: 1024, QPCMissPenalty: 800 * sim.Nanosecond,
		ComplexPPS: 5, NoCBoost: 2.3, NoCBoostPPS: 20,
		EgressArbTime: 12 * sim.Nanosecond,
	}
	CX5 = Profile{
		Name:         "ConnectX-5",
		LineRateGbps: 100, PCIeGBps: 6.6, PCIeLatency: 380 * sim.Nanosecond,
		SQEFetchTime: 90 * sim.Nanosecond, TxPUTime: 45 * sim.Nanosecond,
		DoorbellTime: 80 * sim.Nanosecond, CQEWriteTime: 85 * sim.Nanosecond,
		MaxQPRate: 6.5, RequesterSlots: 2,
		RxPUTime: 40 * sim.Nanosecond, AtomicExtra: 110 * sim.Nanosecond, ResponderSlots: 2,
		TPUBase: 160 * sim.Nanosecond, TPUDrop8: 7 * sim.Nanosecond, TPUDrop64: 16 * sim.Nanosecond,
		TPUSaw2048: 13 * sim.Nanosecond, TPUBanks: 16, TPUBankCost: 10 * sim.Nanosecond,
		MRSwitchCost: 30 * sim.Nanosecond,
		TPUNoiseSig:  3 * sim.Nanosecond, TPUSpike: 90 * sim.Nanosecond, TPUSpikeP: 0.004,
		MTTCacheEntries: 4096, MTTCacheWays: 4, MTTMissPenalty: 800 * sim.Nanosecond,
		QPCCacheEntries: 2048, QPCMissPenalty: 700 * sim.Nanosecond,
		ComplexPPS: 11, NoCBoost: 2.25, NoCBoostPPS: 45,
		EgressArbTime: 8 * sim.Nanosecond,
	}
	CX6 = Profile{
		Name:         "ConnectX-6",
		LineRateGbps: 200, PCIeGBps: 25.0, PCIeLatency: 320 * sim.Nanosecond,
		SQEFetchTime: 70 * sim.Nanosecond, TxPUTime: 28 * sim.Nanosecond,
		DoorbellTime: 70 * sim.Nanosecond, CQEWriteTime: 70 * sim.Nanosecond,
		MaxQPRate: 11.0, RequesterSlots: 4,
		RxPUTime: 25 * sim.Nanosecond, AtomicExtra: 80 * sim.Nanosecond, ResponderSlots: 4,
		TPUBase: 110 * sim.Nanosecond, TPUDrop8: 5 * sim.Nanosecond, TPUDrop64: 12 * sim.Nanosecond,
		TPUSaw2048: 10 * sim.Nanosecond, TPUBanks: 32, TPUBankCost: 8 * sim.Nanosecond,
		MRSwitchCost: 22 * sim.Nanosecond,
		TPUNoiseSig:  2 * sim.Nanosecond, TPUSpike: 70 * sim.Nanosecond, TPUSpikeP: 0.003,
		MTTCacheEntries: 8192, MTTCacheWays: 8, MTTMissPenalty: 650 * sim.Nanosecond,
		QPCCacheEntries: 4096, QPCMissPenalty: 600 * sim.Nanosecond,
		ComplexPPS: 22, NoCBoost: 2.2, NoCBoostPPS: 80,
		EgressArbTime: 6 * sim.Nanosecond,
	}
)

// baseName returns the paper profile a derived profile calibrates against.
func baseName(p Profile) string {
	if p.Base != "" {
		return p.Base
	}
	return p.Name
}

// Isolated derives an isolation-hardened variant of a paper profile, the
// GLSVLSI'23 TX architecture: DWRR egress scheduling over tenants,
// per-tenant responder credit pools, and no shared-clock NoC boost (the
// boost is a cross-tenant amplifier — KF2's carrier — so the hardened part
// pins the NoC at its base clock).
func Isolated(p Profile) Profile {
	iso := p
	iso.Name = p.Name + "-ISO"
	iso.Base = baseName(p)
	iso.ISO = true
	iso.NoCBoost = 1.0
	return iso
}

// WithConstTPU returns p with the constant-time TPU selected — the
// Section VII hardware-partitioning mitigation as a profile property.
func WithConstTPU(p Profile) Profile {
	ct := p
	ct.Name = p.Name + "+ctTPU"
	ct.Base = baseName(p)
	ct.ConstTPU = true
	return ct
}

// WithAES returns p with the AES-per-verb encryption latency enabled. The
// constants follow the AES-in-RDMA measurement study's shape: a fixed
// per-message setup cost plus a per-KB streaming cost (~50 ns/KB models a
// pipelined AES-GCM engine at ~20 GB/s).
func WithAES(p Profile) Profile {
	enc := p
	enc.Name = p.Name + "+AES"
	enc.Base = baseName(p)
	enc.EncPerMsg = 60 * sim.Nanosecond
	enc.EncPerKB = 51 * sim.Nanosecond
	return enc
}

// CX5ISO is the isolation-hardened ConnectX-5: the defense-grid baseline
// variant (defgrid adds const-TPU and AES on top of it).
var CX5ISO = Isolated(CX5)

// PaperProfiles lists the paper's adapters in Table III order. Experiment
// sweeps that reproduce the paper's figures iterate these — the hardened
// profiles deliberately break the channels those figures demonstrate.
var PaperProfiles = []Profile{CX4, CX5, CX6}

// Profiles is the CLI-selectable profile registry: the paper adapters plus
// the isolation-hardened CX5-ISO.
var Profiles = []Profile{CX4, CX5, CX6, CX5ISO}

// ProfileNames returns the registry names for error messages and usage text.
func ProfileNames() []string {
	names := make([]string, len(Profiles))
	for i, p := range Profiles {
		names[i] = p.Name
	}
	return names
}

// ProfileByName returns the profile for a name like "CX-5", "cx5" or
// "ConnectX-5"; ok is false for unknown names.
func ProfileByName(name string) (Profile, bool) {
	switch normalize(name) {
	case "cx4", "connectx4":
		return CX4, true
	case "cx5", "connectx5":
		return CX5, true
	case "cx6", "connectx6":
		return CX6, true
	case "cx5iso", "connectx5iso":
		return CX5ISO, true
	}
	return Profile{}, false
}

func normalize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		case c == '-' || c == '_' || c == ' ':
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// Sizes every adapter shares: no profile varies them.
const (
	// MTU is the RoCEv2 path MTU: payloads are segmented into MTU frames.
	MTU = 4096
	// InlineMax is the largest WRITE inlined in the WQE (no payload DMA).
	InlineMax = 256
	// TPUBeatBytes is how many bytes the TPU translates per beat.
	TPUBeatBytes = 512
	// NoCSmallMsg is the largest message that counts towards the NoC boost's
	// activation (Key Finding 2).
	NoCSmallMsg = 256
)

// WireHeaderBytes is the per-packet RoCEv2 overhead: Eth(14)+IP(20)+UDP(8)+
// BTH(12)+ICRC(4)+FCS(4) plus preamble/IPG accounting (20).
const WireHeaderBytes = 82

// AckBytes is the wire size of a bare ACK/response header packet.
const AckBytes = WireHeaderBytes + 4

// ReadReqBytes is the wire size of an RDMA Read request (BTH+RETH).
const ReadReqBytes = WireHeaderBytes + 16
