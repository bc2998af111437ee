package nic

import (
	"math/rand"

	"github.com/thu-has/ragnar/internal/sim"
)

// TPU is the Translation & Protection Unit: every inbound one-sided request
// passes through it to translate the remote virtual address against the MTT
// and check rkey/permissions. Ragnar's Key Finding 4 is that its service
// time depends on the *remote address offset* in reproducible, 2^k-periodic
// ways, and on the *relative* offset between consecutive translations
// (bank conflicts). This file implements that empirical surface as a
// deterministic function of the profile parameters plus seeded jitter, so
// the reverse-engineering benchmarks (Figs 5-8), the intra-MR covert
// channel and the Fig 13 snoop all see one consistent microarchitecture.
type TPU struct {
	p     Profile
	noise *sim.Noise

	// ExtraService, when set, adds defensive service-time noise to every
	// translation (the Section VII noise mitigation).
	ExtraService func() sim.Duration
	// constTime pads every translation to the worst case (see
	// SetConstantTime). Profile.ConstTPU sets it at construction.
	constTime bool

	// Pipeline state: the previous translation's bank and MR, which create
	// the relative-offset and MR-switch effects.
	lastBank  int
	lastMR    uint32
	havePrev  bool
	mtt       *Cache
	served    uint64
	conflicts uint64
	mrSwitch  uint64
	mttMisses uint64
}

// NewTPU builds the unit for a profile, drawing jitter from rng.
func NewTPU(p Profile, rng *rand.Rand) *TPU {
	return &TPU{
		p:         p,
		noise:     sim.NewNoise(rng, p.TPUNoiseSig, p.TPUSpike, p.TPUSpikeP),
		mtt:       NewCache(p.MTTCacheEntries, p.MTTCacheWays),
		constTime: p.ConstTPU,
	}
}

// MTT exposes the translation cache (the Pythia baseline needs to prime and
// probe it).
func (t *TPU) MTT() *Cache { return t.mtt }

// ReseedNoise gives the TPU a private jitter stream in place of the shared
// engine RNG it was built with. The Clos rig reseeds every NIC from (seed,
// host index), so one host's jitter draws do not depend on when the other
// hosts draw theirs.
func (t *TPU) ReseedNoise(seed int64) { t.noise.Reseed(seed) }

// Request describes one translation: which MR (by key), the offset of the
// access within the MR, the access length, and the MR's base address and
// page size for MTT indexing.
type Request struct {
	MRKey    uint32
	Offset   uint64
	Length   int
	MRBase   uint64
	PageSize uint64
}

// beats returns how many translation beats the access needs.
func (t *TPU) beats(length int) int {
	if length <= 0 {
		return 1
	}
	n := (length + TPUBeatBytes - 1) / TPUBeatBytes
	if n < 1 {
		n = 1
	}
	return n
}

// OffsetComponent returns the deterministic offset-dependent part of one
// beat's service time at the given MR offset. Exposed so analysis code can
// plot the ideal surface next to measured traces.
//
// The shape implements the paper's observations:
//   - a stable latency *drop* at 8 B-aligned offsets,
//   - a larger drop at 64 B multiples,
//   - a sawtooth with 2048 B period (descriptor-fetch phase),
//   - nothing else — in particular no dependence on the absolute MR base,
//     matching the paper's finding that local addresses and MR sizes do not
//     produce stable effects.
func (t *TPU) OffsetComponent(offset uint64) sim.Duration {
	var d sim.Duration
	if offset%8 == 0 {
		d -= t.p.TPUDrop8
	}
	if offset%64 == 0 {
		d -= t.p.TPUDrop64
	}
	// Sawtooth: latency ramps across each 2048 B window and resets.
	phase := offset % 2048
	d += sim.Duration(float64(t.p.TPUSaw2048) * float64(phase) / 2048.0)
	return d
}

// bank maps an offset to its translation bank.
func (t *TPU) bank(offset uint64) int {
	if t.p.TPUBanks <= 1 {
		return 0
	}
	return int((offset / 64) % uint64(t.p.TPUBanks))
}

// Translate returns the service time for one request and advances pipeline
// state. The deterministic core is either the empirical surface (see
// empirical) or, with constant time on, the worst-case beat times the beat
// count; both then get the same seeded jitter, defensive extra service and
// 1 ns floor, in that order, so the noise stream advances identically
// whichever core ran.
func (t *TPU) Translate(req Request) sim.Duration {
	var d sim.Duration
	if t.constTime {
		d = t.worstCaseBeat() * sim.Duration(t.beats(req.Length))
	} else {
		d = t.empirical(req)
	}
	d += t.noise.Sample()
	if t.ExtraService != nil {
		d += t.ExtraService()
	}
	if d < sim.Nanosecond {
		d = sim.Nanosecond
	}
	t.served++
	return d
}

// empirical is the measured ConnectX translation core, the carrier for the
// paper's Grain-III/IV channels:
//
//	base per beat + offset component per beat (+ beat stride)
//	+ bank conflict against the previous translation (relative offset effect)
//	+ MR switch penalty when the MR changed (inter-MR effect, Fig 5)
//	+ MTT miss penalty when the page's translation is not cached
func (t *TPU) empirical(req Request) sim.Duration {
	d := sim.Duration(0)
	nb := t.beats(req.Length)
	for i := 0; i < nb; i++ {
		beatOff := req.Offset + uint64(i*TPUBeatBytes)
		d += t.p.TPUBase + t.OffsetComponent(beatOff)
	}

	b := t.bank(req.Offset)
	if t.havePrev && b == t.lastBank {
		d += t.p.TPUBankCost
		t.conflicts++
	}
	if t.havePrev && req.MRKey != t.lastMR {
		d += t.p.MRSwitchCost
		t.mrSwitch++
	}
	t.lastBank = b
	t.lastMR = req.MRKey
	t.havePrev = true

	// MTT lookup per page touched (usually one: MRs sit on 2 MB pages).
	ps := req.PageSize
	if ps == 0 {
		ps = 2 << 20
	}
	first := (req.MRBase + req.Offset) / ps
	last := (req.MRBase + req.Offset + uint64(max(req.Length, 1)) - 1) / ps
	for page := first; page <= last; page++ {
		key := MTTKey(req.MRKey, page)
		if !t.mtt.Access(key) {
			d += t.p.MTTMissPenalty
			t.mttMisses++
		}
	}
	return d
}

// Reset clears pipeline history (not the MTT cache) — used between
// independent measurement runs.
func (t *TPU) Reset() { t.havePrev = false }

// Counters reports totals: translations served, bank conflicts, MR switches
// and MTT misses.
func (t *TPU) Counters() (served, conflicts, mrSwitches, mttMisses uint64) {
	return t.served, t.conflicts, t.mrSwitch, t.mttMisses
}

// SetConstantTime, when enabled, makes every translation take the worst-case
// service time for its beat count — the Section VII "hardware partitioning /
// fixing hardware features" mitigation: with no offset-, bank- or MR-
// dependent variation left, Grain-III/IV channels lose their carrier, and
// no pipeline state advances and no effect counter moves. The cost is that
// every request pays the slowest path. A profile with ConstTPU starts with
// it on.
func (t *TPU) SetConstantTime(on bool) { t.constTime = on }

// ConstantTimeEnabled reports whether the mitigation is active.
func (t *TPU) ConstantTimeEnabled() bool { return t.constTime }

// worstCaseBeat is the slowest possible per-beat service: base plus the full
// sawtooth, no alignment drops, plus a bank conflict and an MR switch.
func (t *TPU) worstCaseBeat() sim.Duration {
	return t.p.TPUBase + t.p.TPUSaw2048 + t.p.TPUBankCost + t.p.MRSwitchCost
}
