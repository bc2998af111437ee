// Package pythia implements the Pythia covert channel (Tsai et al., USENIX
// Security 2019) as the paper's baseline: a *persistent-channel* attack on
// the RNIC's on-board translation cache. The sender evicts (bit 1) or leaves
// resident (bit 0) the MTT entry of a probe page; the receiver times a
// single RDMA Read of that page and recognises the ICM refill penalty.
//
// The comparison in Ragnar Section I — 3.2x the bandwidth of Pythia on
// CX-5 — needs this implementation: Pythia's symbol rate is limited by the
// evict-then-probe round plus the synchronisation gap between the parties,
// which lands it at ~20 Kbps on CX-5, against Ragnar's volatile inter-MR
// channel at 63.6 Kbps.
package pythia

import (
	"errors"
	"fmt"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/lab"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Channel is one configured Pythia covert channel.
type Channel struct {
	Cluster *lab.Cluster
	TxConn  *lab.Conn
	RxConn  *lab.Conn

	mr     *verbs.MR
	target verbs.RemoteBuf // probe page
	evict  []verbs.RemoteBuf

	// SymbolTime spaces bits; it must cover the evict round plus the probe
	// plus a sync guard (the parties cannot overlap their phases).
	SymbolTime sim.Duration
	// warm is the calibrated resident-entry probe latency.
	warm sim.Duration
	// Threshold separates warm from cold probe latency.
	Threshold sim.Duration
}

// New builds the channel on a fresh cluster: an MR pinned on 4 KiB pages
// (MTT entry per 4 KiB, as Pythia attacks it) large enough to mine an
// eviction set for the target's cache set.
func New(p nic.Profile, seed int64) (*Channel, error) {
	cfg := lab.DefaultConfig(p)
	cfg.Seed = seed
	c := lab.New(cfg)
	// 32 MiB on 4 KiB pages = 8192 MTT entries: enough candidates to cover
	// any set with `ways` conflicting pages.
	mr, err := c.ServerPD.RegMR(32<<20, host.Page4K, verbs.AccessRemoteRead)
	if err != nil {
		return nil, err
	}
	rx, err := c.Dial(0, 4)
	if err != nil {
		return nil, err
	}
	tx, err := c.Dial(1, 16)
	if err != nil {
		return nil, err
	}

	mtt := c.Server.NIC().TPU().MTT()
	pageSize := uint64(host.Page4K)

	// Group the MR's pages by MTT set and pick a target whose set offers a
	// full eviction set (ways+1 conflicting pages) — the mining step Pythia
	// performs online.
	bySet := make(map[int][]uint64)
	for off := uint64(0); off < mr.Size(); off += pageSize {
		page := (mr.Base() + off) / pageSize
		set := mtt.SetIndex(nic.MTTKey(mr.RKey(), page))
		bySet[set] = append(bySet[set], off)
	}
	var targetOff uint64
	var evict []verbs.RemoteBuf
	found := false
	for off := uint64(0); off < mr.Size(); off += pageSize {
		page := (mr.Base() + off) / pageSize
		set := mtt.SetIndex(nic.MTTKey(mr.RKey(), page))
		if len(bySet[set]) >= mtt.Ways()+2 {
			targetOff = off
			for _, o := range bySet[set] {
				if o != off && len(evict) < mtt.Ways()+1 {
					evict = append(evict, mr.Describe(o))
				}
			}
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("pythia: no MTT set with %d conflicting pages in a %d MiB MR",
			mtt.Ways()+2, mr.Size()>>20)
	}

	// Symbol budget: evict round (len(evict) serialized reads) + probe +
	// sync guard. With ~2 us per read round trip this lands near 50 us =>
	// ~20 Kbps, matching the published Pythia rate on CX-5.
	symbol := sim.Duration(50 * float64(sim.Microsecond))
	ch := &Channel{
		Cluster: c, TxConn: tx, RxConn: rx,
		mr: mr, target: mr.Describe(targetOff), evict: evict,
		SymbolTime: symbol,
		Threshold:  p.MTTMissPenalty / 2,
	}
	if err := ch.calibrate(); err != nil {
		return nil, err
	}
	return ch, nil
}

// calibrate measures the warm probe latency (the attacker's online
// calibration step): one cold read installs the entry, then repeated warm
// reads set the baseline.
func (ch *Channel) calibrate() error {
	var lats []float64
	for i := 0; i < 9; i++ {
		lat, err := ch.read(ch.RxConn, ch.target, uint64(10+i))
		if err != nil {
			return err
		}
		if i > 0 { // skip the installing (cold) read
			lats = append(lats, lat.Nanoseconds())
		}
	}
	sum := 0.0
	for _, l := range lats {
		sum += l
	}
	ch.warm = sim.Duration(sum / float64(len(lats)) * float64(sim.Nanosecond))
	return nil
}

// BandwidthBps is the channel's raw signalling rate.
func (ch *Channel) BandwidthBps() float64 { return 1.0 / ch.SymbolTime.Seconds() }

// EvictionSetSize reports how many conflict pages the miner found.
func (ch *Channel) EvictionSetSize() int { return len(ch.evict) }

// Run is the outcome of one transmission.
type Run struct {
	Result    Result
	Decoded   bitstream.Bits
	WarmNanos []float64 // probe latencies for bit-0 symbols
	ColdNanos []float64 // probe latencies for bit-1 symbols
}

// Result mirrors covert.Result for the baseline.
type Result struct {
	Channel      string
	NIC          string
	BandwidthBps float64
	ErrorRate    float64
	EffectiveBps float64
}

// read posts one read and runs the engine until its completion, returning
// the post-to-completion latency.
func (ch *Channel) read(conn *lab.Conn, target verbs.RemoteBuf, wrid uint64) (sim.Duration, error) {
	if err := conn.QP.PostRead(wrid, nil, target, 64); err != nil {
		return 0, err
	}
	c, ok := conn.CQ.Await(wrid)
	switch {
	case !ok:
		return 0, errors.New("pythia: probe did not complete")
	case c.Status != nic.StatusOK:
		return 0, fmt.Errorf("pythia: probe failed: %v", c.Status)
	}
	return c.DoneTime.Sub(c.PostTime), nil
}

// Transmit sends the bits: per symbol, the sender evicts the target's MTT
// set for a 1 and stays idle for a 0; the receiver probes once at the end of
// the symbol and thresholds the latency.
func (ch *Channel) Transmit(bits bitstream.Bits) (*Run, error) {
	if len(bits) == 0 {
		return nil, errors.New("pythia: empty bitstream")
	}
	eng := ch.Cluster.Eng
	// Ensure the target starts resident.
	if _, err := ch.read(ch.RxConn, ch.target, 1); err != nil {
		return nil, err
	}

	decoded := make(bitstream.Bits, 0, len(bits))
	run := &Run{}
	var wrid uint64 = 100
	for _, b := range bits {
		symbolEnd := eng.Now().Add(ch.SymbolTime)
		if b == 1 {
			for _, ev := range ch.evict {
				wrid++
				if _, err := ch.read(ch.TxConn, ev, wrid); err != nil {
					return nil, err
				}
			}
		}
		// Sync guard: the receiver probes at the symbol boundary.
		eng.RunUntil(symbolEnd)
		wrid++
		lat, err := ch.read(ch.RxConn, ch.target, wrid)
		if err != nil {
			return nil, err
		}
		// The probe itself re-installs the entry, resetting state for the
		// next symbol (the persistent channel's self-cleaning property).
		if lat > ch.warmBaseline()+ch.Threshold {
			decoded = append(decoded, 1)
			run.ColdNanos = append(run.ColdNanos, lat.Nanoseconds())
		} else {
			decoded = append(decoded, 0)
			run.WarmNanos = append(run.WarmNanos, lat.Nanoseconds())
		}
	}
	e := bitstream.ErrorRate(bits, decoded)
	bps := ch.BandwidthBps()
	run.Decoded = decoded
	run.Result = Result{
		Channel:      "pythia(persistent)",
		NIC:          ch.Cluster.Profile.Name,
		BandwidthBps: bps,
		ErrorRate:    e,
		EffectiveBps: bitstream.EffectiveBandwidth(bps, e),
	}
	return run, nil
}

// warmBaseline returns the calibrated resident-entry probe latency.
func (ch *Channel) warmBaseline() sim.Duration { return ch.warm }
