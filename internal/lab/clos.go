// Clos builds the two-tier leaf-spine fabric the scaled multi-tenant
// experiments run on: every leaf trunks to every spine, hosts hang off
// leaves, and leaf-to-leaf traffic spreads across the spines with
// flow-hashed ECMP. Unlike Star and DualRail, a Clos has path diversity
// — and, optionally, engine-domain parallelism: the fabric partitions at
// trunk boundaries into one domain per component (a leaf plus its hosts,
// or a spine), and trunk propagation delay becomes the conservative
// lookahead for the window protocol in internal/sim/parallel.
//
// Equivalence contract: a Clos built with Domains: 1 and one built with
// Domains: N run the same virtual-time schedule. Four construction rules
// make that hold:
//
//  1. Every domain engine is seeded with the same cfg.Seed, and no model
//     consumes engine RNG at runtime — each NIC's TPU jitter is reseeded
//     from (seed, host index) so the stream does not depend on how many
//     NICs share an engine.
//  2. Trunk PFC pause/resume is relayed with one trunk propagation delay
//     in BOTH modes (an engine callback when the two switches share a
//     domain, a channel transfer when they do not), so partitioning never
//     changes pause timing. Host-port pause stays synchronous in both.
//  3. Cross-domain trunk links hand packets to a timestamped channel with
//     arrival = serialization end + propagation — the same instant the
//     single-engine link would have delivered them.
//  4. Every trunk and host uplink carries a deterministic picosecond-scale
//     propagation skew (real cable lengths are never identical), so no
//     two paths through the fabric have exactly equal delay. Same-
//     picosecond ties between causally independent events are the one
//     place serial and partitioned builds order work differently (global
//     heap sequence vs channel drain order); the skew keeps such ties
//     from ever deciding queueing, so the schedules coincide.
//
// scripts/equivalence.sh re-checks the contract end to end: every shipped
// experiment must render byte-identically at -domains 1, 2 and N.

package lab

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	parsim "github.com/thu-has/ragnar/internal/sim/parallel"
	"github.com/thu-has/ragnar/internal/verbs"
)

// ClosConfig parameterises a leaf-spine fabric. The zero value of any
// field selects the default noted on it.
type ClosConfig struct {
	Seed         int64
	Profile      nic.Profile
	Leaves       int // leaf switches; default 2
	Spines       int // spine switches; default 2
	HostsPerLeaf int // hosts per leaf, server included on leaf 0; default 2
	// Domains is the number of engine domains the fabric partitions into,
	// clamped to [1, Leaves+Spines]. 1 (or 0) builds everything on a single
	// engine; N spreads leaf/spine components across N engines run by the
	// conservative window protocol.
	Domains   int
	TrunkGbps float64      // leaf-spine trunk rate; default 400
	PropDelay sim.Duration // per-segment propagation; default 100 ns
	QoS       fabric.QoSConfig
	ServerHW  host.Config // default host.H3
	ClientHW  host.Config // default host.H2
	Switch    fabric.SwitchConfig
}

// noiseStream offsets the DeriveSeed index space used for per-NIC TPU
// jitter so it never collides with InjectLoss's per-link streams.
const noiseStream = 1 << 20

// Clos assembles the fabric. Host 0 on leaf 0 is the server; the remaining
// Leaves*HostsPerLeaf-1 hosts are clients, numbered leaf-major. Non-local
// destinations are published to every other leaf as an ECMP group over all
// spine trunks, so concurrent tenant flows fan out across the spines and
// congestion trees span switches, per the paper's shared-fabric setting.
func Clos(cfg ClosConfig) *Topology {
	if cfg.Leaves <= 0 {
		cfg.Leaves = 2
	}
	if cfg.Spines <= 0 {
		cfg.Spines = 2
	}
	if cfg.HostsPerLeaf <= 0 {
		cfg.HostsPerLeaf = 2
	}
	if cfg.TrunkGbps <= 0 {
		cfg.TrunkGbps = 400
	}
	prop := cfg.PropDelay
	if prop == 0 {
		prop = 100 * sim.Nanosecond
	}
	if cfg.ServerHW.Name == "" {
		cfg.ServerHW = host.H3
	}
	if cfg.ClientHW.Name == "" {
		cfg.ClientHW = host.H2
	}

	// Components 0..Leaves-1 are the leaves (each with its hosts),
	// Leaves..Leaves+Spines-1 the spines. A block partition assigns
	// contiguous components to domains; component 0 — the server's leaf —
	// always lands in domain 0, so Topology.Eng is the server's engine.
	numComp := cfg.Leaves + cfg.Spines
	nd := cfg.Domains
	if nd < 1 {
		nd = 1
	}
	if nd > numComp {
		nd = numComp
	}
	domOf := func(comp int) int { return comp * nd / numComp }

	engines := make([]*sim.Engine, nd)
	for d := range engines {
		engines[d] = sim.NewEngine(cfg.Seed)
	}
	var group *parsim.Group
	var domains []*parsim.Domain
	if nd > 1 {
		group = parsim.NewGroup()
		domains = make([]*parsim.Domain, nd)
		for d, e := range engines {
			domains[d] = group.AddDomain(e)
		}
	}
	engFor := func(comp int) *sim.Engine { return engines[domOf(comp)] }

	server := verbs.NewContext(engFor(0), "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      engines[0],
		Engines:  engines,
		Group:    group,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(engines[0])
	net.PropDelay = prop
	t.Net = net

	leaves := make([]*fabric.Switch, cfg.Leaves)
	spines := make([]*fabric.Switch, cfg.Spines)
	for i := range leaves {
		sc := cfg.Switch
		if sc == (fabric.SwitchConfig{}) {
			sc = DefaultSwitchConfig()
		}
		sc.Name = fmt.Sprintf("leaf%d", i)
		leaves[i] = fabric.NewSwitch(engFor(i), sc)
	}
	for j := range spines {
		sc := cfg.Switch
		if sc == (fabric.SwitchConfig{}) {
			sc = DefaultSwitchConfig()
		}
		sc.Name = fmt.Sprintf("spine%d", j)
		spines[j] = fabric.NewSwitch(engFor(cfg.Leaves+j), sc)
	}
	t.Switches = append(append(t.Switches, leaves...), spines...)

	// Full leaf-spine mesh. leafPorts[i][j] is leaf i's port toward spine j
	// (the members of leaf i's ECMP groups); spinePorts[j][i] is spine j's
	// port toward leaf i.
	leafPorts := make([][]int, cfg.Leaves)
	spinePorts := make([][]int, cfg.Spines)
	for j := range spinePorts {
		spinePorts[j] = make([]int, cfg.Leaves)
	}
	// Rule 4 of the equivalence contract: picosecond-scale, deterministic
	// propagation skew per trunk and per host uplink (cable lengths are
	// never exactly equal in a real pod). Without it, a symmetric fabric
	// produces same-picosecond arrival ties between clients on different
	// leaves, and serial and partitioned builds resolve those ties through
	// different mechanisms — the one place the two modes can diverge. The
	// skew makes every path's delay unique, so tie order never decides
	// anything.
	for i, leaf := range leaves {
		leafPorts[i] = make([]int, cfg.Spines)
		for j, spine := range spines {
			tprop := prop + sim.Duration(i*cfg.Spines+j+1)*sim.Picosecond
			net.PropDelay = tprop
			pl, ps := net.ConnectSwitches(leaf, spine, cfg.TrunkGbps, cfg.QoS)
			leafPorts[i][j] = pl
			spinePorts[j][i] = ps
			t.Links = append(t.Links, leaf.EgressLink(pl), spine.EgressLink(ps))
			wireTrunk(t, group, domains, tprop,
				leaf, pl, domOf(i), spine, ps, domOf(cfg.Leaves+j))
		}
	}
	net.PropDelay = prop

	// Hosts, leaf-major. The builder network follows each leaf's engine so
	// uplinks land on the right domain; contexts take the engine directly.
	var serverUp *fabric.Link
	hostIdx := 0
	for i, leaf := range leaves {
		net.UseEngine(engFor(i))
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			// Per-host cable skew (rule 4 again, host side).
			net.PropDelay = prop + sim.Duration(hostIdx+1)*sim.Picosecond
			var ctx *verbs.Context
			if i == 0 && h == 0 {
				ctx = server
			} else {
				ctx = verbs.NewContext(engFor(i), fmt.Sprintf("client%d", len(t.Clients)),
					cfg.ClientHW, cfg.Profile, 0)
			}
			port, up := net.AttachToSwitch(ctx, leaf, cfg.QoS)
			t.Links = append(t.Links, up, leaf.EgressLink(port))
			addr := net.Addr(ctx)
			for j, spine := range spines {
				spine.Route(addr, spinePorts[j][i])
			}
			for k, other := range leaves {
				if k != i {
					other.RouteECMP(addr, leafPorts[k])
				}
			}
			// Rule 1 of the equivalence contract: jitter streams keyed by
			// host index, not by engine.
			ctx.NIC().TPU().ReseedNoise(sim.DeriveSeed(cfg.Seed, noiseStream+uint64(hostIdx)))
			hostIdx++
			if ctx == server {
				serverUp = up
				continue
			}
			net.SetPath(ctx, server, up)
			net.SetPath(server, ctx, serverUp)
			t.Clients = append(t.Clients, ctx)
		}
	}
	net.UseEngine(engines[0])
	return t
}

// wireTrunk installs the cross-trunk plumbing for one leaf-spine pair:
// pause relays delayed by one propagation time on both ends (rule 2), and
// — when the ends live in different domains — timestamped channels that
// replace the links' synchronous sinks (rule 3).
func wireTrunk(t *Topology, group *parsim.Group, domains []*parsim.Domain, prop sim.Duration,
	a *fabric.Switch, pa int, da int, b *fabric.Switch, pb int, db int) {
	la, lb := a.EgressLink(pa), b.EgressLink(pb)
	if group == nil || da == db {
		// Same engine: relay through a delayed callback. The relay on a's
		// port pauses b's egress link (a's upstream), and vice versa.
		eng := t.Engines[da]
		a.SetPauseRelay(pa, delayedPause(eng, prop, lb))
		b.SetPauseRelay(pb, delayedPause(eng, prop, la))
		return
	}
	chAB := group.Connect(domains[da], domains[db], prop, b.Ingress)
	chBA := group.Connect(domains[db], domains[da], prop, a.Ingress)
	la.SetRemote(chAB.Send)
	lb.SetRemote(chBA.Send)
	engA, engB := t.Engines[da], t.Engines[db]
	a.SetPauseRelay(pa, func(tc int, pause bool) {
		chAB.SendPause(engA.Now().Add(prop), lb, tc, pause)
	})
	b.SetPauseRelay(pb, func(tc int, pause bool) {
		chBA.SendPause(engB.Now().Add(prop), la, tc, pause)
	})
}

// delayedPause returns a same-engine pause relay: the PFC frame reaches
// the peer's egress link one propagation delay after it is emitted,
// matching the cross-domain channel timing exactly.
func delayedPause(eng *sim.Engine, prop sim.Duration, target *fabric.Link) func(int, bool) {
	return func(tc int, pause bool) {
		if pause {
			eng.After(prop, func() { target.PauseTC(tc) })
		} else {
			eng.After(prop, func() { target.ResumeTC(tc) })
		}
	}
}
