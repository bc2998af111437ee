// Clos builds the two-tier leaf-spine fabric the scaled multi-tenant
// experiments run on: every leaf trunks to every spine, hosts hang off
// leaves, and leaf-to-leaf traffic spreads across the spines with
// flow-hashed ECMP. Unlike Star, a Clos has path diversity,
// and its PFC crosses switches: a trunk port's pause reaches the peer
// switch one trunk propagation delay after the switch asserts it.
//
// Two construction rules keep results from resting on what the model
// leaves undefined (DESIGN §12):
//
//  1. Each NIC's TPU jitter comes from its own stream, seeded from (seed,
//     host index), so one host's draws do not depend on when the other
//     hosts draw theirs.
//  2. Every trunk and host uplink carries a deterministic picosecond-scale
//     propagation skew (real cable lengths are never identical), so no
//     two paths through the fabric have exactly equal delay and no
//     same-picosecond tie between arrivals from different hosts decides
//     queueing.

package lab

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/verbs"
)

// ClosConfig parameterises a leaf-spine fabric. The zero value of any
// field selects the default noted on it.
type ClosConfig struct {
	Seed         int64
	Profile      nic.Profile
	Leaves       int                 // leaf switches; default 2
	Spines       int                 // spine switches; default 2
	HostsPerLeaf int                 // hosts per leaf, server included on leaf 0; default 2
	Switch       fabric.SwitchConfig // default DefaultSwitchConfig()
}

// The fabric's fixed wiring: 400 Gbps leaf-spine trunks, 100 ns of cable
// per segment before skew.
const (
	closTrunkGbps = 400
	closPropDelay = 100 * sim.Nanosecond
)

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

	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", host.H3, cfg.Profile)
	t := &Topology{
		Eng:      eng,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	t.Net = net

	leaves := make([]*fabric.Switch, cfg.Leaves)
	spines := make([]*fabric.Switch, cfg.Spines)
	for i := range leaves {
		sc := cfg.Switch
		if sc == (fabric.SwitchConfig{}) {
			sc = DefaultSwitchConfig()
		}
		sc.Name = fmt.Sprintf("leaf%d", i)
		leaves[i] = fabric.NewSwitch(eng, sc)
	}
	for j := range spines {
		sc := cfg.Switch
		if sc == (fabric.SwitchConfig{}) {
			sc = DefaultSwitchConfig()
		}
		sc.Name = fmt.Sprintf("spine%d", j)
		spines[j] = fabric.NewSwitch(eng, sc)
	}
	t.Switches = append(append(t.Switches, leaves...), spines...)

	// Full leaf-spine mesh. leafPorts[i][j] is leaf i's port toward spine j
	// (the members of leaf i's ECMP groups); spinePorts[j][i] is spine j's
	// port toward leaf i. Each trunk gets its own picosecond-scale skew
	// (rule 2), and ConnectSwitches delays the trunk's PFC by the same
	// propagation.
	leafPorts := make([][]int, cfg.Leaves)
	spinePorts := make([][]int, cfg.Spines)
	for j := range spinePorts {
		spinePorts[j] = make([]int, cfg.Leaves)
	}
	for i, leaf := range leaves {
		leafPorts[i] = make([]int, cfg.Spines)
		for j, spine := range spines {
			net.PropDelay = closPropDelay + sim.Duration(i*cfg.Spines+j+1)*sim.Picosecond
			pl, ps := net.ConnectSwitches(leaf, spine, closTrunkGbps)
			leafPorts[i][j] = pl
			spinePorts[j][i] = ps
			t.Links = append(t.Links, leaf.EgressLink(pl), spine.EgressLink(ps))
		}
	}

	// Hosts, leaf-major.
	var serverUp *fabric.Link
	hostIdx := 0
	for i, leaf := range leaves {
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			// Per-host cable skew (rule 2, host side).
			net.PropDelay = closPropDelay + sim.Duration(hostIdx+1)*sim.Picosecond
			var ctx *verbs.Context
			if i == 0 && h == 0 {
				ctx = server
			} else {
				ctx = verbs.NewContext(eng, fmt.Sprintf("client%d", len(t.Clients)),
					host.H2, cfg.Profile)
			}
			port, up := net.AttachToSwitch(ctx, leaf)
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
			// Rule 1: a jitter stream per host.
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
	return t
}
