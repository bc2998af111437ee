// Topology is the declarative successor to the fixed two/three-host rig:
// the same server-plus-clients threat model, but with the wiring — direct
// cables, a shared switch, dual rails, or a leaf-spine fabric — chosen per
// scenario. Pair reproduces the legacy Cluster byte-for-byte; Star and
// DualRail are the shapes the multi-tenant experiments need; Clos (clos.go)
// builds multi-switch fabrics.

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

// Topology is a built scenario: one server context, N client contexts, and
// every fabric element between them. Cluster is an alias of this type, so
// all pre-switch code keeps compiling unchanged.
type Topology struct {
	Eng      *sim.Engine
	Profile  nic.Profile
	Net      *verbs.Network
	Server   *verbs.Context
	ServerPD *verbs.PD
	Clients  []*verbs.Context
	// Links lists every fabric link — host uplinks, switch egress ports,
	// trunks — in deterministic build order, so loss experiments can install
	// fault plans and read drop counters on any segment.
	Links []*fabric.Link
	// Switches lists every switch in build order (empty for Pair).
	Switches []*fabric.Switch
	// Engines lists one engine per domain in domain order; Engines[0] == Eng
	// (the server's domain). Single-engine topologies have exactly one entry.
	Engines []*sim.Engine
	// Group coordinates the engine domains of a partitioned topology (see
	// Clos); nil when everything runs on one engine.
	Group *parsim.Group
}

// Run executes the topology until every domain is idle. Single-engine
// topologies delegate straight to the engine; partitioned ones run the
// conservative window protocol.
func (t *Topology) Run() {
	if t.Group != nil {
		t.Group.Run()
		return
	}
	t.Eng.Run()
}

// RunUntil executes until the given virtual time on every domain.
func (t *Topology) RunUntil(deadline sim.Time) {
	if t.Group != nil {
		t.Group.RunUntil(deadline)
		return
	}
	t.Eng.RunUntil(deadline)
}

// RunFor advances the topology by d from its current time.
func (t *Topology) RunFor(d sim.Duration) { t.RunUntil(t.Now().Add(d)) }

// Now returns the topology's current virtual time (the max across domains).
func (t *Topology) Now() sim.Time {
	if t.Group != nil {
		return t.Group.Now()
	}
	return t.Eng.Now()
}

// DrainCheck reports an error if any domain still has live events or any
// inter-domain channel holds staged transfers — the end-of-run leak oracle.
func (t *Topology) DrainCheck() error {
	if t.Group != nil {
		return t.Group.DrainCheck()
	}
	return t.Eng.DrainCheck()
}

// CompletionDigest folds the completion digests of every NIC, the server's
// first and then each client's in order (see nic.NIC.CompletionDigest). It
// changes when any CQE of the run moves by a picosecond, so it pins the
// schedule more tightly than rendered output can.
func (t *Topology) CompletionDigest() uint64 {
	h := t.Server.NIC().CompletionDigest()
	for _, c := range t.Clients {
		h = (h ^ c.NIC().CompletionDigest()) * 0x100000001b3
	}
	return h
}

// DefaultSwitchConfig is the shared-buffer switch used when a switched
// topology is requested without explicit switch parameters: a 300 ns
// store-and-forward latency, a 1 MiB shared pool, and PFC thresholds tight
// enough that a congested egress port visibly pauses its upstream ports.
func DefaultSwitchConfig() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		Name:           "sw0",
		FwdDelay:       300 * sim.Nanosecond,
		SharedBufBytes: 1 << 20,
		XOffBytes:      96 << 10,
		XOnBytes:       48 << 10,
	}
}

// fillDefaults applies the Config defaults shared by every constructor.
func fillDefaults(cfg Config) Config {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.ServerHW.Name == "" {
		cfg.ServerHW = host.H3
	}
	if cfg.ClientHW.Name == "" {
		cfg.ClientHW = host.H2
	}
	return cfg
}

// switchCfg picks the configured switch parameters or the defaults, naming
// the instance swN for multi-switch shapes.
func switchCfg(cfg Config, n int) fabric.SwitchConfig {
	sc := cfg.Switch
	if sc == (fabric.SwitchConfig{}) {
		sc = DefaultSwitchConfig()
	}
	if n > 0 || sc.Name == "" {
		sc.Name = fmt.Sprintf("sw%d", n)
	}
	return sc
}

// Pair wires every client straight to the server over a dedicated full-
// duplex wire — the legacy Cluster shape. Construction order (and therefore
// every RNG draw and event) matches the pre-topology lab.New exactly, which
// is what keeps the fig4–fig13/table5/lossgrid goldens byte-identical.
func Pair(cfg Config) *Topology {
	cfg = fillDefaults(cfg)
	eng := sim.NewEngine(cfg.Seed)
	// The Grain-III/IV methodology disables DDIO to remove cache-induced
	// variance; the host default is already DDIO-off.
	server := verbs.NewContext(eng, "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      eng,
		Engines:  []*sim.Engine{eng},
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	// Same-rack cabling: the paper's hosts sit under one switch.
	net.PropDelay = 200 * sim.Nanosecond
	t.Net = net
	for i := 0; i < cfg.Clients; i++ {
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), cfg.ClientHW, cfg.Profile, 0)
		w := net.ConnectContexts(cl, server, cfg.QoS)
		t.Links = append(t.Links, w.AtoB, w.BtoA)
		t.Clients = append(t.Clients, cl)
	}
	return t
}

// Star hangs the server and every client off one shared switch — the
// noisy-neighbor shape: all client traffic toward the server converges on a
// single egress port. Per-segment propagation is 100 ns, so the server path
// totals the Pair topology's 200 ns of cable plus the switch's forwarding
// delay and any queueing.
func Star(cfg Config) *Topology {
	cfg = fillDefaults(cfg)
	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      eng,
		Engines:  []*sim.Engine{eng},
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	net.PropDelay = 100 * sim.Nanosecond
	t.Net = net
	sw := fabric.NewSwitch(eng, switchCfg(cfg, 0))
	t.Switches = []*fabric.Switch{sw}
	sPort, sUp := net.AttachToSwitch(server, sw, cfg.QoS)
	t.Links = append(t.Links, sUp, sw.EgressLink(sPort))
	for i := 0; i < cfg.Clients; i++ {
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), cfg.ClientHW, cfg.Profile, 0)
		cPort, cUp := net.AttachToSwitch(cl, sw, cfg.QoS)
		net.SetPath(cl, server, cUp)
		net.SetPath(server, cl, sUp)
		t.Clients = append(t.Clients, cl)
		t.Links = append(t.Links, cUp, sw.EgressLink(cPort))
	}
	return t
}

// DualRail builds two independent switches (rails) with the server
// dual-homed on both; client i lands on rail i%2. Traffic between a client
// and the server stays on the client's rail, so the two rails only share
// the server's NIC — the shape for isolating switch-level interference from
// NIC-level interference.
func DualRail(cfg Config) *Topology {
	cfg = fillDefaults(cfg)
	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", cfg.ServerHW, cfg.Profile, 0)
	t := &Topology{
		Eng:      eng,
		Engines:  []*sim.Engine{eng},
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	net.PropDelay = 100 * sim.Nanosecond
	t.Net = net
	var serverUp [2]*fabric.Link
	for r := 0; r < 2; r++ {
		sw := fabric.NewSwitch(eng, switchCfg(cfg, r))
		t.Switches = append(t.Switches, sw)
		p, up := net.AttachToSwitch(server, sw, cfg.QoS)
		serverUp[r] = up
		t.Links = append(t.Links, up, sw.EgressLink(p))
	}
	for i := 0; i < cfg.Clients; i++ {
		rail := i % 2
		sw := t.Switches[rail]
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), cfg.ClientHW, cfg.Profile, 0)
		cPort, cUp := net.AttachToSwitch(cl, sw, cfg.QoS)
		net.SetPath(cl, server, cUp)
		net.SetPath(server, cl, serverUp[rail])
		t.Clients = append(t.Clients, cl)
		t.Links = append(t.Links, cUp, sw.EgressLink(cPort))
	}
	return t
}
