// Topology is the declarative successor to the fixed two/three-host rig:
// the same server-plus-clients threat model, but with the wiring — direct
// cables, a shared switch or a leaf-spine fabric — chosen per scenario.
// Pair reproduces the legacy Cluster byte-for-byte; Star is the shape the
// multi-tenant experiments need; Clos (clos.go) builds multi-switch
// fabrics.

package lab

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
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
}

// Run executes the topology until its engine is idle.
func (t *Topology) Run() { t.Eng.Run() }

// RunUntil executes until the given virtual time.
func (t *Topology) RunUntil(deadline sim.Time) { t.Eng.RunUntil(deadline) }

// RunFor advances the topology by d from its current time.
func (t *Topology) RunFor(d sim.Duration) { t.Eng.RunFor(d) }

// Now returns the topology's current virtual time.
func (t *Topology) Now() sim.Time { return t.Eng.Now() }

// DrainCheck reports an error if the engine still has live events — the
// end-of-run leak oracle.
func (t *Topology) DrainCheck() error { return t.Eng.DrainCheck() }

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

// DefaultSwitchConfig is Star's shared-buffer switch, and a Clos's unless
// its config names another: a 1 MiB shared pool, and a PFC threshold tight
// enough that a congested egress port visibly pauses its upstream ports.
func DefaultSwitchConfig() fabric.SwitchConfig {
	return fabric.SwitchConfig{
		Name:           "sw0",
		SharedBufBytes: 1 << 20,
		XOffBytes:      96 << 10,
	}
}

// Pair wires every client straight to the server over a dedicated full-
// duplex wire — the legacy Cluster shape. Construction order (and therefore
// every RNG draw and event) matches the pre-topology lab.New exactly, which
// is what keeps the fig4–fig13/table5/lossgrid goldens byte-identical.
func Pair(cfg Config) *Topology {
	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", host.H3, cfg.Profile)
	t := &Topology{
		Eng:      eng,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	// Same-rack cabling: the paper's hosts sit under one switch.
	net.PropDelay = 200 * sim.Nanosecond
	t.Net = net
	for i := range max(cfg.Clients, 1) {
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), host.H2, cfg.Profile)
		w := net.ConnectContexts(cl, server)
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
	eng := sim.NewEngine(cfg.Seed)
	server := verbs.NewContext(eng, "server", host.H3, cfg.Profile)
	t := &Topology{
		Eng:      eng,
		Profile:  cfg.Profile,
		Server:   server,
		ServerPD: server.AllocPD(),
	}
	net := verbs.NewNetwork(eng)
	net.PropDelay = 100 * sim.Nanosecond
	t.Net = net
	sw := fabric.NewSwitch(eng, DefaultSwitchConfig())
	t.Switches = []*fabric.Switch{sw}
	sPort, sUp := net.AttachToSwitch(server, sw)
	t.Links = append(t.Links, sUp, sw.EgressLink(sPort))
	for i := range max(cfg.Clients, 1) {
		cl := verbs.NewContext(eng, fmt.Sprintf("client%d", i), host.H2, cfg.Profile)
		cPort, cUp := net.AttachToSwitch(cl, sw)
		net.SetPath(cl, server, cUp)
		net.SetPath(server, cl, sUp)
		t.Clients = append(t.Clients, cl)
		t.Links = append(t.Links, cUp, sw.EgressLink(cPort))
	}
	return t
}
