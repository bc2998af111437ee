// Package lab assembles Ragnar experiment topologies — one server context
// shared by several client contexts, per the paper's threat model (Figure
// 2) — so reverse-engineering benchmarks, covert channels and side-channel
// attacks all build on identical plumbing. The wiring itself is declarative
// (see Topology in topology.go): Pair keeps the legacy point-to-point
// shape, Star and Clos add switched multi-host scenarios. Every rig is the
// paper's testbed: an H3 server, H2 clients (Table II), and links that give
// every traffic class the ETS 50 % quantum.
package lab

import (
	"fmt"

	"github.com/thu-has/ragnar/internal/fabric"
	"github.com/thu-has/ragnar/internal/host"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
	"github.com/thu-has/ragnar/internal/verbs"
)

// Cluster is the legacy name for a built topology: all pre-switch callers
// keep compiling, and New still hands them the exact point-to-point shape
// they were written against.
type Cluster = Topology

// Config parameterises a cluster. Clients below 1 build one client.
type Config struct {
	Seed    int64
	Profile nic.Profile
	Clients int
}

// DefaultConfig mirrors the paper's two-client setup at seed 1.
func DefaultConfig(p nic.Profile) Config {
	return Config{Seed: 1, Profile: p, Clients: 2}
}

// New builds the legacy point-to-point cluster — a thin wrapper over the
// Pair topology, which replicates the original construction order exactly
// so existing goldens stay byte-identical.
func New(cfg Config) *Cluster {
	return Pair(cfg)
}

// AttachRecorder wires one flight recorder through the whole rig: the
// engine, every context (verbs layer + NIC datapath), every switch
// forwarding plane and every fabric link emit into it. Call it right after
// construction, before any traffic, so actor registration order — and
// therefore Chrome track order — is deterministic. Recording is passive;
// traced runs stay byte-identical to untraced ones.
func (c *Cluster) AttachRecorder(r *trace.Recorder) {
	c.Eng.SetRecorder(r)
	c.Server.SetRecorder(r)
	for _, cl := range c.Clients {
		cl.SetRecorder(r)
	}
	for _, sw := range c.Switches {
		sw.SetRecorder(r)
	}
	for _, l := range c.Links {
		l.SetRecorder(r)
	}
}

// InjectLoss installs a uniform random-drop FaultPlan on every link in the
// topology — host uplinks, switch egress ports and trunks alike. Each
// link's RNG stream is derived from seed and the link's index with
// sim.DeriveSeed, so runs are reproducible and links are decorrelated.
// prob 0 removes any installed plans.
func (c *Cluster) InjectLoss(seed int64, prob float64) {
	for i, l := range c.Links {
		if prob <= 0 {
			l.SetFaultPlan(nil)
			continue
		}
		l.SetFaultPlan(&fabric.FaultPlan{Seed: sim.DeriveSeed(seed, uint64(i)), DropProb: prob})
	}
}

// RegisterServerMR registers a remotely readable/writable MR of size bytes
// on 2 MB huge pages (the paper's Grain-III/IV configuration).
func (c *Cluster) RegisterServerMR(size uint64) (*verbs.MR, error) {
	return c.ServerPD.RegMR(size, host.Page2M,
		verbs.AccessRemoteRead|verbs.AccessRemoteWrite|verbs.AccessRemoteAtomic)
}

// Conn is a connected client QP with its CQ.
type Conn struct {
	Client *verbs.Context
	QP     *verbs.QP
	CQ     *verbs.CQ
	server *verbs.QP
}

// ServerQP returns the server-side endpoint of the connection.
func (cn *Conn) ServerQP() *verbs.QP { return cn.server }

// Dial connects client i to the server with the given send-queue depth and
// the default (effectively unbounded) CQ capacity.
func (c *Cluster) Dial(client int, sqDepth int) (*Conn, error) {
	return c.DialCQ(client, sqDepth, 0)
}

// DialCQ is Dial with an explicit client-side CQ capacity (0 selects the
// default). Exhaustion experiments use small capacities to model victims
// whose completion rings an aggressor can overrun.
func (c *Cluster) DialCQ(client, sqDepth, cqCap int) (*Conn, error) {
	if client < 0 || client >= len(c.Clients) {
		return nil, fmt.Errorf("lab: client %d out of range", client)
	}
	cl := c.Clients[client]
	cq := cl.CreateCQ(cqCap)
	qp, err := cl.CreateQP(cl.AllocPD(), cq, verbs.QPCap{MaxSendWR: sqDepth})
	if err != nil {
		return nil, err
	}
	sq, err := c.Server.CreateQP(c.ServerPD, c.Server.CreateCQ(0), verbs.QPCap{})
	if err != nil {
		return nil, err
	}
	if err := verbs.Connect(qp, sq); err != nil {
		return nil, err
	}
	// Tag the server-side QP with the client index so isolation profiles
	// can attribute egress scheduling and responder credits per tenant.
	// Inert on non-ISO profiles (the strict arbiter ignores tenants).
	c.Server.NIC().SetQPTenant(sq.QPN(), client)
	return &Conn{Client: cl, QP: qp, CQ: cq, server: sq}, nil
}

// Warm performs one read per connection against the MR so cold QPC/MTT
// misses do not pollute subsequent measurements. A warm-up READ that
// completes in error (a bad or deregistered MR) is reported, naming the QP
// and the status.
func (c *Cluster) Warm(conn *Conn, mr *verbs.MR) error {
	const warmWRID = ^uint64(0)
	if err := conn.QP.PostRead(warmWRID, nil, mr.Describe(0), 8); err != nil {
		return err
	}
	c.Run()
	var err error
	var scratch [16]nic.Completion
	for n := conn.CQ.PollInto(scratch[:]); n > 0; n = conn.CQ.PollInto(scratch[:]) {
		for _, comp := range scratch[:n] {
			if comp.WRID == warmWRID && comp.Status != nic.StatusOK && err == nil {
				err = fmt.Errorf("lab: warm-up READ on QP %d completed with %v", comp.QPN, comp.Status)
			}
		}
	}
	return err
}
