package lab

import (
	"fmt"
	"strings"
	"testing"

	"github.com/thu-has/ragnar/internal/nic"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(nic.CX5)
	if cfg.Clients != 2 || cfg.Profile.Name != "ConnectX-5" {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.ServerHW.Name != "H3" || cfg.ClientHW.Name != "H2" {
		t.Fatal("Table II host roles wrong")
	}
}

func TestNewClusterWiring(t *testing.T) {
	cfg := DefaultConfig(nic.CX4)
	cfg.Clients = 3
	c := New(cfg)
	if len(c.Clients) != 3 {
		t.Fatalf("clients = %d", len(c.Clients))
	}
	mr, err := c.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Every client can reach the server MR.
	for i := range c.Clients {
		conn, err := c.Dial(i, 8)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if err := c.Warm(conn, mr); err != nil {
			t.Fatalf("warm %d: %v", i, err)
		}
		if err := conn.QP.PostRead(1, nil, mr.Describe(0), 64); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		c.Eng.Run()
		comps := conn.CQ.Poll(4)
		if len(comps) != 1 || comps[0].Status != nic.StatusOK {
			t.Fatalf("client %d completion: %+v", i, comps)
		}
	}
}

func TestDialRange(t *testing.T) {
	c := New(DefaultConfig(nic.CX4))
	if _, err := c.Dial(-1, 4); err == nil {
		t.Fatal("negative client should error")
	}
	if _, err := c.Dial(9, 4); err == nil {
		t.Fatal("out-of-range client should error")
	}
}

func TestClusterMinimums(t *testing.T) {
	cfg := Config{Profile: nic.CX4}
	c := New(cfg)
	if len(c.Clients) != 1 {
		t.Fatal("zero-client config should clamp to 1")
	}
	if c.Server == nil || c.ServerPD == nil {
		t.Fatal("server not initialised")
	}
}

func TestDeterministicClusters(t *testing.T) {
	run := func() float64 {
		cfg := DefaultConfig(nic.CX5)
		cfg.Seed = 99
		c := New(cfg)
		mr, _ := c.RegisterServerMR(1 << 20)
		conn, _ := c.Dial(0, 8)
		c.Warm(conn, mr)
		conn.QP.PostRead(7, nil, mr.Describe(128), 256)
		c.Eng.Run()
		comp := conn.CQ.Poll(1)[0]
		return comp.DoneTime.Sub(comp.PostTime).Nanoseconds()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed clusters diverge: %v vs %v", a, b)
	}
}

// TestWarmReportsFailedRead: a warm-up READ against a deregistered MR
// completes with a remote access error, and Warm returns it instead of nil.
func TestWarmReportsFailedRead(t *testing.T) {
	c := New(DefaultConfig(nic.CX5))
	mr, err := c.RegisterServerMR(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := c.Dial(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Warm(conn, mr); err != nil {
		t.Fatalf("warm-up against a live MR: %v", err)
	}
	mr.DeregMR()
	err = c.Warm(conn, mr)
	if err == nil {
		t.Fatal("warm-up against a deregistered MR returned nil")
	}
	if want := fmt.Sprintf("QP %d", conn.QP.QPN()); !strings.Contains(err.Error(), want) ||
		!strings.Contains(err.Error(), nic.StatusRemoteAccessError.String()) {
		t.Fatalf("error %q does not name %s and the status", err, want)
	}
}
