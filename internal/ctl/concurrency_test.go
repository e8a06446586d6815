package ctl

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"

	"dtc/internal/auth"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/ownership"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/tcsp"
	"dtc/internal/topology"
)

// concurrentConns is the number of client connections each test drives at
// once; a Server serves every connection on its own goroutine.
const concurrentConns = 8

// serve starts h on a loopback listener and dials n connections to it.
func serve(t *testing.T, h Handler, n int) []*Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, h)
	t.Cleanup(func() { srv.Close() })
	cls := make([]*Client, n)
	for i := range cls {
		if cls[i], err = Dial(ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		cl := cls[i]
		t.Cleanup(func() { cl.Close() })
	}
	return cls
}

// TestTCSPHandlerConcurrentRegister drives one TCSPHandler with
// registrations from many connections at once, as Figure 4's concurrency
// sweep does. The TCSP core keeps its certificates in plain maps, so the
// handler itself must serialize the calls.
func TestTCSPHandlerConcurrentRegister(t *testing.T) {
	const perConn = 16
	authority := ownership.NewRegistry()
	caID, _ := auth.NewIdentity("tcsp", seed(1))
	tc := tcsp.New(caID, authority, func() int64 { return 0 })

	total := concurrentConns * perConn
	ids := make([]*auth.Identity, total)
	prefixes := make([]string, total)
	for i := range ids {
		name := fmt.Sprintf("user%d", i)
		ids[i], _ = auth.NewIdentity(name, nil)
		if err := authority.Allocate(netsim.NodePrefix(i), ownership.OwnerID(name)); err != nil {
			t.Fatal(err)
		}
		prefixes[i] = netsim.NodePrefix(i).String()
	}

	cls := serve(t, TCSPHandler(tc), concurrentConns)
	serials := make([]uint64, total)
	var wg sync.WaitGroup
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, tcl *TCSPClient) {
			defer wg.Done()
			for i := c * perConn; i < (c+1)*perConn; i++ {
				cert, err := tcl.Register(ids[i], []string{prefixes[i]})
				if err != nil {
					t.Errorf("register %d: %v", i, err)
					return
				}
				if cert.Owner != ids[i].Name {
					t.Errorf("register %d: owner %q", i, cert.Owner)
				}
				serials[i] = cert.Serial
			}
		}(c, NewTCSPClient(cl))
	}
	wg.Wait()

	// Serialized registrations hand out each serial exactly once.
	seen := make(map[uint64]bool, total)
	for i, s := range serials {
		if s == 0 || seen[s] {
			t.Fatalf("registration %d got serial %d (duplicate or missing)", i, s)
		}
		seen[s] = true
	}
}

// TestNMSHandlerConcurrentDeployControl drives one NMSHandler with
// interleaved deploy and control calls from many connections at once, each
// connection acting for its own certified owner.
func TestNMSHandlerConcurrentDeployControl(t *testing.T) {
	const rounds = 8
	s := sim.New(1)
	network, err := netsim.New(s, topology.Line(concurrentConns), netsim.DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	authority := ownership.NewRegistry()
	caID, _ := auth.NewIdentity("tcsp", seed(1))
	clock := func() int64 { return 0 }
	tc := tcsp.New(caID, authority, clock)
	nodes := make([]int, concurrentConns)
	for i := range nodes {
		nodes[i] = i
	}
	m, err := nms.New("isp1", network, nodes, tc.PublicKey(), clock)
	if err != nil {
		t.Fatal(err)
	}

	users := make([]*auth.Identity, concurrentConns)
	certs := make([]*auth.Certificate, concurrentConns)
	for i := range users {
		name := fmt.Sprintf("owner%d", i)
		users[i], _ = auth.NewIdentity(name, nil)
		pfx := netsim.NodePrefix(i)
		if err := authority.Allocate(pfx, ownership.OwnerID(name)); err != nil {
			t.Fatal(err)
		}
		sig := users[i].Sign(tcsp.RegistrationBytes(name, users[i].Pub, []string{pfx.String()}))
		if certs[i], err = tc.Register(name, users[i].Pub, []string{pfx.String()}, sig); err != nil {
			t.Fatal(err)
		}
	}

	cls := serve(t, NMSHandler(m), concurrentConns)
	var wg sync.WaitGroup
	for c, cl := range cls {
		wg.Add(1)
		go func(c int, ncl *NMSClient) {
			defer wg.Done()
			user, cert := users[c], certs[c]
			for r := 0; r < rounds; r++ {
				body, _ := json.Marshal(&nms.DeployRequest{
					Owner:    user.Name,
					Prefixes: []string{netsim.NodePrefix(c).String()},
					Spec:     *service.FirewallDrop(fmt.Sprintf("fw%d", r), service.MatchSpec{DstPort: uint16(1000 + r)}),
				})
				if _, err := ncl.Deploy(cert, auth.SignRequest(user, cert.Serial, uint64(2*r+1), body)); err != nil {
					t.Errorf("conn %d: deploy %d: %v", c, r, err)
					return
				}
				body, _ = json.Marshal(&nms.ControlRequest{Owner: user.Name, Op: "counters", Stage: "dest"})
				res, err := ncl.Control(cert, auth.SignRequest(user, cert.Serial, uint64(2*r+2), body))
				if err != nil {
					t.Errorf("conn %d: control %d: %v", c, r, err)
					return
				}
				if !res.OK {
					t.Errorf("conn %d: control %d not ok: %+v", c, r, res)
					return
				}
			}
		}(c, NewNMSClient(cl))
	}
	wg.Wait()
}
