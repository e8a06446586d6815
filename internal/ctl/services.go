package ctl

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"sync"

	"dtc/internal/auth"
	"dtc/internal/nms"
	"dtc/internal/tcsp"
	"dtc/internal/telemetry"
)

// Wire parameter types.

// RegisterParams is the payload of the "register" method (paper Figure 4).
type RegisterParams struct {
	User      string   `json:"user"`
	PublicKey []byte   `json:"public_key"`
	Prefixes  []string `json:"prefixes"`
	Signature []byte   `json:"signature"`
}

// DeployParams is the payload of the TCSP "deploy" method (Figure 5).
type DeployParams struct {
	Signed *auth.SignedRequest `json:"signed"`
	ISPs   []string            `json:"isps,omitempty"`
}

// ControlParams is the payload of the TCSP "control" method.
type ControlParams struct {
	Signed *auth.SignedRequest `json:"signed"`
	ISPs   []string            `json:"isps,omitempty"`
}

// NMSParams is the payload of the NMS "deploy"/"control" methods: unlike
// TCSP calls, direct-to-ISP calls carry the full certificate because the
// ISP did not issue it.
type NMSParams struct {
	Cert   *auth.Certificate   `json:"cert"`
	Signed *auth.SignedRequest `json:"signed"`
	Relay  bool                `json:"relay,omitempty"` // NMS deploy: forward to peers
}

// RelayResult aggregates a relayed deployment.
type RelayResult struct {
	Results []*nms.DeployResult `json:"results"`
	Errors  []string            `json:"errors,omitempty"`
}

// ReportParams is the payload of the TCSP "report" method: one ISP's
// device snapshots in their canonical binary encoding (base64 on the JSON
// wire), so the envelope stays compact and the strict snapshot validation
// runs server-side.
type ReportParams struct {
	ISP       string   `json:"isp"`
	Snapshots [][]byte `json:"snapshots"`
}

// TCSPHandler exposes a TCSP over the wire protocol. A Server runs each
// connection on its own goroutine and the TCSP core is not
// concurrency-safe, so the returned handler serializes its calls into t
// with one mutex of its own. Payloads are decoded (and report snapshots
// validated) before the lock is taken. Callers that touch t outside the
// handler must still serialize those accesses themselves.
func TCSPHandler(t *tcsp.TCSP) Handler {
	var mu sync.Mutex
	return func(method string, payload json.RawMessage) (any, error) {
		switch method {
		case "ping":
			return "pong", nil
		case "register":
			var p RegisterParams
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, fmt.Errorf("register: %w", err)
			}
			mu.Lock()
			defer mu.Unlock()
			return t.Register(p.User, ed25519.PublicKey(p.PublicKey), p.Prefixes, p.Signature)
		case "deploy":
			var p DeployParams
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, fmt.Errorf("deploy: %w", err)
			}
			if p.Signed == nil {
				return nil, fmt.Errorf("deploy: missing signed request")
			}
			mu.Lock()
			defer mu.Unlock()
			return t.Deploy(p.Signed, p.ISPs)
		case "control":
			var p ControlParams
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, fmt.Errorf("control: %w", err)
			}
			if p.Signed == nil {
				return nil, fmt.Errorf("control: missing signed request")
			}
			mu.Lock()
			defer mu.Unlock()
			return t.Control(p.Signed, p.ISPs)
		case "report":
			var p ReportParams
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, fmt.Errorf("report: %w", err)
			}
			snaps := make([]*telemetry.Snapshot, 0, len(p.Snapshots))
			for i, raw := range p.Snapshots {
				var s telemetry.Snapshot
				if err := s.UnmarshalBinary(raw); err != nil {
					return nil, fmt.Errorf("report: snapshot %d: %w", i, err)
				}
				snaps = append(snaps, &s)
			}
			mu.Lock()
			defer mu.Unlock()
			if err := t.Report(p.ISP, snaps); err != nil {
				return nil, err
			}
			return "ok", nil
		default:
			return nil, fmt.Errorf("tcsp: unknown method %q", method)
		}
	}
}

// NMSHandler exposes an NMS over the wire protocol — the paper's direct
// user-to-ISP path for when the TCSP is unreachable. Like TCSPHandler, the
// returned handler serializes its calls into m with one mutex of its own,
// taken after the payload is decoded. A relayed deploy also reaches m's
// in-process peers, which this lock does not cover: callers that serve
// peered NMSes concurrently must share one lock across them.
func NMSHandler(m *nms.NMS) Handler {
	var mu sync.Mutex
	return func(method string, payload json.RawMessage) (any, error) {
		var p NMSParams
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, fmt.Errorf("%s: %w", method, err)
		}
		if p.Cert == nil || p.Signed == nil {
			return nil, fmt.Errorf("%s: missing certificate or signed request", method)
		}
		switch method {
		case "deploy":
			mu.Lock()
			defer mu.Unlock()
			if p.Relay {
				results, errs := m.DeployWithRelay(p.Cert, p.Signed)
				rr := &RelayResult{Results: results}
				for _, e := range errs {
					rr.Errors = append(rr.Errors, e.Error())
				}
				return rr, nil
			}
			return m.Deploy(p.Cert, p.Signed)
		case "control":
			mu.Lock()
			defer mu.Unlock()
			return m.Control(p.Cert, p.Signed)
		default:
			return nil, fmt.Errorf("nms: unknown method %q", method)
		}
	}
}

// TCSPClient is the network user's handle on a remote TCSP.
type TCSPClient struct {
	c *Client
}

// NewTCSPClient wraps a connected client.
func NewTCSPClient(c *Client) *TCSPClient { return &TCSPClient{c: c} }

// Ping checks liveness.
func (t *TCSPClient) Ping() error {
	var s string
	if err := t.c.Call("ping", nil, &s); err != nil {
		return err
	}
	if s != "pong" {
		return fmt.Errorf("ctl: unexpected ping reply %q", s)
	}
	return nil
}

// Register performs Figure-4 service registration for id.
func (t *TCSPClient) Register(id *auth.Identity, prefixes []string) (*auth.Certificate, error) {
	sig := id.Sign(tcsp.RegistrationBytes(id.Name, id.Pub, prefixes))
	var cert auth.Certificate
	err := t.c.Call("register", &RegisterParams{
		User: id.Name, PublicKey: id.Pub, Prefixes: prefixes, Signature: sig,
	}, &cert)
	if err != nil {
		return nil, err
	}
	return &cert, nil
}

// Deploy performs Figure-5 service deployment.
func (t *TCSPClient) Deploy(signed *auth.SignedRequest, isps []string) ([]*nms.DeployResult, error) {
	var out []*nms.DeployResult
	if err := t.c.Call("deploy", &DeployParams{Signed: signed, ISPs: isps}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Report uploads one ISP's device snapshots in canonical binary form.
func (t *TCSPClient) Report(isp string, snaps []*telemetry.Snapshot) error {
	p := &ReportParams{ISP: isp, Snapshots: make([][]byte, 0, len(snaps))}
	for _, s := range snaps {
		raw, err := s.MarshalBinary()
		if err != nil {
			return err
		}
		p.Snapshots = append(p.Snapshots, raw)
	}
	return t.c.Call("report", p, nil)
}

// Subscribe opens a server-push stream on the underlying connection.
func (t *TCSPClient) Subscribe(method string, in any) (*Stream, error) {
	return t.c.Subscribe(method, in)
}

// Control relays a control request.
func (t *TCSPClient) Control(signed *auth.SignedRequest, isps []string) ([]*nms.ControlResult, error) {
	var out []*nms.ControlResult
	if err := t.c.Call("control", &ControlParams{Signed: signed, ISPs: isps}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// NMSClient is a handle on a remote ISP NMS. It satisfies tcsp.Backend, so
// a TCSP can manage ISPs over the network exactly as it does in-process.
type NMSClient struct {
	c *Client
}

// NewNMSClient wraps a connected client.
func NewNMSClient(c *Client) *NMSClient { return &NMSClient{c: c} }

// Deploy implements tcsp.Backend.
func (n *NMSClient) Deploy(cert *auth.Certificate, signed *auth.SignedRequest) (*nms.DeployResult, error) {
	var out nms.DeployResult
	if err := n.c.Call("deploy", &NMSParams{Cert: cert, Signed: signed}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeployWithRelay asks the remote NMS to deploy and forward to its peers.
func (n *NMSClient) DeployWithRelay(cert *auth.Certificate, signed *auth.SignedRequest) (*RelayResult, error) {
	var out RelayResult
	if err := n.c.Call("deploy", &NMSParams{Cert: cert, Signed: signed, Relay: true}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Control implements tcsp.Backend.
func (n *NMSClient) Control(cert *auth.Certificate, signed *auth.SignedRequest) (*nms.ControlResult, error) {
	var out nms.ControlResult
	if err := n.c.Call("control", &NMSParams{Cert: cert, Signed: signed}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
