package membership

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"linesearch/internal/faultpoint"
	"linesearch/internal/telemetry"
)

// GossipPath is the HTTP route a fleet member serves gossip on,
// mounted next to the service handler by cmd/linesearchd (and by the
// router when it joins as an observer).
const GossipPath = "/gossip"

// Fault points in the gossip transport. Chaos schedules arm these to
// drop or delay links deterministically:
//
//	membership.send                  every outbound exchange
//	membership.send.<to>             everything sent TO member <to> (a dead or isolated node)
//	membership.link.<from>.<to>      one directed link (asymmetric partitions)
//
// <from>/<to> are member Addrs (host:port). Both the HTTP and the test
// loopback transport hit the same points, so a schedule written
// against in-process nodes replays against a real fleet unchanged.
const (
	fpSend = "membership.send"
	fpLink = "membership.link"
)

// hitLink fires the transport fault points for one directed send.
func hitLink(from, to string) error {
	if err := faultpoint.Hit(fpSend); err != nil {
		return err
	}
	if err := faultpoint.Hit(fpSend + "." + to); err != nil {
		return err
	}
	return faultpoint.Hit(fpLink + "." + from + "." + to)
}

// addrOf strips the scheme from a member base URL, recovering the
// Addr identity fault points and ring members are keyed by.
func addrOf(url string) string {
	if i := strings.Index(url, "://"); i >= 0 {
		return strings.TrimSuffix(url[i+3:], "/")
	}
	return strings.TrimSuffix(url, "/")
}

// maxGossipBody bounds one inbound gossip payload; member lists are
// tiny, so this is generous.
const maxGossipBody = 1 << 20

// HTTPTransport gossips over POST <peer>/gossip. The zero value is
// not usable; create with NewHTTPTransport.
type HTTPTransport struct {
	client *http.Client
}

// NewHTTPTransport returns a transport over client (nil uses a
// default client; callers should pass one with a timeout shorter than
// their probe interval).
func NewHTTPTransport(client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPTransport{client: client}
}

// Exchange implements Transport.
func (t *HTTPTransport) Exchange(ctx context.Context, url string, msg Message) (Message, error) {
	if err := hitLink(msg.From.Addr, addrOf(url)); err != nil {
		return Message{}, err
	}
	var reply Message
	if _, err := telemetry.CallJSON(ctx, t.client, http.MethodPost,
		strings.TrimSuffix(url, "/")+GossipPath, msg, &reply, maxGossipBody); err != nil {
		return Message{}, fmt.Errorf("membership: gossip: %w", err)
	}
	return reply, nil
}

// Handler serves the inbound side of HTTPTransport for n: mount it at
// POST /gossip on the member's mux.
func Handler(n *Node) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"gossip wants POST"}`, http.StatusMethodNotAllowed)
			return
		}
		var msg Message
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGossipBody)).Decode(&msg); err != nil {
			http.Error(w, `{"error":"decode gossip message: `+err.Error()+`"}`, http.StatusBadRequest)
			return
		}
		reply := n.Handle(r.Context(), msg)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reply)
	})
}
