package membership

import (
	"context"
	"fmt"
	"sync"
)

// Loopback is an in-process transport connecting Nodes by URL: the
// deterministic fabric the partition chaos schedules run on. A
// message crosses a Loopback link only if the shared fault points let
// it; there is no network, no goroutine hop, no timing jitter.
type Loopback struct {
	mu    sync.Mutex
	nodes map[string]*Node
}

// NewLoopback returns an empty fabric.
func NewLoopback() *Loopback {
	return &Loopback{nodes: make(map[string]*Node)}
}

// Join registers n under url (its Self.URL).
func (l *Loopback) Join(url string, n *Node) {
	l.mu.Lock()
	l.nodes[url] = n
	l.mu.Unlock()
}

// Leave unregisters url — a hard kill: every future exchange to it
// fails like a refused connection.
func (l *Loopback) Leave(url string) {
	l.mu.Lock()
	delete(l.nodes, url)
	l.mu.Unlock()
}

// Exchange implements Transport by calling the target node's Handle
// inline.
func (l *Loopback) Exchange(ctx context.Context, url string, msg Message) (Message, error) {
	if err := hitLink(msg.From.Addr, addrOf(url)); err != nil {
		return Message{}, err
	}
	l.mu.Lock()
	n := l.nodes[url]
	l.mu.Unlock()
	if n == nil {
		return Message{}, fmt.Errorf("membership: no node at %s", url)
	}
	return n.Handle(ctx, msg), nil
}

// Self returns the node's current self entry (the incarnation moves
// as suspicions are refuted).
func (n *Node) Self() Member {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self
}

// View snapshots the member table, self included.
func (n *Node) View() View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.viewLocked()
}
