// Package cluster turns the single-process linesearchd daemon into a
// shardable fleet: a consistent-hash ring places every plan key on a
// backend, a thin HTTP router proxies /v1/* with health-aware retry
// that respects the service's 429/503 + Retry-After admission
// contract, and topology changes warm-transfer hot plan-cache entries
// so a joining shard serves its keys without recompiling them.
//
// The design carries the paper's framing from robots to replicas: the
// fleet must keep answering while up to f backends are crashed or
// slow. Health probes use a quorum-style voting rule (a backend is
// quarantined only after a configurable number of consecutive failed
// votes, the detection rule of the Byzantine follow-up work), and the
// per-backend circuit breaker is fed by the same telemetry histograms
// the metrics surface exports.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per backend. 160 points per
// member keeps the key distribution across 2–64 backends within the
// bound the ring property tests pin (see ring_test.go) while keeping
// topology rebuilds cheap.
const DefaultVNodes = 160

// ringPoint is one virtual node: a position on the 64-bit ring owned
// by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring with virtual nodes. Keys and members
// hash onto the same 64-bit circle; a key belongs to the first member
// point at or clockwise after its hash. Adding or removing one member
// therefore remaps only the arcs adjacent to that member's points —
// about 1/N of the keyspace — instead of reshuffling everything, which
// is what keeps warm caches warm across topology changes.
//
// Ring is immutable-after-build in spirit: mutations rebuild the
// sorted point slice. It is not safe for concurrent mutation; the
// router guards it with its own lock.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint
}

// NewRing returns an empty ring with the given virtual-node count per
// member (vnodes < 1 uses DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// hash64 maps a string uniformly onto the ring. SHA-256 (truncated to
// 64 bits) rather than a cheap multiplicative hash: ring placement is
// computed once per request and once per vnode per topology change,
// and uniformity is what the balance bound rests on.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member (idempotent) and rebuilds the point set.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	r.rebuild()
}

// rebuild regenerates the sorted point slice from the member set.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for member := range r.members {
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(member + "#" + strconv.Itoa(i)),
				member: member,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between vnode points is vanishingly rare
		// but must not make placement depend on map iteration order.
		return r.points[i].member < r.points[j].member
	})
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the sorted member list.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct members in preference order for
// key: the owner first, then the successive distinct members walking
// clockwise. This is the router's failover order — deterministic for
// a key, so retries of the same request always walk the same path.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}

// String describes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members, %d vnodes)", len(r.members), r.vnodes)
}
