package membership

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"time"

	"linesearch/internal/telemetry/journal"
)

// Protocol constants.
const (
	// probeSeed seeds the probe-selection PRNG; the probe schedule is a
	// pure function of it, which is what makes partition chaos
	// schedules replayable.
	probeSeed = 1
	// probeTimeout bounds one direct or indirect probe.
	probeTimeout = time.Second
	// suspectTicks is how many ticks a suspect gets to refute before
	// it is confirmed dead: the waiting room between "missed a probe"
	// and "crashed", sized like the paper's rule: never condemn on a
	// single missed confirmation.
	suspectTicks = 3
	// indirectProbes is how many helpers an indirect probe round asks.
	indirectProbes = 2
)

// Config tunes a Node. Self.Addr is required; everything else has a
// sensible default.
type Config struct {
	// Self is this node's own gossip entry. Addr (host:port identity)
	// is required; URL defaults to "http://"+Addr and Role to
	// RoleShard.
	Self Member
	// Seeds are peer base URLs used to bootstrap (and, after a full
	// partition, re-heal) the member table. The node's own URL is
	// filtered out, so every fleet member can share one seed list.
	Seeds []string
	// Transport delivers gossip exchanges (required).
	Transport Transport
	// Interval is the background tick cadence for Start (default 1s;
	// tests leave Start unused and drive Tick directly).
	Interval time.Duration
	// OnChange, when set, fires after any tick or inbound exchange that
	// changed the alive shard set, with a fresh view snapshot. Called
	// without internal locks held, from the goroutine that observed the
	// change.
	OnChange func(View)
	// Logger receives membership transitions (default slog.Default()).
	Logger *slog.Logger
	// Journal, when set, records membership transitions (suspect,
	// confirm-dead, refute, discovery) as structured events for
	// GET /debug/events. Nil-safe: a nil journal records nothing.
	Journal *journal.Journal
}

// memberState is one table entry plus local bookkeeping.
type memberState struct {
	Member
	suspectedAt uint64 // tick the local node saw it become suspect
}

// Node is one gossip participant. Create with NewNode; all methods
// are safe for concurrent use.
type Node struct {
	cfg    Config
	logger *slog.Logger

	mu       sync.Mutex
	rng      *rand.Rand
	self     Member
	members  map[string]*memberState // keyed by Addr, self excluded
	rotation []string                // randomized round-robin probe order
	rotIdx   int
	tick     uint64
	version  uint64
	lastSeen string // fingerprint at the last OnChange

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewNode validates cfg and returns a node that knows only itself and
// its seed list. Nothing is sent until Tick or Start.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self.Addr == "" {
		return nil, errors.New("membership: Self.Addr is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("membership: Transport is required")
	}
	if cfg.Self.URL == "" {
		cfg.Self.URL = "http://" + cfg.Self.Addr
	}
	if cfg.Self.Role == "" {
		cfg.Self.Role = RoleShard
	}
	cfg.Self.Status = Alive
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	seeds := make([]string, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		if s != "" && s != cfg.Self.URL {
			seeds = append(seeds, s)
		}
	}
	cfg.Seeds = seeds
	n := &Node{
		cfg:     cfg,
		logger:  cfg.Logger,
		rng:     rand.New(rand.NewSource(probeSeed)),
		self:    cfg.Self,
		members: make(map[string]*memberState),
		stop:    make(chan struct{}),
	}
	return n, nil
}

// Start runs the background tick loop until Close.
func (n *Node) Start() {
	if n.cfg.Interval <= 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(n.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-ticker.C:
				n.Tick(context.Background())
			}
		}
	}()
}

// Close stops the background loop. The node stays usable for inbound
// exchanges (Handle) so a draining process keeps answering gossip.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) viewLocked() View {
	out := make([]Member, 0, len(n.members)+1)
	out = append(out, n.self)
	for _, ms := range n.members {
		out = append(out, ms.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return View{Version: n.version, Members: out}
}

// Tick runs one protocol period: expire suspects, probe one member
// (direct, then indirectly through up to indirectProbes helpers), and
// spread state through the piggybacked lists. Production calls it on
// the Start cadence; tests call it directly, so a schedule of ticks
// is a deterministic replay.
func (n *Node) Tick(ctx context.Context) {
	n.mu.Lock()
	n.tick++
	n.expireSuspectsLocked()
	target, helpers, seed := n.pickProbeLocked()
	msg := n.messageLocked(KindPing, "")
	n.mu.Unlock()

	switch {
	case target != nil:
		n.probe(ctx, *target, helpers, msg)
	case seed != "":
		// Empty table (bootstrap, or everyone confirmed dead after a
		// partition): knock on a seed. Its piggybacked list repopulates
		// the table; dead peers refute through it over later ticks.
		if reply, err := n.exchange(ctx, seed, msg); err == nil {
			n.merge(reply.Members)
		}
	}
	n.notify()
}

// expireSuspectsLocked confirms suspects whose timeout lapsed.
func (n *Node) expireSuspectsLocked() {
	for _, ms := range n.members {
		if ms.Status == Suspect && n.tick-ms.suspectedAt >= suspectTicks {
			ms.Status = Dead
			n.version++
			n.logger.Info("membership: member confirmed dead",
				"member", ms.Addr, "incarnation", ms.Incarnation)
			n.cfg.Journal.Record(context.Background(), journal.MemberConfirmDead, ms.Addr,
				fmt.Sprintf("suspect timeout at incarnation %d", ms.Incarnation))
		}
	}
}

// pickProbeLocked selects this tick's probe target via randomized
// round-robin over the non-dead members, plus up to indirectProbes
// distinct helpers. With no eligible member it returns a random seed
// URL instead (or nothing at all for a seedless singleton).
func (n *Node) pickProbeLocked() (target *Member, helpers []Member, seed string) {
	if n.rotIdx >= len(n.rotation) {
		n.rotation = n.rotation[:0]
		var dead []string
		for addr, ms := range n.members {
			if ms.Status == Dead {
				dead = append(dead, addr)
			} else {
				n.rotation = append(n.rotation, addr)
			}
		}
		sort.Strings(n.rotation) // determinism before the shuffle
		if len(dead) > 0 {
			// One dead member per round gets re-probed. A symmetric
			// partition ends with each side believing the other dead and
			// neither initiating contact; this bounded retry is what lets
			// a healed split (or a restarted peer) refute its own death
			// instead of wedging both sides in their partition-era views.
			sort.Strings(dead)
			n.rotation = append(n.rotation, dead[n.rng.Intn(len(dead))])
		}
		n.rng.Shuffle(len(n.rotation), func(i, j int) {
			n.rotation[i], n.rotation[j] = n.rotation[j], n.rotation[i]
		})
		n.rotIdx = 0
	}
	for n.rotIdx < len(n.rotation) {
		ms := n.members[n.rotation[n.rotIdx]]
		n.rotIdx++
		if ms == nil {
			continue
		}
		m := ms.Member
		target = &m
		break
	}
	if target == nil {
		if len(n.cfg.Seeds) > 0 {
			seed = n.cfg.Seeds[n.rng.Intn(len(n.cfg.Seeds))]
		}
		return nil, nil, seed
	}
	for _, ms := range n.members {
		if len(helpers) >= indirectProbes {
			break
		}
		if ms.Addr != target.Addr && ms.Status == Alive {
			helpers = append(helpers, ms.Member)
		}
	}
	return target, helpers, ""
}

// messageLocked builds an outbound message with the piggybacked table.
func (n *Node) messageLocked(kind MessageKind, targetURL string) Message {
	v := n.viewLocked()
	return Message{Kind: kind, From: n.self, Target: targetURL, Members: v.Members}
}

// probe runs one direct-then-indirect probe round against target.
func (n *Node) probe(ctx context.Context, target Member, helpers []Member, msg Message) {
	if reply, err := n.exchange(ctx, target.URL, msg); err == nil {
		n.merge(reply.Members)
		return
	}
	for _, h := range helpers {
		req := msg
		req.Kind = KindPingReq
		req.Target = target.URL
		reply, err := n.exchange(ctx, h.URL, req)
		if err != nil {
			continue
		}
		n.merge(reply.Members)
		if reply.TargetOK {
			// The link to us is down but the member is alive: no
			// suspicion. The helper's piggybacked list already carried
			// its fresh view of the target.
			return
		}
	}
	n.suspect(target)
}

// exchange sends one message with the probe timeout applied.
func (n *Node) exchange(ctx context.Context, url string, msg Message) (Message, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	return n.cfg.Transport.Exchange(ctx, url, msg)
}

// suspect records a failed probe round: the target becomes suspect at
// its current incarnation, a statement gossip spreads until the
// target refutes it or the timeout confirms it.
func (n *Node) suspect(target Member) {
	n.mu.Lock()
	ms := n.members[target.Addr]
	if ms != nil && ms.Status == Alive && ms.Incarnation <= target.Incarnation {
		ms.Status = Suspect
		ms.Incarnation = target.Incarnation
		ms.suspectedAt = n.tick
		n.version++
		n.logger.Info("membership: member suspected",
			"member", ms.Addr, "incarnation", ms.Incarnation)
		n.cfg.Journal.Record(context.Background(), journal.MemberSuspect, ms.Addr,
			fmt.Sprintf("probe round failed at incarnation %d", ms.Incarnation))
	}
	n.mu.Unlock()
}

// Handle is the server side of one exchange: merge the sender's view,
// answer with our own, and for ping-req probe the target on the
// sender's behalf. The HTTP handler (and the loopback test transport)
// call it for every inbound message.
func (n *Node) Handle(ctx context.Context, msg Message) Message {
	n.merge(append(msg.Members, msg.From))
	var targetOK bool
	if msg.Kind == KindPingReq && msg.Target != "" && msg.Target != n.selfURL() {
		ping := n.buildMessage(KindPing, "")
		if reply, err := n.exchange(ctx, msg.Target, ping); err == nil {
			n.merge(reply.Members)
			targetOK = true
		}
	}
	reply := n.buildMessage(KindPing, "")
	reply.Ack = true
	reply.TargetOK = targetOK
	n.notify()
	return reply
}

func (n *Node) selfURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self.URL
}

func (n *Node) buildMessage(kind MessageKind, target string) Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.messageLocked(kind, target)
}

// merge folds gossiped statements into the table under SWIM
// precedence, handling self-refutation: a statement that we are
// suspect or dead at our incarnation is answered by bumping the
// incarnation, which supersedes the rumor everywhere it spread.
func (n *Node) merge(entries []Member) {
	n.mu.Lock()
	for _, e := range entries {
		if e.Addr == "" {
			continue
		}
		if e.Addr == n.self.Addr {
			if e.Status != Alive && e.Incarnation >= n.self.Incarnation {
				n.self.Incarnation = e.Incarnation + 1
				n.version++
				n.logger.Info("membership: refuted own suspicion",
					"incarnation", n.self.Incarnation)
				n.cfg.Journal.Record(context.Background(), journal.MemberRefute, n.self.Addr,
					fmt.Sprintf("bumped incarnation to %d", n.self.Incarnation))
			}
			continue
		}
		ms := n.members[e.Addr]
		if ms == nil {
			cp := e
			n.members[e.Addr] = &memberState{Member: cp, suspectedAt: n.tick}
			n.version++
			n.logger.Info("membership: member discovered",
				"member", e.Addr, "role", e.Role, "status", e.Status.String())
			n.cfg.Journal.Record(context.Background(), journal.MemberAlive, e.Addr,
				"discovered as "+e.Status.String())
			continue
		}
		if !supersedes(e, ms.Member) {
			continue
		}
		if e.Status == Suspect && ms.Status != Suspect {
			ms.suspectedAt = n.tick
		}
		if e.Status != ms.Status || e.Incarnation != ms.Incarnation {
			n.version++
			n.logger.Info("membership: member updated", "member", e.Addr,
				"status", e.Status.String(), "incarnation", e.Incarnation)
			if e.Status != ms.Status {
				kind := journal.MemberAlive
				switch e.Status {
				case Suspect:
					kind = journal.MemberSuspect
				case Dead:
					kind = journal.MemberConfirmDead
				}
				n.cfg.Journal.Record(context.Background(), kind, e.Addr,
					fmt.Sprintf("gossip: %s at incarnation %d", e.Status, e.Incarnation))
			}
		}
		ms.Status = e.Status
		ms.Incarnation = e.Incarnation
		if e.URL != "" {
			ms.URL = e.URL
		}
		if e.Role != "" {
			ms.Role = e.Role
		}
	}
	n.mu.Unlock()
}

// notify fires OnChange when the alive shard set changed since the
// last notification.
func (n *Node) notify() {
	if n.cfg.OnChange == nil {
		return
	}
	n.mu.Lock()
	v := n.viewLocked()
	fp := v.Fingerprint()
	changed := fp != n.lastSeen
	n.lastSeen = fp
	n.mu.Unlock()
	if changed {
		n.cfg.OnChange(v)
	}
}

// String describes the node for logs.
func (n *Node) String() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	alive := 0
	for _, ms := range n.members {
		if ms.Status == Alive {
			alive++
		}
	}
	return fmt.Sprintf("membership(%s, %d peers, %d alive)", n.self.Addr, len(n.members), alive)
}
