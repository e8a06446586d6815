package netsim

import (
	"fmt"
	"sync"

	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// Sharded execution of one simulated network across all cores. The graph
// is partitioned node -> shard; every shard gets its own Network over the
// shared immutable substrate (routing trees + compiled address map), its
// own event heap, free lists and packet pool, and simulates exactly the
// routers it owns. A directed link lives on the shard of its transmitting
// router; when its receiving router is foreign, the arrival is buffered in
// a typed per-(src,dst)-shard outbox instead of the local heap, and the
// sim.Sharded coordinator hands it over at the next barrier. The smallest
// propagation delay over such cut links is the engine's conservative
// lookahead window.
//
// Determinism contract (DESIGN.md §10): a run is bit-reproducible for a
// fixed (seed, assignment, worker count); statistics, Fired() and delivery
// counts are additionally shard-count-invariant for scenarios that (a)
// draw randomness from per-entity substreams and (b) have no interacting
// equal-timestamp events on different shards. shards=1 is byte-identical
// to the plain single-engine Network: no link is cut, so every packet
// takes exactly the code path it always took.

// crossMsg is one buffered cross-shard arrival: packet pkt crossing link
// from->to, due at `at` on the shard owning `to`. Value-typed so outboxes
// recycle their backing arrays with zero steady-state allocations.
type crossMsg struct {
	at       sim.Time
	from, to int32
	pkt      *packet.Packet
}

// crossBlockLen is the outbox block granularity. Blocks are fungible
// across destination shards, so the source network's free list converges
// to the worst-case *total* barrier volume (bounded by the in-flight
// packet population) instead of the sum of per-(src,dst) maxima that a
// growable slice per pair would chase — the residual-allocation source
// BENCH_PR6 recorded at shards >= 4.
const crossBlockLen = 512

// crossBlock is one fixed-size chunk of a per-destination outbox chain.
type crossBlock struct {
	n    int
	next *crossBlock
	msgs [crossBlockLen]crossMsg
}

// crossBox is the per-destination outbox: a chain of blocks plus a
// message count (so drain can decide serial vs parallel without walking).
type crossBox struct {
	head, tail *crossBlock
	count      int
}

// pushCross buffers one cross-shard arrival bound for shard d. Called
// from the source shard's goroutine during rounds; blocks come from this
// network's free list, refilled single-threaded at the barrier.
func (n *Network) pushCross(d int, m crossMsg) {
	box := &n.outbox[d]
	b := box.tail
	if b == nil || b.n == crossBlockLen {
		nb := n.blockPool
		if nb != nil {
			n.blockPool = nb.next
			nb.next, nb.n = nil, 0
		} else {
			nb = &crossBlock{}
		}
		if b == nil {
			box.head = nb
		} else {
			b.next = nb
		}
		box.tail = nb
		b = nb
	}
	b.msgs[b.n] = m
	b.n++
	box.count++
}

// crossArrivalEvent injects a handed-over packet at its destination
// router. Instances are recycled through the destination network's
// crossPool: allocated at barrier time (single-threaded) and released in
// Fire (destination shard's goroutine), phases the barrier ordering keeps
// disjoint.
type crossArrivalEvent struct {
	net      *Network
	from, to int32
	pkt      *packet.Packet
}

// Fire implements sim.Event.
func (e *crossArrivalEvent) Fire(now sim.Time) {
	n, pkt, from, to := e.net, e.pkt, int(e.from), int(e.to)
	e.net, e.pkt = nil, nil
	n.crossPool = append(n.crossPool, e)
	n.inject(now, pkt, to, from)
}

func (n *Network) newCrossArrival(from, to int32, pkt *packet.Packet) *crossArrivalEvent {
	if k := len(n.crossPool); k > 0 {
		e := n.crossPool[k-1]
		n.crossPool = n.crossPool[:k-1]
		e.net, e.from, e.to, e.pkt = n, from, to, pkt
		return e
	}
	return &crossArrivalEvent{net: n, from: from, to: to, pkt: pkt}
}

// parallelDrainMin is the per-barrier message count above which outbox
// delivery fans out across destination shards (given an engine width
// above one).
// Below it the goroutine handoff costs more than the heap pushes it
// parallelizes.
const parallelDrainMin = 256

// ShardedNetwork is a simulated IP network executed by a sim.Sharded
// coordinator. Construct with NewSharded, attach hosts/hooks through the
// wrapper (it routes each call to the owning shard), then drive with Run.
type ShardedNetwork struct {
	Engine *sim.Sharded
	Graph  *topology.Graph

	assign     []int
	nets       []*Network
	lookahead  sim.Time
	routes     routing.Source
	ownsRoutes bool // routes built here, not borrowed: topology may mutate

	// Parallel-drain machinery, built once: one closure per drain goroutine
	// and a reusable WaitGroup. Closure k delivers destinations k,
	// k+drainWidth, ... in ascending order. Spawning still costs the
	// runtime occasional goroutine and sudog bookkeeping allocations, so
	// only the one-worker (serial) drain is allocation-free.
	drainFns   []func()
	drainWG    sync.WaitGroup
	drainWidth int
}

// NewSharded partitions g per assign across eng's shards. routes must be
// safe for concurrent readers (nil builds a routing.Shared); owners is the
// compiled address map (nil compiles one). When routes are borrowed from a
// caller-owned substrate the topology is immutable for the network's
// lifetime — FailLink is rejected, exactly as on any network sharing
// substrate state. With engine-owned routes (routes == nil here),
// ShardedNetwork.FailLink is available between Run calls.
func NewSharded(eng *sim.Sharded, g *topology.Graph, cfg LinkConfig, routes routing.Source, owners *ownership.Compiled[int], assign []int) (*ShardedNetwork, error) {
	shards := eng.Shards()
	if err := topology.ValidatePartition(g, assign, shards); err != nil {
		return nil, err
	}
	ownsRoutes := routes == nil
	if routes == nil {
		routes = routing.NewShared(g, nil)
	}
	if owners == nil {
		var t ownership.Trie[int]
		for i := 0; i < g.Len(); i++ {
			t.Insert(NodePrefix(i), i)
		}
		owners = t.Compiled()
	}
	sn := &ShardedNetwork{
		Engine:     eng,
		Graph:      g,
		assign:     assign,
		nets:       make([]*Network, shards),
		routes:     routes,
		ownsRoutes: ownsRoutes,
	}
	for s := 0; s < shards; s++ {
		n, err := newNetwork(eng.Shard(s), g, cfg, routes, owners, assign, s)
		if err != nil {
			return nil, err
		}
		n.outbox = make([]crossBox, shards)
		n.nextID = uint64(s)
		n.idStride = uint64(shards)
		sn.nets[s] = n
	}
	sn.drainFns = make([]func(), shards)
	for k := 0; k < shards; k++ {
		k := k
		sn.drainFns[k] = func() {
			for d := k; d < len(sn.nets); d += sn.drainWidth {
				sn.drainTo(d)
			}
			sn.drainWG.Done()
		}
	}
	sn.recomputeLookahead()
	eng.OnBarrier(sn.drain)
	return sn, nil
}

// recomputeLookahead derives the conservative window from the minimum
// propagation delay over cut links and installs it on the coordinator.
// With no cut links (shards=1, or a partition that happens to isolate all
// traffic) the window is unbounded and Run degenerates to one round —
// i.e. the plain single-threaded engine.
func (sn *ShardedNetwork) recomputeLookahead() {
	min := sim.MaxTime
	for _, n := range sn.nets {
		for key, l := range n.links {
			if sn.assign[key[0]] != sn.assign[key[1]] && l.cfg.Delay < min {
				min = l.cfg.Delay
			}
		}
	}
	sn.lookahead = min
	sn.Engine.Lookahead = min
}

// Lookahead returns the conservative window width currently in force
// (sim.MaxTime when no link crosses shards).
func (sn *ShardedNetwork) Lookahead() sim.Time { return sn.lookahead }

// drain is the barrier hook: it moves every buffered cross-shard arrival
// into its destination shard's event heap. Delivery order is fixed —
// destinations ascending, sources ascending within a destination, FIFO
// within a source — so runs are reproducible regardless of goroutine
// scheduling. Large barriers fan out by destination across the engine's
// Width goroutines (a one-worker engine drains serially): each goroutine
// owns a fixed set of destinations, so each destination's heap is touched
// by exactly one goroutine, and the sources' outbox slots for that
// destination are read by that goroutine alone.
func (sn *ShardedNetwork) drain() {
	total := 0
	for _, n := range sn.nets {
		for d := range n.outbox {
			total += n.outbox[d].count
		}
	}
	if total == 0 {
		return
	}
	if w := sn.Engine.Width(); w > 1 && total >= parallelDrainMin {
		sn.drainWidth = w
		sn.drainWG.Add(w)
		for _, fn := range sn.drainFns[:w] {
			go fn()
		}
		sn.drainWG.Wait()
	} else {
		for d := range sn.nets {
			sn.drainTo(d)
		}
	}
	// Recycle drained block chains onto their source network's free list.
	// Single-threaded on the coordinator goroutine: the parallel phase
	// above reads outbox[*][d] only from the goroutine owning destination
	// d, so block ownership returns to the source without any
	// cross-goroutine pool.
	for _, n := range sn.nets {
		for d := range n.outbox {
			box := &n.outbox[d]
			if box.head == nil {
				continue
			}
			box.tail.next = n.blockPool
			n.blockPool = box.head
			box.head, box.tail, box.count = nil, nil, 0
		}
	}
}

// drainTo delivers every shard's outbox for destination shard d, walking
// each source's block chain in FIFO order. Packet pointers are cleared so
// recycled blocks don't pin packets; the chains themselves are returned to
// their source pools by drain's single-threaded recycle pass.
func (sn *ShardedNetwork) drainTo(d int) {
	dst := sn.nets[d]
	for s := range sn.nets {
		for b := sn.nets[s].outbox[d].head; b != nil; b = b.next {
			for i := 0; i < b.n; i++ {
				m := &b.msgs[i]
				dst.Sim.At(m.at, dst.newCrossArrival(m.from, m.to, m.pkt))
				m.pkt = nil
			}
		}
	}
}

// Run drives the coordinator until `until` (events exactly at until still
// fire). RunAll drains every shard.
func (sn *ShardedNetwork) Run(until sim.Time) (sim.Time, error) { return sn.Engine.Run(until) }

// RunAll executes rounds until every shard's queue is empty.
func (sn *ShardedNetwork) RunAll() (sim.Time, error) { return sn.Engine.RunAll() }

// Net returns shard s's network — the handle scenario code uses for
// shard-local state (its Sim, its packet pool).
func (sn *ShardedNetwork) Net(s int) *Network { return sn.nets[s] }

// NetOf returns the network owning node.
func (sn *ShardedNetwork) NetOf(node int) *Network { return sn.nets[sn.assign[node]] }

// ShardOf returns the shard owning node.
func (sn *ShardedNetwork) ShardOf(node int) int { return sn.assign[node] }

// AttachHost creates a host on node, on the owning shard.
func (sn *ShardedNetwork) AttachHost(node int) (*Host, error) {
	if node < 0 || node >= sn.Graph.Len() {
		return nil, fmt.Errorf("netsim: node %d out of range", node)
	}
	return sn.NetOf(node).AttachHost(node)
}

// NewServer attaches server semantics to a fresh host on node.
func (sn *ShardedNetwork) NewServer(node int, serviceTime sim.Time, queueCap int) (*Server, error) {
	if node < 0 || node >= sn.Graph.Len() {
		return nil, fmt.Errorf("netsim: node %d out of range", node)
	}
	return sn.NetOf(node).NewServer(node, serviceTime, queueCap)
}

// AddHook installs a packet hook at node, on the owning shard. Hook state
// is shard-local: a hook instance must not be shared across shards unless
// it is immutable.
func (sn *ShardedNetwork) AddHook(node int, h Hook) { sn.NetOf(node).AddHook(node, h) }

// HostByAddr resolves a to its host, wherever it lives.
func (sn *ShardedNetwork) HostByAddr(a packet.Addr) (*Host, bool) {
	node, ok := sn.nets[0].NodeOfAddr(a)
	if !ok {
		return nil, false
	}
	return sn.NetOf(node).HostByAddr(a)
}

// SetLinkConfig reconfigures the directed link a->b on its owning shard
// and re-derives the lookahead window (shrinking a cut link's delay
// shrinks the window; Run picks the new value up at its next barrier).
func (sn *ShardedNetwork) SetLinkConfig(a, b int, cfg LinkConfig) error {
	if a < 0 || a >= sn.Graph.Len() {
		return fmt.Errorf("netsim: no link %d->%d", a, b)
	}
	if err := sn.NetOf(a).SetLinkConfig(a, b, cfg); err != nil {
		return err
	}
	sn.recomputeLookahead()
	return nil
}

// FailLink removes the duplex edge (a, b) from the topology: both
// directed links disappear from their owning shards, the engine-owned
// routing source incrementally repairs the trees whose paths crossed the
// cut (the rest stay untouched), routing observers fire on all shards, and
// the conservative lookahead window is re-derived — failing the narrowest
// cut link widens the window, failing the last one removes the barrier
// entirely.
//
// Only available when NewSharded built the routing source itself (routes
// was nil): with a caller-provided substrate the topology is shared state
// the network must not mutate, exactly like plain Network.FailLink on a
// shared substrate. The call is quiescent-only: invoke it between Run
// calls, never from inside a running event (shard goroutines read links
// and routes concurrently).
func (sn *ShardedNetwork) FailLink(a, b int) error {
	if !sn.ownsRoutes {
		return fmt.Errorf("netsim: FailLink on caller-provided routes; topology is immutable")
	}
	if a < 0 || a >= sn.Graph.Len() || b < 0 || b >= sn.Graph.Len() {
		return fmt.Errorf("netsim: no edge (%d,%d) to fail", a, b)
	}
	if !sn.Graph.RemoveEdge(a, b) {
		return fmt.Errorf("netsim: no edge (%d,%d) to fail", a, b)
	}
	na, nb := sn.NetOf(a), sn.NetOf(b)
	delete(na.links, [2]int{a, b})
	delete(nb.links, [2]int{b, a})
	if r := na.routers[a]; r != nil {
		r.setLink(b, nil)
	}
	if r := nb.routers[b]; r != nil {
		r.setLink(a, nil)
	}
	sn.routes.LinkDown(a, b)
	for _, n := range sn.nets {
		for _, fn := range n.routeObs {
			fn()
		}
	}
	sn.recomputeLookahead()
	return nil
}

// SetDuplexLinkConfig reconfigures both directions of edge (a, b).
func (sn *ShardedNetwork) SetDuplexLinkConfig(a, b int, cfg LinkConfig) error {
	if err := sn.SetLinkConfig(a, b, cfg); err != nil {
		return err
	}
	return sn.SetLinkConfig(b, a, cfg)
}

// Link returns utilization counters for the directed link a->b (owned by
// a's shard).
func (sn *ShardedNetwork) Link(a, b int) (*LinkStats, bool) {
	if a < 0 || a >= sn.Graph.Len() {
		return nil, false
	}
	return sn.NetOf(a).Link(a, b)
}

// MergedStats folds every shard's counters into one network-wide Stats.
// The result is freshly allocated; shard counters keep accumulating.
func (sn *ShardedNetwork) MergedStats() *Stats {
	out := NewStats()
	for _, n := range sn.nets {
		out.Merge(n.Stats)
	}
	return out
}

// NumHosts returns the total hosts attached across all shards.
func (sn *ShardedNetwork) NumHosts() int {
	total := 0
	for _, n := range sn.nets {
		total += n.NumHosts()
	}
	return total
}

// Fired returns total events fired across shards.
func (sn *ShardedNetwork) Fired() uint64 { return sn.Engine.Fired() }
