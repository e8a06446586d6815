package hybrid

import (
	"fmt"

	"dtc/internal/baseline"
	"dtc/internal/flowsim"
	"dtc/internal/netsim"
	"dtc/internal/ownership"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// boundarySalt decorrelates the boundary-phase RNG root from the engine's
// per-shard streams, which are substreams of the bare seed.
const boundarySalt = 0x9e3779b97f4a7c15

// Engine is the packet-simulation surface the hybrid world builds on —
// the API slice *netsim.Network and *netsim.ShardedNetwork share.
type Engine interface {
	AttachHost(node int) (*netsim.Host, error)
	NewServer(node int, serviceTime sim.Time, queueCap int) (*netsim.Server, error)
	AddHook(node int, h netsim.Hook)
	SetLinkConfig(a, b int, cfg netsim.LinkConfig) error
	HostByAddr(a packet.Addr) (*netsim.Host, bool)
	NumHosts() int
}

// Config describes a hybrid world.
type Config struct {
	Graph  *topology.Graph
	Routes routing.Source           // nil -> fresh routing.Shared over Graph
	Owners *ownership.Compiled[int] // nil -> compiled node-prefix map
	Link   netsim.LinkConfig

	Victim int   // cone anchor (the defended service's node)
	Radius int   // cone radius in tree hops; >= Graph.Len() = all-packet reference
	Focus  []int // nodes whose paths to the victim join the cone (reflectors)

	Seed   uint64
	Shards int   // > 1 runs the cone on a sharded engine
	Assign []int // node -> shard; nil -> memoizable greedy partition

	// RateScale multiplies client rates per traffic class (fluid kill
	// accounting and packet schedules alike); zero entries mean 1.
	RateScale [5]float64

	// Background is ambient fluid load that never becomes packets: it
	// debits in-cone link capacity (residual bandwidth) and is otherwise
	// accounted purely flow-level.
	Background []flowsim.Flow
}

// World is a composed hybrid simulation: fluid everywhere, packets inside
// the cone, converters at the boundary. Build with NewWorld, attach
// servers/hooks, Deploy filters, then Start and Run.
type World struct {
	Cfg     Config
	Cone    *Cone
	Clients *Clients
	Fluid   *flowsim.Model

	Injectors []*Injector
	Absorbers []*Absorber
	Filters   []*baseline.IngressFilter

	routes routing.Source
	owners *ownership.Compiled[int]
	net    *netsim.Network        // plain engine (Shards <= 1)
	snet   *netsim.ShardedNetwork // sharded engine (Shards > 1)
	eng    Engine
	hosts  []*netsim.Host // materialized in-cone client hosts

	started bool

	// FluidCutCount/FluidCutRate tally clients whose fluid prefix is
	// dropped by an out-of-cone filter before reaching the packet
	// boundary: they emit no packets at all, by kind and scaled rate.
	FluidCutCount [5]uint64
	FluidCutRate  [5]float64
}

// NewWorld builds the hybrid world: extracts the cone, constructs the
// packet engine over it, materializes in-cone clients as real hosts (in
// client index order, so host addresses equal table addresses), groups
// every client onto its fluid->packet boundary, and installs absorbers on
// the shell. Clients must be sealed. Attach servers and hooks after
// NewWorld — client hosts claim the low addresses first, identically in
// hybrid and reference modes.
func NewWorld(cfg Config, clients *Clients) (*World, error) {
	g := cfg.Graph
	if g == nil {
		return nil, fmt.Errorf("hybrid: nil graph")
	}
	if !clients.sealed {
		return nil, fmt.Errorf("hybrid: clients table not sealed")
	}
	w := &World{Cfg: cfg, Clients: clients, routes: cfg.Routes, owners: cfg.Owners}
	if w.routes == nil {
		w.routes = routing.NewShared(g, nil)
	}
	if w.owners == nil {
		var t ownership.Trie[int]
		for i := 0; i < g.Len(); i++ {
			t.Insert(netsim.NodePrefix(i), i)
		}
		w.owners = t.Compiled()
	}
	cone, err := ExtractCone(g, w.routes, cfg.Victim, cfg.Radius, cfg.Focus)
	if err != nil {
		return nil, err
	}
	w.Cone = cone
	w.Fluid = flowsim.NewOnRoutes(g, w.routes)

	if cfg.Shards > 1 {
		assign := cfg.Assign
		if assign == nil {
			if assign, err = topology.PartitionGreedy(g, cfg.Shards, nil); err != nil {
				return nil, err
			}
		}
		eng := sim.NewSharded(cfg.Seed, cfg.Shards)
		snet, err := netsim.NewSharded(eng, g, cfg.Link, w.routes, w.owners, assign)
		if err != nil {
			return nil, err
		}
		w.snet, w.eng = snet, snet
		for s := 0; s < cfg.Shards; s++ {
			nt := snet.Net(s)
			nt.OnDrop(func(_ sim.Time, pkt *packet.Packet, _ netsim.DropReason, _ int) {
				nt.PutPacket(pkt)
			})
		}
	} else {
		net, err := netsim.NewOnSubstrate(sim.New(cfg.Seed), g, cfg.Link, w.routes, w.owners)
		if err != nil {
			return nil, err
		}
		w.net, w.eng = net, net
		net.OnDrop(func(_ sim.Time, pkt *packet.Packet, _ netsim.DropReason, _ int) {
			net.PutPacket(pkt)
		})
	}

	// Prebuild the destination trees the client loop is about to fault in
	// one by one, in parallel when the routing source supports batch
	// construction (routing.Shared): at 18k ASes this moves all Dijkstra
	// runs up front onto every core.
	if pb, ok := w.routes.(interface{ Prebuild([]int, int) error }); ok {
		seen := map[int]bool{}
		var dsts []int
		add := func(d int) {
			if !seen[d] {
				seen[d] = true
				dsts = append(dsts, d)
			}
		}
		for i := 0; i < clients.Len(); i++ {
			if d, ok := w.nodeOfAddr(clients.dst[i]); ok {
				add(d)
			}
		}
		for i := range cfg.Background {
			add(cfg.Background[i].To)
		}
		if err := pb.Prebuild(dsts, 0); err != nil {
			return nil, err
		}
	}

	// In-cone clients become real hosts so replies terminate properly;
	// one shared Recv per shard recycles delivered packets. Boundary
	// membership is resolved in two passes so the injectors and their
	// member lists come out of exact-size slabs instead of growing one
	// append at a time per client: pass one attaches hosts and records
	// each client's boundary key (cone entry node + predecessor), pass
	// two fills the carved member slices in client order.
	recv := map[*netsim.Network]func(sim.Time, *packet.Packet){}
	keys := make([]uint64, clients.Len())
	slotOf := map[uint64]int32{}
	var counts []int32
	for i := 0; i < clients.Len(); i++ {
		node := clients.Node(i)
		if cone.Contains(node) {
			h, err := w.eng.AttachHost(node)
			if err != nil {
				return nil, err
			}
			if h.Addr != clients.Addr(i) {
				return nil, fmt.Errorf("hybrid: client %d got address %v, want %v (hosts attached before NewWorld?)",
					i, h.Addr, clients.Addr(i))
			}
			nt := w.netOf(node)
			fn := recv[nt]
			if fn == nil {
				fn = func(_ sim.Time, pkt *packet.Packet) { nt.PutPacket(pkt) }
				recv[nt] = fn
			}
			h.Recv = fn
			w.hosts = append(w.hosts, h)
		}
		dstNode, ok := w.nodeOfAddr(clients.dst[i])
		if !ok {
			return nil, fmt.Errorf("hybrid: client %d destination %v is unowned", i, clients.dst[i])
		}
		tr, err := w.routes.TreeTo(dstNode)
		if err != nil {
			return nil, err
		}
		entry, from, ok := cone.EntryOf(tr, node)
		if !ok {
			return nil, fmt.Errorf("hybrid: client %d path %d->%d never enters the cone", i, node, dstNode)
		}
		key := uint64(uint32(entry))<<32 | uint64(uint32(from+1))
		keys[i] = key
		slot, seen := slotOf[key]
		if !seen {
			slot = int32(len(counts))
			slotOf[key] = slot
			counts = append(counts, 0)
		}
		counts[slot]++
	}

	// Carve the injectors (first-seen key order, matching the old
	// append-per-client construction) and their member lists.
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	injSlab := make([]Injector, len(counts))
	memberPool := make([]int32, total)
	w.Injectors = make([]*Injector, len(counts))
	orderedKeys := make([]uint64, len(counts))
	for key, slot := range slotOf {
		orderedKeys[slot] = key
	}
	off := 0
	for slot, key := range orderedKeys {
		entry := int(uint32(key >> 32))
		from := int(uint32(key)) - 1
		inj := &injSlab[slot]
		*inj = Injector{net: w.netOf(entry), cl: clients, node: entry, from: from}
		inj.members = memberPool[off : off : off+int(counts[slot])]
		off += int(counts[slot])
		w.Injectors[slot] = inj
	}
	for i := 0; i < clients.Len(); i++ {
		inj := w.Injectors[slotOf[keys[i]]]
		inj.members = append(inj.members, int32(i))
	}

	aslab := make([]Absorber, len(cone.Shell))
	w.Absorbers = make([]*Absorber, 0, len(cone.Shell))
	for k, s := range cone.Shell {
		a := &aslab[k]
		*a = Absorber{w: w, node: s}
		w.eng.AddHook(s, a)
		w.Absorbers = append(w.Absorbers, a)
	}
	return w, nil
}

// Eng exposes the packet engine for attaching servers and hooks.
func (w *World) Eng() Engine { return w.eng }

// NetOf returns the network simulating node (the plain network, or the
// owning shard's) — the place to return recycled packets on that node.
func (w *World) NetOf(node int) *netsim.Network { return w.netOf(node) }

func (w *World) netOf(node int) *netsim.Network {
	if w.snet != nil {
		return w.snet.NetOf(node)
	}
	return w.net
}

func (w *World) nodeOfAddr(a packet.Addr) (int, bool) { return w.owners.Lookup(a) }

// SetWorkers bounds the goroutines driving a sharded world's rounds and
// barrier drains (results are identical at any count); a plain world
// ignores it.
func (w *World) SetWorkers(n int) {
	if w.snet != nil {
		w.snet.Engine.Workers = n
	}
}

// Deploy installs the edge ingress-filtering defense at nodes, split by
// mechanism: in-cone nodes get the packet-level baseline.IngressFilter
// hook, out-of-cone nodes join the fluid model's deployment (the two
// apply the identical uRPF decision — the cross-validated equivalence the
// hybrid substrate is built on). Call before Start.
func (w *World) Deploy(nodes []int) error {
	if w.started {
		return fmt.Errorf("hybrid: Deploy after Start")
	}
	var fluid []int
	byNet := map[*netsim.Network][]int{}
	for _, n := range nodes {
		if w.Cone.Contains(n) {
			nt := w.netOf(n)
			byNet[nt] = append(byNet[nt], n)
		} else {
			fluid = append(fluid, n)
		}
	}
	if err := w.Fluid.Deploy(fluid, false); err != nil {
		return err
	}
	for nt, ns := range byNet {
		w.Filters = append(w.Filters, baseline.DeployIngress(nt, ns))
	}
	return nil
}

// Start arms the boundary converters for the emission window
// (start, stop]: it debits residual link capacity for the fluid
// background, evaluates every member's fluid prefix against the deployed
// out-of-cone filters (killed members are tallied, not scheduled), seeds
// per-boundary phase substreams and schedules the first emissions. Call
// once, after Deploy and server attachment, before Run.
func (w *World) Start(start, stop sim.Time) error {
	if w.started {
		return fmt.Errorf("hybrid: Start called twice")
	}
	w.started = true
	if err := w.applyResidual(); err != nil {
		return err
	}
	scale := w.Cfg.RateScale
	for k := range scale {
		if scale[k] == 0 {
			scale[k] = 1
		}
	}
	root := sim.NewRNG(w.Cfg.Seed ^ boundarySalt)
	// One pool serves every injector's next/ival schedule arrays; the
	// pre-filter member total is an upper bound on what arming needs.
	total := 0
	for _, inj := range w.Injectors {
		total += len(inj.members)
	}
	pool := make([]sim.Time, 2*total)
	var flow flowsim.Flow
	for _, inj := range w.Injectors {
		live := inj.members[:0]
		for _, m := range inj.members {
			spec := w.Clients.Spec(int(m))
			dstNode, _ := w.nodeOfAddr(spec.Dst)
			tr, err := w.routes.TreeTo(dstNode)
			if err != nil {
				return err
			}
			src := w.Clients.Node(int(m))
			flow = flowsim.Flow{From: src, To: dstNode, Src: flowsim.SrcGenuine}
			if spec.Spoof != 0 {
				if sn, ok := w.nodeOfAddr(spec.Spoof); ok {
					flow.Src, flow.SpoofNode = flowsim.SrcOfNode, sn
				} else {
					flow.Src = flowsim.SrcUnallocated
				}
			}
			if w.Fluid.FateFrom(tr, &flow, src, src).Delivered {
				live = append(live, m)
			} else if k := int(spec.Kind); k < len(w.FluidCutCount) {
				w.FluidCutCount[k]++
				w.FluidCutRate[k] += spec.Rate * scale[k]
			}
		}
		inj.members = live
		key := uint64(uint32(inj.node))<<32 | uint64(uint32(inj.from+1))
		sub := root.SubstreamValue(key)
		buf := pool[:2*len(live)]
		pool = pool[2*len(live):]
		inj.arm(&sub, &scale, start, stop, buf)
	}
	return nil
}

// Run advances the world to `until` and returns the frontier time.
func (w *World) Run(until sim.Time) (sim.Time, error) {
	if w.snet != nil {
		return w.snet.Run(until)
	}
	return w.net.Sim.Run(until)
}

// Stats returns the packet-level statistics (merged across shards).
func (w *World) Stats() *netsim.Stats {
	if w.snet != nil {
		return w.snet.MergedStats()
	}
	return w.net.Stats
}

// Fired returns total packet events executed.
func (w *World) Fired() uint64 {
	if w.snet != nil {
		return w.snet.Fired()
	}
	return w.net.Sim.Fired()
}

// ClientReceived aggregates traffic that reached modeled clients, by
// kind, across both termination paths: deliveries to materialized
// in-cone hosts and absorbed packets whose fluid continuation reaches
// its destination. This is the hybrid world's "replies received" metric,
// comparable across hybrid and all-packet reference runs.
func (w *World) ClientReceived() (pkts, bytes [5]uint64) {
	for _, h := range w.hosts {
		for k := range pkts {
			pkts[k] += h.Delivered[k]
			bytes[k] += h.DeliveredBytes[k]
		}
	}
	for _, a := range w.Absorbers {
		for k := range pkts {
			pkts[k] += a.DeliveredPkts[k]
			bytes[k] += a.DeliveredBytes[k]
		}
	}
	return pkts, bytes
}

// Emitted aggregates boundary-materialized traffic by kind.
func (w *World) Emitted() (pkts, bytes [5]uint64) {
	for _, in := range w.Injectors {
		for k := range pkts {
			pkts[k] += in.Emitted[k]
			bytes[k] += in.EmittedBytes[k]
		}
	}
	return pkts, bytes
}
