package netsim

import (
	"testing"

	"dtc/internal/packet"
	"dtc/internal/sim"
	"dtc/internal/topology"
)

// shardedScenario runs one fixed mixed workload — CBR floods, per-node
// Poisson traffic, and an echoing server — on either the plain engine
// (shards == 0) or the sharded engine, and returns everything the
// determinism contract says must match: merged statistics, total events
// fired, per-sink deliveries, and the final clock.
type scenarioResult struct {
	stats     Stats
	fired     uint64
	delivered uint64
	served    uint64
	frontier  sim.Time
}

func runShardedScenario(t *testing.T, shards int, breakDelay bool) scenarioResult {
	t.Helper()
	const seed = 9
	g, err := topology.BarabasiAlbert(120, 2, sim.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinkConfig{Bandwidth: 1e9, Delay: sim.Millisecond, QueueCap: 1024}

	type net interface {
		AttachHost(node int) (*Host, error)
		NewServer(node int, serviceTime sim.Time, queueCap int) (*Server, error)
	}
	var (
		world net
		run   func() (sim.Time, error)
		done  func() scenarioResult
	)
	if shards == 0 {
		s := sim.New(seed)
		n, err := New(s, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		world = n
		run = s.RunAll
		done = func() scenarioResult {
			return scenarioResult{stats: *n.Stats, fired: s.Fired(), frontier: s.Now()}
		}
	} else {
		eng := sim.NewSharded(seed, shards)
		eng.SetEventLimit(50_000_000) // deadlock backstop: fail, don't hang
		assign, err := topology.PartitionGreedy(g, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		sn, err := NewSharded(eng, g, cfg, nil, nil, assign)
		if err != nil {
			t.Fatal(err)
		}
		if breakDelay {
			// Zero out one cut link's delay: lookahead collapses to zero and
			// the engine must fall back to lockstep rounds, not deadlock.
			found := false
			for _, e := range g.Edges() {
				if assign[e.A] != assign[e.B] {
					if err := sn.SetDuplexLinkConfig(e.A, e.B, LinkConfig{Bandwidth: cfg.Bandwidth, Delay: 0, QueueCap: cfg.QueueCap}); err != nil {
						t.Fatal(err)
					}
					found = true
					break
				}
			}
			if !found {
				t.Fatal("no cut edge to zero out")
			}
			if sn.Lookahead() != 0 {
				t.Fatalf("lookahead = %v after zeroing a cut link", sn.Lookahead())
			}
		}
		world = sn
		run = sn.RunAll
		done = func() scenarioResult {
			return scenarioResult{stats: *sn.MergedStats(), fired: sn.Fired(), frontier: sn.Engine.Now()}
		}
	}

	hubs := g.NodesByDegree()
	sink, err := world.AttachHost(hubs[0])
	if err != nil {
		t.Fatal(err)
	}
	srv, err := world.NewServer(hubs[1], 200*sim.Microsecond, 64)
	if err != nil {
		t.Fatal(err)
	}
	srv.OnServe = func(now sim.Time, pkt *packet.Packet) {
		srv.Host.Send(now, &packet.Packet{Src: srv.Host.Addr, Dst: pkt.Src, Kind: packet.KindControl, Size: 120})
	}

	stubs := g.Stubs()
	root := sim.NewRNG(seed)
	for i := 0; i < 30 && i < len(stubs); i++ {
		node := stubs[i]
		h, err := world.AttachHost(node)
		if err != nil {
			t.Fatal(err)
		}
		// Per-node phase offsets keep equal-timestamp events on different
		// shards non-interacting; per-node RNG substreams keep Poisson
		// arrivals shard-count-invariant (the contract's two obligations).
		start := sim.Millisecond + sim.Time(node%61)*sim.Microsecond
		dst, limit := sink.Addr, uint64(15)
		if i%3 == 0 {
			dst = srv.Host.Addr
		}
		var cbr *Source
		cbr = h.StartCBR(start, 500, func(k uint64) *packet.Packet {
			if k+1 >= limit {
				cbr.Stop()
			}
			return &packet.Packet{Src: h.Addr, Dst: dst, Kind: packet.KindLegit, Size: 400}
		})
		var poisson *Source
		poisson = h.StartPoissonRNG(start, 300, root.Substream(uint64(node)), func(k uint64) *packet.Packet {
			if k+1 >= 10 {
				poisson.Stop()
			}
			return &packet.Packet{Src: h.Addr, Dst: sink.Addr, Kind: packet.KindAttack, Size: 900}
		})
	}

	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	res := done()
	res.delivered = sink.Delivered[packet.KindLegit] + sink.Delivered[packet.KindAttack]
	for _, v := range srv.Served {
		res.served += v
	}
	return res
}

// TestShardedNetworkMatchesPlainEngine pins shards=1 byte-identical to the
// single-threaded engine: with no cut links every packet takes exactly the
// code path it always took, so even the final clock must agree.
func TestShardedNetworkMatchesPlainEngine(t *testing.T) {
	plain := runShardedScenario(t, 0, false)
	one := runShardedScenario(t, 1, false)
	if plain.stats != one.stats {
		t.Errorf("stats diverge:\nplain  %+v\nshard1 %+v", plain.stats, one.stats)
	}
	if plain.fired != one.fired {
		t.Errorf("fired: plain %d, shards=1 %d", plain.fired, one.fired)
	}
	if plain.delivered != one.delivered || plain.served != one.served {
		t.Errorf("deliveries: plain %d/%d, shards=1 %d/%d", plain.delivered, plain.served, one.delivered, one.served)
	}
	if plain.frontier != one.frontier {
		t.Errorf("frontier: plain %v, shards=1 %v", plain.frontier, one.frontier)
	}
}

// TestShardedNetworkShardCountInvariance is the §10 property test: the
// scenario follows the contract (per-entity substreams, tie-free), so all
// counters must be identical at every shard count — including 7, which
// exercises uneven partitions.
func TestShardedNetworkShardCountInvariance(t *testing.T) {
	base := runShardedScenario(t, 1, false)
	if base.delivered == 0 || base.served == 0 {
		t.Fatalf("degenerate scenario: delivered %d, served %d", base.delivered, base.served)
	}
	for _, shards := range []int{2, 4, 7} {
		got := runShardedScenario(t, shards, false)
		if got.stats != base.stats {
			t.Errorf("shards=%d: stats diverge:\nbase %+v\ngot  %+v", shards, base.stats, got.stats)
		}
		if got.fired != base.fired {
			t.Errorf("shards=%d: fired %d, want %d", shards, got.fired, base.fired)
		}
		if got.delivered != base.delivered || got.served != base.served {
			t.Errorf("shards=%d: deliveries %d/%d, want %d/%d", shards, got.delivered, got.served, base.delivered, base.served)
		}
	}
}

// TestShardedNetworkZeroLookahead runs the same scenario with one
// cross-shard link's delay forced to zero: the engine's lookahead window
// collapses and every round is lockstep on the global minimum. The run
// must complete (no deadlock, no event-limit trip) with every injected
// packet accounted for.
func TestShardedNetworkZeroLookahead(t *testing.T) {
	got := runShardedScenario(t, 3, true)
	var sent, delivered, dropped, overload uint64
	for k := range got.stats.Sent {
		sent += got.stats.Sent[k].Packets
		delivered += got.stats.Delivered[k].Packets
		overload += got.stats.Overload[k].Packets
	}
	for r := range got.stats.Drops {
		for k := range got.stats.Drops[r] {
			dropped += got.stats.Drops[r][k].Packets
		}
	}
	if sent == 0 || delivered == 0 {
		t.Fatalf("degenerate run: sent %d, delivered %d", sent, delivered)
	}
	if delivered+dropped+overload != sent {
		t.Errorf("packet conservation broken: sent %d, delivered %d + dropped %d + overload %d", sent, delivered, dropped, overload)
	}
}

// TestShardedNetworkDeterministicRepeat pins bit-reproducibility for a
// fixed (seed, assignment, worker count): two identical runs, identical
// counters and clocks.
func TestShardedNetworkDeterministicRepeat(t *testing.T) {
	a := runShardedScenario(t, 4, false)
	b := runShardedScenario(t, 4, false)
	if a != b {
		t.Errorf("two identical sharded runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestShardedNetworkRejectsForeignAttach(t *testing.T) {
	g := topology.Line(4)
	eng := sim.NewSharded(1, 2)
	assign := []int{0, 0, 1, 1}
	sn, err := NewSharded(eng, g, DefaultLink, nil, nil, assign)
	if err != nil {
		t.Fatal(err)
	}
	// Going through the wrapper lands on the right shard…
	if _, err := sn.AttachHost(3); err != nil {
		t.Fatal(err)
	}
	// …but a shard network must refuse nodes it doesn't own.
	if _, err := sn.Net(0).AttachHost(2); err == nil {
		t.Fatal("shard 0 accepted node owned by shard 1")
	}
}

func TestPacketPoolRoundTrip(t *testing.T) {
	s := sim.New(1)
	n, err := New(s, topology.Line(2), DefaultLink)
	if err != nil {
		t.Fatal(err)
	}
	p := n.GetPacket()
	p.Src, p.TTL, p.Size = 42, 7, 999
	n.PutPacket(p)
	q := n.GetPacket()
	if q != p {
		t.Fatal("pool did not recycle the returned packet")
	}
	if q.Src != 0 || q.TTL != 0 || q.Size != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
}

// TestShardedDrainWidthInvariance runs a relay ring whose barriers carry
// enough cross-shard arrivals to fan the drain out, at engine widths that
// divide the shard count and widths that do not. Each drain goroutine
// owns a fixed set of destinations, so every width must reproduce the
// serial (one-worker) run exactly.
func TestShardedDrainWidthInvariance(t *testing.T) {
	const shards = 8
	type result struct {
		stats     Stats
		fired     uint64
		delivered uint64
	}
	run := func(workers int) result {
		g, err := topology.BarabasiAlbert(300, 2, sim.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewSharded(11, shards)
		eng.Workers = workers
		assign, err := topology.PartitionGreedy(g, shards, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Registered before the network's own drain hook, so it sees each
		// barrier's outboxes before they are delivered.
		var sn *ShardedNetwork
		peak := 0
		eng.OnBarrier(func() {
			total := 0
			for _, n := range sn.nets {
				for d := range n.outbox {
					total += n.outbox[d].count
				}
			}
			if total > peak {
				peak = total
			}
		})
		cfg := LinkConfig{Bandwidth: 1e10, Delay: sim.Millisecond, QueueCap: 1 << 16}
		if sn, err = NewSharded(eng, g, cfg, nil, nil, assign); err != nil {
			t.Fatal(err)
		}
		hubs := g.NodesByDegree()[:24]
		hosts := make([]*Host, len(hubs))
		for i, node := range hubs {
			if hosts[i], err = sn.AttachHost(node); err != nil {
				t.Fatal(err)
			}
		}
		// Per-host counts: each host's Recv runs on its own shard.
		recv := make([]uint64, len(hosts))
		for i, h := range hosts {
			i, h, next := i, h, hosts[(i+1)%len(hosts)].Addr
			h.Recv = func(now sim.Time, pkt *packet.Packet) {
				recv[i]++
				pkt.Src, pkt.Dst, pkt.TTL = h.Addr, next, 64
				h.Send(now, pkt)
			}
			for k := 0; k < 64; k++ {
				h.Send(sim.Time(k)*sim.Microsecond, &packet.Packet{
					Src: h.Addr, Dst: next, Kind: packet.KindLegit, Size: 400,
				})
			}
		}
		if _, err := sn.Run(50 * sim.Millisecond); err != nil {
			t.Fatal(err)
		}
		if peak < parallelDrainMin {
			t.Fatalf("workers=%d: peak barrier volume %d never reaches the fan-out threshold %d", workers, peak, parallelDrainMin)
		}
		res := result{stats: *sn.MergedStats(), fired: sn.Fired()}
		for _, n := range recv {
			res.delivered += n
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 3, 8} {
		if got := run(workers); got != serial {
			t.Errorf("workers=%d diverged from the serial run:\n%+v\n%+v", workers, got, serial)
		}
	}
}
