package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dtc/internal/experiment"
	"dtc/internal/hybrid"
	"dtc/internal/metrics"
	"dtc/internal/netsim"
	"dtc/internal/packet"
	"dtc/internal/sim"
	"dtc/internal/sweep"
	"dtc/internal/topology"
)

// e15Size is one scale of the e15 reflector-defense sweep on the hybrid
// substrate: an AS graph, SoA clients on every stub, attack agents on
// every agentEvery-th stub, and a deploy-fraction x attack-scale grid.
type e15Size struct {
	nodes, perStub, agentEvery, reflectors int
	window                                 sim.Time
	fractions, scales                      []float64
}

var (
	// e15Quick is `ddosim -exp e15 -quick`, cell for cell; every run checks
	// the benchmark's cells against the experiment at this size.
	e15Quick = e15Size{400, 3, 5, 4, 200 * sim.Millisecond, []float64{0, 0.30}, []float64{1, 4}}
	// e15Bench is the measured size: ddosim's full-size sweep (6 cells,
	// 90 clients per stub, 8 reflectors, 1 s window) on a smaller graph,
	// so a run fits the benchmark's time and memory budget.
	e15Bench = e15Size{4000, 90, 7, 8, sim.Second, []float64{0, 0.10, 0.30}, []float64{1, 4}}
)

// e15Scenario is the substrate every cell shares, as in ddosim: graph,
// one concurrent routing table, the address map and the sealed client
// table, plus the cast.
type e15Scenario struct {
	sz         e15Size
	sub        *sweep.Substrate
	clients    *hybrid.Clients
	victim     int
	reflectors []int
	byDegree   []int
	attackRate float64
}

// newE15Scenario builds the shared substrate exactly as ddosim's e15 does.
func newE15Scenario(sz e15Size, seed uint64, tr *tracer, parent uint64) (*e15Scenario, error) {
	var g *topology.Graph
	if err := tr.do("topology.build", parent, func() (err error) {
		g, err = topology.BarabasiAlbert(sz.nodes, 2, sim.NewRNG(seed))
		return err
	}); err != nil {
		return nil, err
	}
	sc := &e15Scenario{sz: sz}
	tr.do("routing.table", parent, func() error {
		sc.sub = sweep.NewSubstrate(g)
		return nil
	})
	stubs := g.Stubs()
	if len(stubs) < 2 {
		return nil, fmt.Errorf("e15: topology has no stubs")
	}
	sc.victim = stubs[0]
	sc.byDegree = g.NodesByDegree()
	sc.reflectors = append([]int(nil), sc.byDegree[:sz.reflectors]...)
	victimAddr := netsim.NodePrefix(sc.victim).Nth(1)
	err := tr.do("hybrid.clients", parent, func() error {
		cl := hybrid.NewClients(g.Len())
		agent := 0
		for si, v := range stubs {
			if v == sc.victim {
				continue
			}
			for k := 0; k < sz.perStub; k++ {
				if _, err := cl.Add(v, hybrid.ClientSpec{
					Rate: 0.2, Size: 400, Kind: packet.KindLegit, Dst: victimAddr,
				}); err != nil {
					return err
				}
			}
			if si%sz.agentEvery == 0 {
				refl := sc.reflectors[agent%len(sc.reflectors)]
				agent++
				if _, err := cl.Add(v, hybrid.ClientSpec{
					Rate: 20, Size: 250, Kind: packet.KindAttack,
					Dst:   netsim.NodePrefix(refl).Nth(1),
					Spoof: victimAddr,
				}); err != nil {
					return err
				}
				sc.attackRate += 20
			}
		}
		cl.Seal(g.Len())
		sc.clients = cl
		return nil
	})
	return sc, err
}

// e15Cell is one (deploy fraction, attack scale) point, built and ready
// to run.
type e15Cell struct {
	frac, scale float64
	w           *hybrid.World
	victim      *netsim.Server
	row         []any
}

// buildCell builds the hybrid world of one cell over the shared
// substrate, attaches the victim and reflector services, deploys uRPF on
// the top-degree ranking and arms the boundary injectors.
func (sc *e15Scenario) buildCell(frac, scale float64, seed uint64, tr *tracer, parent uint64) (*e15Cell, error) {
	g := sc.sub.Graph
	cfg := hybrid.Config{
		Graph:  g,
		Routes: sc.sub.Routes,
		Owners: sc.sub.Owners,
		Link:   netsim.LinkConfig{Bandwidth: 2.5e9, Delay: sim.Millisecond, QueueCap: 4096},
		Victim: sc.victim,
		Radius: 2,
		Focus:  sc.reflectors,
		Seed:   seed,
	}
	cfg.RateScale[packet.KindAttack] = scale
	c := &e15Cell{frac: frac, scale: scale}
	if err := tr.do("hybrid.world", parent, func() (err error) {
		c.w, err = hybrid.NewWorld(cfg, sc.clients)
		return err
	}); err != nil {
		return nil, err
	}
	w := c.w
	err := tr.do("netsim.servers", parent, func() error {
		// The victim replies to legitimate requests and consumes the
		// rest; reflectors amplify attack requests 4x at the spoofed
		// source.
		vnet := w.NetOf(sc.victim)
		victim, err := w.Eng().NewServer(sc.victim, 3*sim.Microsecond, 256)
		if err != nil {
			return err
		}
		victim.OnServe = func(now sim.Time, pkt *packet.Packet) {
			if pkt.Kind != packet.KindLegit {
				vnet.PutPacket(pkt)
				return
			}
			pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
			pkt.Kind = packet.KindService
			pkt.TTL = packet.DefaultTTL
			victim.Host.Send(now, pkt)
		}
		victim.OnOverload = func(_ sim.Time, pkt *packet.Packet) { vnet.PutPacket(pkt) }
		c.victim = victim
		for _, rn := range sc.reflectors {
			rnet := w.NetOf(rn)
			refl, err := w.Eng().NewServer(rn, 5*sim.Microsecond, 1024)
			if err != nil {
				return err
			}
			refl.OnServe = func(now sim.Time, pkt *packet.Packet) {
				if pkt.Kind != packet.KindAttack {
					rnet.PutPacket(pkt)
					return
				}
				pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
				pkt.Kind = packet.KindReflect
				pkt.Size = 4 * pkt.Size
				pkt.TTL = packet.DefaultTTL
				refl.Host.Send(now, pkt)
			}
			refl.OnOverload = func(_ sim.Time, pkt *packet.Packet) { rnet.PutPacket(pkt) }
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.do("device.deploy", parent, func() error {
		return w.Deploy(sc.byDegree[:int(frac*float64(g.Len()))])
	}); err != nil {
		return nil, err
	}
	if err := tr.do("hybrid.start", parent, func() error {
		return w.Start(0, sc.sz.window)
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// run advances the cell through the emission window plus drain slack and
// records its table row.
func (c *e15Cell) run(sc *e15Scenario, tr *tracer, parent uint64) error {
	if err := tr.do("sim.run", parent, func() error {
		_, err := c.w.Run(sc.sz.window + 100*sim.Millisecond)
		return err
	}); err != nil {
		return err
	}
	w, victim := c.w, c.victim
	emitted, _ := w.Emitted()
	received, _ := w.ClientReceived()
	secs := float64(sc.sz.window) / float64(sim.Second)
	var vDelivered uint64
	for _, k := range []packet.Kind{packet.KindLegit, packet.KindAttack, packet.KindReflect} {
		vDelivered += victim.Host.Delivered[k]
	}
	var vOverloaded uint64
	for _, n := range victim.Overloaded {
		vOverloaded += n
	}
	c.row = []any{"hybrid", sc.sz.nodes, w.Cone.Len(), sc.clients.Len(), c.frac * 100, c.scale,
		100 * ratio(w.FluidCutRate[packet.KindAttack], sc.attackRate*c.scale),
		pct(victim.Served[packet.KindLegit], emitted[packet.KindLegit]),
		float64(victim.Host.Delivered[packet.KindReflect]) / secs,
		pct(vOverloaded, vDelivered),
		pct(received[packet.KindService], victim.Served[packet.KindLegit])}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// e15Table formats cell rows exactly as ddosim prints the e15 table.
func e15Table(cells []*e15Cell) *metrics.Table {
	tbl := metrics.NewTable(
		"E15: reflector defense at Internet scale on the hybrid fluid/packet substrate",
		"mode", "ASes", "cone", "clients", "deploy_%", "attack_x",
		"cut_attack_%", "legit_goodput_%", "reflect_at_victim_pps", "victim_overload_%", "replies_%")
	for _, c := range cells {
		tbl.AddRow(c.row...)
	}
	return tbl
}

// conserve checks packet conservation in a cell that has run: every packet
// sent is delivered, dropped or still in flight, and once the world is
// drained nothing is in flight. It drains the world, so call it after the
// row has been recorded.
func (c *e15Cell) conserve() error {
	return conserved(c.w.Stats(), func() error {
		_, err := c.w.Run(sim.MaxTime)
		return err
	})
}

// conserved checks sent = delivered + drops + in flight on st, drains with
// drain, and checks that nothing is left in flight.
func conserved(st *netsim.Stats, drain func() error) error {
	balance := func() (sent, gone uint64) {
		for k := range st.Sent {
			sent += st.Sent[k].Packets
			gone += st.Delivered[k].Packets
			for r := range st.Drops {
				gone += st.Drops[r][k].Packets
			}
		}
		return sent, gone
	}
	if sent, gone := balance(); gone > sent {
		return fmt.Errorf("conservation: %d packets delivered or dropped, only %d sent", gone, sent)
	}
	if err := drain(); err != nil {
		return err
	}
	if sent, gone := balance(); sent != gone {
		return fmt.Errorf("conservation: %d sent, %d delivered or dropped after drain", sent, gone)
	}
	return nil
}

// e15Rep is one measured repetition: a fresh substrate (cold routing
// cache, as every ddosim invocation starts), every cell built on the sweep
// workers, then every cell run on the sweep workers.
type e15Rep struct {
	setup, run     time.Duration
	cpuSetup, cpuR time.Duration
	setupBuilds    uint64
	runBuilds      uint64
	runHits        uint64
	sc             *e15Scenario
	cells          []*e15Cell
}

func runE15Rep(sz e15Size, seed uint64, workers int, tr *tracer) (*e15Rep, error) {
	rep := &e15Rep{}
	t0, c0 := time.Now(), cpuSelf()
	setupSpan := tr.begin("bench.setup", 0, 0)
	sc, err := newE15Scenario(sz, seed, tr, setupSpan)
	if err != nil {
		return nil, err
	}
	rep.sc = sc
	type pt struct{ f, s float64 }
	var pts []pt
	for _, f := range sz.fractions {
		for _, s := range sz.scales {
			pts = append(pts, pt{f, s})
		}
	}
	rep.cells, err = sweep.Run(len(pts), workers, seed, func(i int, _ *sim.RNG) (*e15Cell, error) {
		return sc.buildCell(pts[i].f, pts[i].s, seed, tr, setupSpan)
	})
	tr.end(setupSpan)
	if err != nil {
		return nil, err
	}
	rep.setup, rep.cpuSetup = time.Since(t0), cpuSelf()-c0
	st0 := sc.sub.Routes.Stats()
	rep.setupBuilds = st0.Builds

	t1, c1 := time.Now(), cpuSelf()
	runSpan := tr.begin("bench.run", 0, 0)
	_, err = sweep.Run(len(rep.cells), workers, seed, func(i int, _ *sim.RNG) (struct{}, error) {
		return struct{}{}, rep.cells[i].run(sc, tr, runSpan)
	})
	tr.end(runSpan)
	if err != nil {
		return nil, err
	}
	rep.run, rep.cpuR = time.Since(t1), cpuSelf()-c1
	st1 := sc.sub.Routes.Stats()
	rep.runBuilds = st1.Builds - st0.Builds
	rep.runHits = st1.Hits - st0.Hits
	return rep, nil
}

// checkE15Quick runs the benchmark's cells at ddosim's quick size on the
// sweep workers and compares them with the e15 experiment itself, run
// serially, for the same seed.
func checkE15Quick(seed uint64, workers int) error {
	rep, err := runE15Rep(e15Quick, seed, workers, nil)
	if err != nil {
		return err
	}
	want, err := experiment.Run("e15", experiment.Options{Quick: true, Seed: seed, Workers: 1})
	if err != nil {
		return err
	}
	if got := e15Table(rep.cells); got.String() != want.String() {
		return fmt.Errorf("e15 quick cells differ from ddosim -exp e15 -quick -seed %d:\n%s\nwant:\n%s", seed, got, want)
	}
	return nil
}

// e15Golden is the recorded measured-size table for the default seed,
// relative to the repository root the benchmark runs from.
const e15Golden = "perfbench/testdata/e15_seed42.txt"

func runE15(r *runCtx) (*report, error) {
	sz := e15Bench
	if r.toy {
		sz = e15Quick
	}
	workers := runtime.GOMAXPROCS(0)
	nCells := len(sz.fractions) * len(sz.scales)
	rep := newReport()
	rep.note("e15-internet: %d graphs in turn, each a %d-AS BA graph, %d clients per stub, %d reflectors, %d cells on %d sweep workers sharing one substrate",
		inputs, sz.nodes, sz.perStub, sz.reflectors, nCells, workers)

	quickCells := len(e15Quick.fractions) * len(e15Quick.scales)
	err := checkE15Quick(r.seed, workers)
	rep.check(err == nil, quickCells, "%v", err)

	first := make([]string, inputs)
	err = repeat(r, rep, inputs, func(k int, tr *tracer) (*repOut, error) {
		rp, err := runE15Rep(sz, inputSeed(r.seed, k), workers, tr)
		if err != nil {
			return nil, err
		}
		tbl := e15Table(rp.cells).String()
		if first[k] == "" {
			first[k] = tbl
			rep.note("input %d:\n%s", k, strings.TrimRight(tbl, "\n"))
		} else if tbl != first[k] {
			rep.check(false, nCells, "a repetition of input %d produced a different table:\n%s", k, tbl)
		}
		out := &repOut{setup: rp.setup, run: rp.run, cpu: rp.cpuSetup + rp.cpuR, layer: map[string]float64{}}
		if tr != nil {
			if err := e15Layers(out.layer, rp, tr); err != nil {
				return nil, err
			}
		}
		for _, c := range rp.cells {
			err := c.conserve()
			rep.check(err == nil, 1, "cell deploy=%.0f%% x%.0f: %v", c.frac*100, c.scale, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	if r.seed == 42 && !r.toy {
		want, err := os.ReadFile(e15Golden)
		if err != nil {
			return nil, err
		}
		rep.check(first[0] == string(want), nCells, "seed 42 table differs from %s", e15Golden)
	}
	return rep, nil
}

// e15Layers fills the per-layer metrics of one traced repetition.
func e15Layers(out map[string]float64, rp *e15Rep, tr *tracer) error {
	out["topology.build_s"] = spanSum(tr, "topology.build")
	out["hybrid.clients_s"] = spanSum(tr, "hybrid.clients")
	out["hybrid.world_s"] = spanSum(tr, "hybrid.world")
	out["hybrid.start_s"] = spanSum(tr, "hybrid.start")
	out["device.deploy_s"] = spanSum(tr, "device.deploy")
	out["routing.setup_builds"] = float64(rp.setupBuilds)
	out["routing.run_builds"] = float64(rp.runBuilds)
	out["routing.hits"] = float64(rp.runHits)
	out["routing.hit_ratio"] = ratio(float64(rp.runHits), float64(rp.runHits+rp.runBuilds))
	var events, emitted, cut uint64
	var sent, delivered, qdrops uint64
	for _, c := range rp.cells {
		events += c.w.Fired()
		em, _ := c.w.Emitted()
		st := c.w.Stats()
		for k := range em {
			emitted += em[k]
			cut += c.w.FluidCutCount[k]
			sent += st.Sent[k].Packets
			delivered += st.Delivered[k].Packets
			qdrops += st.Drops[netsim.DropQueue][k].Packets
		}
	}
	out["sim.events"] = float64(events)
	simS := spanSum(tr, "sim.run")
	out["sim.events_per_s"] = ratio(float64(events), simS)
	out["sim.self_s"] = tr.selfTimes()["sim"]
	out["netsim.pkts_sent"] = float64(sent)
	out["netsim.pkts_delivered"] = float64(delivered)
	out["netsim.queue_drops"] = float64(qdrops)
	out["hybrid.emitted"] = float64(emitted)
	out["hybrid.fluid_cut"] = float64(cut)
	// Legitimate replies go back to the client stubs: those are the trees
	// a run builds.
	var stubs []int
	for _, v := range rp.sc.sub.Graph.Stubs() {
		if v != rp.sc.victim {
			stubs = append(stubs, v)
		}
	}
	ms, err := buildSampleMS(rp.sc.sub.Graph, stubs)
	out["routing.build_ms"] = ms
	return err
}
