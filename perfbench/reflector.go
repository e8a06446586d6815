package main

import (
	"fmt"
	"time"

	dtc "dtc"
	"dtc/internal/attack"
	"dtc/internal/defense"
	"dtc/internal/netsim"
	"dtc/internal/nms"
	"dtc/internal/packet"
	"dtc/internal/routing"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/sweep"
	"dtc/internal/topology"
)

// reflSize is one scale of the reflector-loop scenario.
type reflSize struct {
	nodes, isps           int
	clients, agents       int
	reflectors, masters   int
	clientRate, agentRate float64 // requests/s per client, per agent
	onset, stop, until    sim.Time
}

var (
	// reflBench is the measured load: the victim is overloaded until the
	// controller mitigates, and the event engine, links, devices and the
	// telemetry loop carry the run while routing serves only cache hits.
	reflBench = reflSize{2000, 4, 200, 200, 8, 4, 10, 200,
		1 * sim.Second, 3500 * sim.Millisecond, 5 * sim.Second}
	// reflToy keeps the loop's shape at a tenth of the size: the clients
	// send often enough, and the attack starts late enough, that the
	// detector learns a steady baseline and retracts on every graph.
	reflToy = reflSize{200, 2, 50, 20, 4, 2, 20, 900,
		600 * sim.Millisecond, 1100 * sim.Millisecond, 2500 * sim.Millisecond}
)

// reflTick is the telemetry and control period of the closed loop.
const reflTick = 20 * sim.Millisecond

// reflScenario is one built reflector-loop world, ready to run.
type reflScenario struct {
	sz       reflSize
	g        *topology.Graph
	routes   *routing.Shared
	world    *dtc.World
	ctrl     *defense.Controller
	web      *attack.VictimService
	clients  []*attack.Client
	ticker   *sim.Ticker
	victim   int
	loopErr  error
	overload uint64 // victim overload drops when the controller first mitigated
}

// newReflScenario builds the scenario through the dtc facade: a power-law
// graph split among ISPs, routing prebuilt for every destination, the
// victim's registered prefix with a source-stage service on every ISP,
// the defense controller, legitimate clients, DNS reflectors and a botnet.
func newReflScenario(sz reflSize, seed uint64, tr *tracer, parent uint64) (*reflScenario, error) {
	sc := &reflScenario{sz: sz}
	if err := tr.do("topology.build", parent, func() (err error) {
		sc.g, err = topology.BarabasiAlbert(sz.nodes, 2, sim.NewRNG(seed))
		return err
	}); err != nil {
		return nil, err
	}
	g := sc.g
	all := make([]int, g.Len())
	for i := range all {
		all[i] = i
	}
	if err := tr.do("routing.prebuild", parent, func() error {
		sc.routes = routing.NewShared(g, nil)
		return sc.routes.Prebuild(all, 0)
	}); err != nil {
		return nil, err
	}
	partition := make([][]int, sz.isps)
	for i, v := range all {
		partition[i*sz.isps/len(all)] = append(partition[i*sz.isps/len(all)], v)
	}
	if err := tr.do("dtc.world", parent, func() (err error) {
		sc.world, err = dtc.NewWorld(dtc.WorldConfig{
			Topology: g, Seed: seed, ISPPartition: partition,
			Routes: sc.routes, NodeOwners: sweep.NodeOwners(g),
		})
		return err
	}); err != nil {
		return nil, err
	}
	w := sc.world

	stubs := g.Stubs()
	pick := func(k int) int { return stubs[k%len(stubs)] }
	next := 0
	take := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = pick(next)
			next++
		}
		return out
	}
	sc.victim = take(1)[0]
	reflNodes, clientNodes, agentNodes := take(sz.reflectors), take(sz.clients), take(sz.agents)
	attacker, masters := take(1)[0], take(sz.masters)
	victimPrefix := netsim.NodePrefix(sc.victim)

	var owner *dtc.User
	if err := tr.do("tcsp.register", parent, func() (err error) {
		owner, err = w.NewUser("victim", victimPrefix)
		return err
	}); err != nil {
		return nil, err
	}
	// The victim's own service: source-stage traffic accounting on every
	// ISP, so packets from and to the victim both take the device's
	// two-stage pipeline.
	srcStats := service.TrafficStats("victim-src", service.MatchSpec{})
	srcStats.Stage = "source"
	if err := tr.do("device.deploy", parent, func() error {
		_, err := owner.Deploy(srcStats, nil, nms.Scope{})
		return err
	}); err != nil {
		return nil, err
	}
	err := tr.do("defense.start", parent, func() (err error) {
		sc.ctrl, err = defense.NewController(defense.Config{
			Owner:    "victim",
			Prefixes: []packet.Prefix{victimPrefix},
			Match:    service.MatchSpec{Proto: "udp"},
			LimitPPS: 100,
			Detector: defense.DetectorConfig{Threshold: 100, Warmup: 10, Hold: 5},
		}, w.TCSP.Telemetry())
		if err != nil {
			return err
		}
		for _, name := range w.ISPNames() {
			sc.ctrl.AddISP(name, w.ISPs[name])
		}
		return sc.ctrl.Start()
	})
	if err != nil {
		return nil, err
	}

	err = tr.do("attack.setup", parent, func() error {
		var err error
		if sc.web, err = attack.NewVictimService(w.Net, sc.victim, 200*sim.Microsecond, 64, 800); err != nil {
			return err
		}
		refl, err := attack.NewReflectorFleet(w.Net, reflNodes, attack.ReflectDNS, 20*sim.Microsecond, 4096)
		if err != nil {
			return err
		}
		if sc.clients, err = attack.NewClients(w.Net, clientNodes); err != nil {
			return err
		}
		for _, c := range sc.clients {
			c.Start(0, sc.web.Server.Host.Addr, sz.clientRate, 200)
		}
		bot, err := attack.NewBotnet(w.Net, attacker, masters, agentNodes, sz.agents/sz.masters)
		if err != nil {
			return err
		}
		return bot.LaunchReflectorAttack(sz.onset, refl, attack.ReflectDNS, sc.web.Server.Host.Addr, sz.agentRate, sz.stop)
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// run drives the simulation to sz.until with the benchmark-owned control
// loop: every tick each NMS snapshots its devices, the TCSP ingests the
// reports, and the controller takes one step.
func (sc *reflScenario) run(tr *tracer, parent uint64) error {
	w := sc.world
	names := w.ISPNames()
	var runSpan uint64
	mitigated := false
	sc.ticker = w.Sim.NewTicker(reflTick, func(now sim.Time) {
		for _, name := range names {
			var snaps = tr.begin("nms.snapshot", runSpan, 0)
			s := w.ISPs[name].Snapshot(int64(now))
			tr.end(snaps)
			rs := tr.begin("telemetry.report", runSpan, 0)
			err := w.TCSP.Report(name, s)
			tr.end(rs)
			if err != nil && sc.loopErr == nil {
				sc.loopErr = err
			}
		}
		ss := tr.begin("defense.step", runSpan, 0)
		err := sc.ctrl.Step(now)
		tr.end(ss)
		if err != nil && sc.loopErr == nil {
			sc.loopErr = err
		}
		if !mitigated && sc.ctrl.Mitigating() {
			mitigated = true
			for _, n := range sc.web.Server.Overloaded {
				sc.overload += n
			}
		}
	})
	runSpan = tr.begin("sim.run", parent, 0)
	_, err := w.Sim.Run(sc.sz.until)
	tr.end(runSpan)
	if err != nil {
		return err
	}
	return sc.loopErr
}

// outcome summarizes what the run computed; equal seeds give equal
// outcomes.
func (sc *reflScenario) outcome() string {
	var req, rep uint64
	for _, c := range sc.clients {
		req += c.Requested()
		rep += c.Replies
	}
	st := sc.world.Net.Stats
	var sent, delivered uint64
	for k := range st.Sent {
		sent += st.Sent[k].Packets
		delivered += st.Delivered[k].Packets
	}
	var trs []string
	for _, t := range sc.ctrl.Transitions() {
		trs = append(trs, fmt.Sprintf("%v@%v", t.Mitigating, t.At))
	}
	return fmt.Sprintf("legit %d/%d replies, backscatter %d, events %d, sent %d, delivered %d, overload-at-mitigation %d, transitions %v",
		rep, req, sc.web.Server.Host.Delivered[packet.KindReflect], sc.world.Sim.Fired(), sent, delivered, sc.overload, trs)
}

// checkLoop verifies the closed loop did its job: the victim was
// overloaded before mitigation, the controller mitigated during the
// attack and retracted after it.
func (sc *reflScenario) checkLoop() error {
	var on, off bool
	for _, t := range sc.ctrl.Transitions() {
		if t.Mitigating && t.At >= sc.sz.onset && !on {
			on = true
		}
		if !t.Mitigating && on && t.At >= sc.sz.stop {
			off = true
		}
	}
	switch {
	case !on:
		return fmt.Errorf("controller never mitigated")
	case !off:
		return fmt.Errorf("controller never retracted after the attack")
	case sc.overload == 0:
		return fmt.Errorf("victim was not overloaded before mitigation")
	}
	return nil
}

// conserve stops every source and the control loop, drains the network
// and checks packet conservation.
func (sc *reflScenario) conserve() error {
	return conserved(sc.world.Net.Stats, func() error {
		for _, c := range sc.clients {
			c.Stop()
		}
		sc.ticker.Stop()
		_, err := sc.world.Sim.Run(sim.MaxTime)
		return err
	})
}

func runReflector(r *runCtx) (*report, error) {
	sz := reflBench
	if r.toy {
		sz = reflToy
	}
	rep := newReport()
	rep.note("reflector-loop: %d inputs in turn, each a %d-AS BA graph in %d ISPs, %d clients at %g req/s, %d agents at %g pps via %d DNS reflectors, %v tick, %v simulated",
		inputs, sz.nodes, sz.isps, sz.clients, sz.clientRate, sz.agents, sz.agentRate, sz.reflectors, time.Duration(reflTick), time.Duration(sz.until))
	first := make([]string, inputs)
	err := repeat(r, rep, inputs, func(k int, tr *tracer) (*repOut, error) {
		t0, c0 := time.Now(), cpuSelf()
		setupSpan := tr.begin("bench.setup", 0, 0)
		sc, err := newReflScenario(sz, inputSeed(r.seed, k), tr, setupSpan)
		tr.end(setupSpan)
		if err != nil {
			return nil, err
		}
		out := &repOut{setup: time.Since(t0), layer: map[string]float64{}}
		st0 := sc.routes.Stats()
		dev0 := deviceStats(sc.world)

		t1 := time.Now()
		runSpan := tr.begin("bench.run", 0, 0)
		err = sc.run(tr, runSpan)
		tr.end(runSpan)
		if err != nil {
			return nil, err
		}
		out.run, out.cpu = time.Since(t1), cpuSelf()-c0
		st1 := sc.routes.Stats()

		if o := sc.outcome(); first[k] == "" {
			first[k] = o
			rep.note("outcome of input %d: %s", k, o)
		} else if o != first[k] {
			rep.check(false, 1, "a repetition of input %d produced a different outcome: %s", k, o)
		}
		err = sc.checkLoop()
		rep.check(err == nil, 1, "closed loop: %v", err)
		runBuilds := st1.Builds - st0.Builds
		rep.check(runBuilds == 0, 1, "routing built %d trees during the run (every tree is prebuilt)", runBuilds)
		if tr != nil {
			dev1 := deviceStats(sc.world)
			l := out.layer
			l["topology.build_s"] = spanSum(tr, "topology.build")
			l["routing.setup_builds"] = float64(st0.Builds)
			l["routing.run_builds"] = float64(runBuilds)
			l["routing.hits"] = float64(st1.Hits - st0.Hits)
			l["routing.hit_ratio"] = ratio(float64(st1.Hits-st0.Hits), float64(st1.Hits-st0.Hits+runBuilds))
			l["device.deploy_s"] = spanSum(tr, "device.deploy")
			l["device.seen"] = float64(dev1.Seen - dev0.Seen)
			l["device.redirected"] = float64(dev1.Redirected - dev0.Redirected)
			l["device.discarded"] = float64(dev1.Discarded - dev0.Discarded)
			events := float64(sc.world.Sim.Fired())
			l["sim.events"] = events
			l["sim.events_per_s"] = ratio(events, spanSum(tr, "sim.run"))
			l["sim.self_s"] = tr.selfTimes()["sim"]
			st := sc.world.Net.Stats
			for k := range st.Sent {
				l["netsim.pkts_sent"] += float64(st.Sent[k].Packets)
				l["netsim.pkts_delivered"] += float64(st.Delivered[k].Packets)
				l["netsim.queue_drops"] += float64(st.Drops[netsim.DropQueue][k].Packets)
			}
			l["nms.snapshot_ms"] = spanMeanMS(tr, "nms.snapshot")
			l["telemetry.report_ms"] = spanMeanMS(tr, "telemetry.report")
			l["defense.step_ms"] = spanMeanMS(tr, "defense.step")
			l["defense.transitions"] = float64(len(sc.ctrl.Transitions()))
			ms, err := buildSampleMS(sc.g, sc.g.Stubs())
			if err != nil {
				return nil, err
			}
			l["routing.build_ms"] = ms
		}
		err = sc.conserve()
		rep.check(err == nil, 1, "%v", err)
		return out, nil
	})
	return rep, err
}

// deviceStats sums the counters of every device of every ISP.
func deviceStats(w *dtc.World) (s struct{ Seen, Redirected, Discarded uint64 }) {
	for _, name := range w.ISPNames() {
		m := w.ISPs[name]
		for _, n := range m.Nodes() {
			if d, ok := m.Device(n); ok {
				ds := d.Stats()
				s.Seen += ds.Seen
				s.Redirected += ds.Redirected
				s.Discarded += ds.Discarded
			}
		}
	}
	return s
}
