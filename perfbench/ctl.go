package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dtc/internal/auth"
	"dtc/internal/ctl"
	"dtc/internal/deploy"
	"dtc/internal/nms"
	"dtc/internal/packet"
	"dtc/internal/service"
	"dtc/internal/sim"
	"dtc/internal/tcsp"
)

// ctlSize is one scale of the ctl-sessions workload.
type ctlSize struct {
	isps, nodesPerISP int
	users             int       // identities sessions draw from; bounds sessions in flight
	updates           int       // parameter updates per session
	ladder            []float64 // open-loop session rates, sessions/s; the first is the base rate
	limit             time.Duration
	conc, batch       int // closed loop: sessions in flight, sessions per batch
	launches          int // deployments launched in turn; each serves closed-loop batches, the last also the open loop
}

var (
	// ctlBench offers 180 to 1800 ops/s open-loop: the base rate leaves
	// the TCSP mostly idle, the top rung is past what two cores serve. The
	// closed loop keeps 32 sessions in flight, enough to keep the
	// serialized TCSP handler busy.
	ctlBench = ctlSize{isps: 2, nodesPerISP: 4, users: 256, updates: 2,
		ladder: []float64{30, 75, 150, 300}, limit: 50 * time.Millisecond,
		conc: 32, batch: 200, launches: 5}
	ctlToy = ctlSize{isps: 2, nodesPerISP: 2, users: 16, updates: 1,
		ladder: []float64{10, 20, 40, 80}, limit: 250 * time.Millisecond,
		conc: 4, batch: 20, launches: 2}
)

// opsPerSession is register, install, the updates, a counters read and
// remove.
func (sz ctlSize) opsPerSession() int { return 4 + sz.updates }

// ctlUser is one pre-allocated identity; deploy.UserOwner(i) owns
// deploy.UserPrefix(i) at the TCSP's number authority.
type ctlUser struct {
	owner, prefix, isp string
	id                 *auth.Identity
}

// opRec is one timed control-plane operation.
type opRec struct {
	op   string
	step int
	lat  time.Duration
	sign time.Duration
	err  error
}

// sessRec is one user session.
type sessRec struct {
	step     int
	due      time.Time
	late     time.Duration // dispatch time minus due time
	finished time.Time
	failed   bool
}

// loadgen is the open-loop generator: users arrive on a seeded Poisson
// schedule and each runs one session over one of at most nproc mux
// connections to the TCSP, across loopback TCP.
type loadgen struct {
	sz     ctlSize
	conns  []*ctl.MuxClient
	users  []ctlUser
	pool   chan int
	tcspPK ed25519.PublicKey

	mu       sync.Mutex
	ops      []opRec
	sessions []*sessRec
	invalid  []string
	wg       sync.WaitGroup
	inflight int
}

func (lg *loadgen) invalidf(format string, args ...any) {
	lg.mu.Lock()
	defer lg.mu.Unlock()
	if len(lg.invalid) < 10 {
		lg.invalid = append(lg.invalid, fmt.Sprintf(format, args...))
	}
}

// session runs register -> install -> updates -> counters read -> remove
// for one user. The first operation is timed from the session's due time,
// so a stall in the system or the generator shows in it; each later one
// from the previous reply.
func (lg *loadgen) session(sid int, s *sessRec, tr *tracer) {
	defer lg.wg.Done()
	req := uint64(sid + 1)
	root := tr.begin("ctl.session", 0, req)
	defer tr.end(root)
	ui := <-lg.pool
	defer func() { lg.pool <- ui }()
	u := lg.users[ui]
	conn := lg.conns[sid%len(lg.conns)]
	mark := s.due
	var recs []opRec
	var serial, nonce uint64
	fail := false
	call := func(op, method string, body any, params func(*auth.SignedRequest) any, out any) bool {
		if fail {
			return false
		}
		var in any
		var sign time.Duration
		if params != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				lg.invalidf("%s: %v", op, err)
				fail = true
				return false
			}
			nonce++
			sp := tr.begin("auth.sign", root, req)
			t := time.Now()
			sreq := auth.SignRequest(u.id, serial, nonce, raw)
			sign = time.Since(t)
			tr.end(sp)
			in = params(sreq)
		} else {
			in = body
		}
		sp := tr.begin("ctl."+op, root, req)
		err := conn.Call(method, in, out)
		tr.end(sp)
		now := time.Now()
		recs = append(recs, opRec{op: op, step: s.step, lat: now.Sub(mark), sign: sign, err: err})
		mark = now
		if err != nil {
			lg.invalidf("%s %s: %v", u.owner, op, err)
			fail = true
		}
		return err == nil
	}
	invalid := func(format string, args ...any) {
		lg.invalidf(u.owner+": "+format, args...)
		recs[len(recs)-1].err = fmt.Errorf("invalid reply")
		fail = true
	}

	var cert auth.Certificate
	sig := u.id.Sign(tcsp.RegistrationBytes(u.owner, u.id.Pub, []string{u.prefix}))
	if call("register", "register", &ctl.RegisterParams{
		User: u.owner, PublicKey: u.id.Pub, Prefixes: []string{u.prefix}, Signature: sig,
	}, nil, &cert) {
		p, _ := packet.ParsePrefix(u.prefix)
		switch {
		case cert.Verify(lg.tcspPK, time.Now().Unix()) != nil:
			invalid("certificate does not verify against the TCSP key")
		case cert.Owner != u.owner || !cert.Covers(p):
			invalid("certificate for %q does not cover %s", cert.Owner, u.prefix)
		}
		serial = cert.Serial
	}

	spec := service.RateLimit("rl-"+u.owner, service.MatchSpec{Proto: "udp"}, 500, 50)
	var dres []*nms.DeployResult
	var installed []int
	if call("install", "deploy", &nms.DeployRequest{
		Owner: u.owner, Prefixes: []string{u.prefix}, Spec: *spec,
	}, func(sr *auth.SignedRequest) any {
		return &ctl.DeployParams{Signed: sr, ISPs: []string{u.isp}}
	}, &dres) {
		if len(dres) != 1 || dres[0].ISP != u.isp || len(dres[0].Nodes) != lg.sz.nodesPerISP {
			invalid("install reply %s does not list the %d devices of %s", jsonString(dres), lg.sz.nodesPerISP, u.isp)
		} else {
			installed = dres[0].Nodes
		}
	}
	control := func(op string, creq *nms.ControlRequest) []*nms.ControlResult {
		var res []*nms.ControlResult
		if !call(op, "control", creq, func(sr *auth.SignedRequest) any {
			return &ctl.ControlParams{Signed: sr, ISPs: []string{u.isp}}
		}, &res) {
			return nil
		}
		if len(res) != 1 || res[0].ISP != u.isp || !res[0].OK {
			invalid("%s reply %s", op, jsonString(res))
			return nil
		}
		return res
	}
	for k := 0; k < lg.sz.updates; k++ {
		rate := float64(500 + 25*(k+1))
		control("update", &nms.ControlRequest{Owner: u.owner, Op: "update", Stage: "dest",
			Component: "limit", Update: &nms.ParamUpdate{Rate: &rate}})
	}
	if res := control("read", &nms.ControlRequest{Owner: u.owner, Op: "counters", Stage: "dest"}); res != nil {
		var nodes []int
		for _, c := range res[0].Counters {
			nodes = append(nodes, c.Node)
		}
		sort.Ints(nodes)
		if fmt.Sprint(nodes) != fmt.Sprint(installed) {
			invalid("counters read covers nodes %v, installed on %v", nodes, installed)
		}
	}
	control("remove", &nms.ControlRequest{Owner: u.owner, Op: "remove", Stage: "dest"})

	now := time.Now()
	lg.mu.Lock()
	defer lg.mu.Unlock()
	s.finished, s.failed = now, fail
	lg.ops = append(lg.ops, recs...)
	lg.inflight--
}

func jsonString(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// ctlStep is one rung of the offered-rate ladder.
type ctlStep struct {
	rate       float64 // sessions/s
	dur        time.Duration
	backlogMid int // sessions in flight at mid-step
	backlogEnd int // sessions in flight at the end of the step
}

// drive offers the ladder's steps one after another, then waits for
// every session to finish. Each step offers exactly rate x duration
// sessions at uniformly random times: a Poisson process conditioned on
// its count, so runs differ in when users arrive but not in how many.
func (lg *loadgen) drive(steps []*ctlStep, seed uint64, tr *tracer) {
	rng := sim.NewRNG(seed)
	sid := 0
	backlog := func() int {
		lg.mu.Lock()
		defer lg.mu.Unlock()
		return lg.inflight
	}
	for si, st := range steps {
		offsets := make([]time.Duration, int(st.rate*st.dur.Seconds()+0.5))
		for i := range offsets {
			offsets[i] = time.Duration(rng.Float64() * float64(st.dur))
		}
		sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
		start := time.Now()
		midDone := false
		for _, off := range offsets {
			if !midDone && off >= st.dur/2 {
				time.Sleep(time.Until(start.Add(st.dur / 2)))
				st.backlogMid, midDone = backlog(), true
			}
			due := start.Add(off)
			time.Sleep(time.Until(due))
			s := &sessRec{step: si, due: due, late: time.Since(due)}
			lg.mu.Lock()
			lg.sessions = append(lg.sessions, s)
			lg.inflight++
			lg.mu.Unlock()
			lg.wg.Add(1)
			go lg.session(sid, s, tr)
			sid++
		}
		time.Sleep(time.Until(start.Add(st.dur)))
		st.backlogEnd = backlog()
	}
	lg.wg.Wait()
}

// procCPU is the CPU time of each deployment process, by role.
func procCPU(d *deploy.Deployment) (map[string]time.Duration, error) {
	out := map[string]time.Duration{}
	add := func(role string, p *deploy.Proc) error {
		c, err := cpuOf(p.Pid())
		out[role] += c
		return err
	}
	if err := add("tcsp", d.TCSP); err != nil {
		return nil, err
	}
	for _, p := range d.NMS {
		if err := add("nms", p); err != nil {
			return nil, err
		}
	}
	others := append([]*deploy.Proc{}, d.Users...)
	if d.Attack != nil {
		others = append(others, d.Attack)
	}
	for _, p := range others {
		if err := add("other", p); err != nil {
			return nil, err
		}
	}
	out["loadgen"] = cpuSelf()
	return out, nil
}

func launch(sz ctlSize, dir string) (*deploy.Deployment, time.Duration, error) {
	t0 := time.Now()
	d, err := deploy.Launch(deploy.Spec{
		ISPs: sz.isps, NodesPerISP: sz.nodesPerISP,
		UserProcs: 1, UsersPerProc: 1, Attack: true, MuxUsers: true,
		LogDir: dir,
		// The harness pre-allocates prefixes for its own user agent
		// (index 0); the benchmark's users take indices 1..users.
		ExtraEnv: []string{fmt.Sprintf("DTC_MAX_USERS=%d", sz.users+1)},
	})
	if err != nil {
		return nil, 0, err
	}
	if _, err := d.WaitUserStats(30 * time.Second); err != nil {
		d.Teardown()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// ctlBatch is one closed-loop batch of sessions.
type ctlBatch struct {
	wall   time.Duration
	cpu    map[string]time.Duration // by process role, over the batch
	steal  float64                  // the host's steal share over the batch
	traced bool
}

// saturate runs closed-loop batches of sz.batch sessions, sz.conc in
// flight, each user starting a new session as soon as the previous one
// ends, until dur has passed and at least `least` batches (with tracing,
// that many of each kind) are done. Traced and untraced batches alternate.
func (lg *loadgen) saturate(d *deploy.Deployment, step, sid, least int, dur time.Duration, tr *tracer) ([]ctlBatch, error) {
	var out []ctlBatch
	deadline := time.Now().Add(dur)
	kinds := func(traced bool) int {
		n := 0
		for _, b := range out {
			if b.traced == traced {
				n++
			}
		}
		return n
	}
	for i := 0; kinds(false) < least || (tr != nil && kinds(true) < least) || time.Now().Before(deadline); i++ {
		var btr *tracer
		if tr != nil && i%2 == 1 {
			btr = tr
		}
		c0, err := procCPU(d)
		if err != nil {
			return nil, err
		}
		t0, h0 := time.Now(), readHost()
		ids := make(chan int)
		var workers sync.WaitGroup
		for w := 0; w < lg.sz.conc; w++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				for id := range ids {
					s := &sessRec{step: step, due: time.Now()}
					lg.mu.Lock()
					lg.sessions = append(lg.sessions, s)
					lg.inflight++
					lg.mu.Unlock()
					lg.wg.Add(1)
					lg.session(id, s, btr)
				}
			}()
		}
		for k := 0; k < lg.sz.batch; k++ {
			ids <- sid
			sid++
		}
		close(ids)
		workers.Wait()
		wall, steal := time.Since(t0), stealShare(h0, readHost())
		c1, err := procCPU(d)
		if err != nil {
			return nil, err
		}
		for role := range c1 {
			c1[role] -= c0[role]
		}
		out = append(out, ctlBatch{wall: wall, cpu: c1, steal: steal, traced: btr != nil})
	}
	return out, nil
}

// tcspStats is the reply of the TCSP role's stats method.
type tcspStats struct {
	Registers   uint64 `json:"registers"`
	Deploys     uint64 `json:"deploys"`
	Controls    uint64 `json:"controls"`
	Reports     uint64 `json:"reports"`
	IngestDrops uint64 `json:"ingest_drops"`
}

func (s *tcspStats) add(o tcspStats) {
	s.Registers += o.Registers
	s.Deploys += o.Deploys
	s.Controls += o.Controls
	s.Reports += o.Reports
	s.IngestDrops += o.IngestDrops
}

// serve points the generator at deployment d (the i-th launched), offers
// the open-loop ladder when open is set, then runs closed-loop batches for
// dur. It returns the batches and the TCSP's counts.
func (lg *loadgen) serve(d *deploy.Deployment, i int, open bool, steps []*ctlStep, dur time.Duration, seed uint64, tr *tracer) ([]ctlBatch, tcspStats, error) {
	var st tcspStats
	pk, err := base64.StdEncoding.DecodeString(d.TCSP.Stats()["pubkey"])
	if err != nil {
		return nil, st, fmt.Errorf("tcsp public key: %w", err)
	}
	lg.tcspPK = pk
	lg.conns = lg.conns[:0]
	defer func() {
		for _, c := range lg.conns {
			c.Close()
		}
	}()
	for k := 0; k < runtime.NumCPU(); k++ {
		c, err := ctl.DialMux(d.TCSP.Addr)
		if err != nil {
			return nil, st, err
		}
		lg.conns = append(lg.conns, c)
	}
	if open {
		lg.drive(steps, seed, tr)
	}
	// Session ids, and with them the request ids of spans, stay distinct
	// across deployments; a run makes at least minReps batches of each
	// kind in all.
	least := (minReps + lg.sz.launches - 1) / lg.sz.launches
	bs, err := lg.saturate(d, len(steps), 1<<30+i<<24, least, dur, tr)
	if err != nil {
		return nil, st, err
	}
	if err := lg.conns[0].Call("stats", nil, &st); err != nil {
		return nil, st, fmt.Errorf("tcsp stats: %w", err)
	}
	return bs, st, nil
}

// deploymentRSSMB sums the peak resident sets of d's processes.
func deploymentRSSMB(d *deploy.Deployment) (float64, error) {
	var rss float64
	for _, p := range append(append([]*deploy.Proc{d.TCSP, d.Attack}, d.NMS...), d.Users...) {
		mb, err := peakRSSMB(fmt.Sprint(p.Pid()))
		if err != nil {
			return 0, err
		}
		rss += mb
	}
	return rss, nil
}

func runCtlSessions(r *runCtx) (*report, error) {
	sz := ctlBench
	if r.toy {
		sz = ctlToy
	}
	rep := newReport()
	nconn := runtime.NumCPU()
	rep.note("ctl-sessions: %d deployments in turn, each deploy.Launch with TCSP, %d NMS processes of %d routers, attack master on; users over %d mux connections; traffic crosses loopback TCP",
		sz.launches, sz.isps, sz.nodesPerISP, nconn)

	lg := &loadgen{sz: sz, pool: make(chan int, sz.users)}
	for i := 1; i <= sz.users; i++ {
		owner := deploy.UserOwner(i)
		seed := sha256.Sum256([]byte(owner))
		id, err := auth.NewIdentity(owner, seed[:])
		if err != nil {
			return nil, err
		}
		lg.users = append(lg.users, ctlUser{owner: owner, prefix: deploy.UserPrefix(i).String(),
			isp: fmt.Sprintf("isp%d", i%sz.isps+1), id: id})
		lg.pool <- len(lg.users) - 1
	}
	var tr *tracer
	if r.trace {
		tr = newTracer()
	}

	// The open loop takes a third of the run: the base rate gets half of
	// that, the higher rungs share the rest. The closed loop takes the
	// other two thirds, split evenly among the deployments, so no single
	// launch decides a run's times.
	open := r.seconds / 3
	steps := []*ctlStep{{rate: sz.ladder[0], dur: open / 2}}
	for _, rate := range sz.ladder[1:] {
		steps = append(steps, &ctlStep{rate: rate, dur: open / 2 / time.Duration(len(sz.ladder)-1)})
	}
	closed := (r.seconds - open) / time.Duration(sz.launches)

	var setups, setupSteal []float64
	var batches []ctlBatch
	var stats tcspStats
	var g0, g1 gcSnap
	for i := 0; i < sz.launches; i++ {
		h0 := readHost()
		d, took, err := launch(sz, filepath.Join(r.outDir, fmt.Sprintf("deploy-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		setupSteal = append(setupSteal, stealShare(h0, readHost()))
		last := i == sz.launches-1
		if last {
			g0 = readGC()
		}
		bs, st, err := lg.serve(d, i, last, steps, closed, r.seed, tr)
		if err == nil && last {
			g1 = readGC()
			rep.e2e["peak_rss_mb"], err = deploymentRSSMB(d)
		}
		terr := d.Teardown()
		if err != nil {
			return nil, err
		}
		rep.check(terr == nil, 1, "teardown: %v", terr)
		batches = append(batches, bs...)
		stats.add(st)
	}
	rep.e2e["setup_s"] = pickMedian(setups, clean(setupSteal))
	for _, msg := range lg.invalid {
		rep.note("invalid: %s", msg)
	}

	failedOps := 0
	for _, o := range lg.ops {
		if o.err != nil {
			failedOps++
		}
	}
	rep.check(failedOps == 0, len(lg.ops), "%d of %d operations failed or returned invalid replies", failedOps, len(lg.ops))
	unfinished := 0
	for _, s := range lg.sessions {
		if s.finished.IsZero() {
			unfinished++
		}
	}
	rep.check(unfinished == 0, unfinished, "%d sessions never finished", unfinished)

	// End to end: the closed-loop batches.
	// Medians are over the clean batches (see clean).
	var walls, cpus, steals, tracedWalls, tracedSteals []float64
	byRole := map[string][]float64{}
	for _, b := range batches {
		if b.traced {
			tracedWalls = append(tracedWalls, b.wall.Seconds())
			tracedSteals = append(tracedSteals, b.steal)
			continue
		}
		walls = append(walls, b.wall.Seconds())
		steals = append(steals, b.steal)
		total := time.Duration(0)
		for role, c := range b.cpu {
			total += c
			byRole[role] = append(byRole[role], c.Seconds())
		}
		cpus = append(cpus, total.Seconds())
	}
	keep := clean(steals)
	rep.e2e["run_s"] = pickMedian(walls, keep)
	rep.e2e["cpu_s"] = pickMedian(cpus, keep)
	rep.note("closed loop: %d untraced batches (%d clean) of %d sessions (%d ops), %d in flight: median %.4f s, %.0f ops/s; CPU %.4f s per batch",
		len(walls), len(keep), sz.batch, sz.batch*sz.opsPerSession(), sz.conc, rep.e2e["run_s"],
		float64(sz.batch*sz.opsPerSession())/rep.e2e["run_s"], rep.e2e["cpu_s"])
	rep.note("closed-loop batch wall times, s: %.3f; host steal shares: %.3f", walls, steals)

	// Open loop: latency by rate.
	lat := func(step int, ops ...string) []float64 {
		var xs []float64
		for _, o := range lg.ops {
			if o.step != step || o.err != nil {
				continue
			}
			for _, want := range ops {
				if o.op == want || want == "" {
					xs = append(xs, millis(o.lat))
					break
				}
			}
		}
		return xs
	}
	lateness := func(step int) float64 {
		var xs []float64
		for _, s := range lg.sessions {
			if s.step == step {
				xs = append(xs, millis(s.late))
			}
		}
		return percentile(xs, 0.99)
	}
	// The generator is honest only if it kept to its schedule at the base
	// rate: once its own lateness reaches the latency limit, the latencies
	// it records measure the generator, not the system.
	baseSessions := int(sz.ladder[0]*steps[0].dur.Seconds() + 0.5)
	rep.check(lateness(0) < millis(sz.limit), baseSessions,
		"generator fell behind its schedule: p99 lateness %.2f ms at the base rate", lateness(0))

	l := rep.layer
	maxOps := 0.0
	for i, st := range steps {
		xs := lat(i, "")
		q := tailQuantile(len(xs))
		p := percentile(xs, q)
		ops := st.rate * float64(sz.opsPerSession())
		meets := p <= millis(sz.limit) && st.backlogEnd <= 2*st.backlogMid+5
		if meets && ops > maxOps {
			maxOps = ops
		}
		rep.note("open loop step %d: offered %.0f ops/s, %d samples, p50 %.2f ms, p%g %.2f ms, backlog %d at mid-step and %d at end, generator p99 lateness %.2f ms, within %v: %v",
			i+1, ops, len(xs), median(xs), 100*q, p, st.backlogMid, st.backlogEnd, lateness(i), sz.limit, meets)
		if r.trace {
			k := fmt.Sprintf("step%d", i+1)
			l["ctl."+k+".offered_ops_s"] = ops
			l["ctl."+k+".p99_ms"] = p
			l["ctl."+k+".backlog"] = float64(st.backlogEnd)
			l["loadgen."+k+".late_ms"] = lateness(i)
		}
	}
	rep.note("max_ops_s %.0f: the highest offered rate whose tail latency stays under %v with no growing backlog", maxOps, sz.limit)
	if !r.trace {
		return rep, nil
	}

	all := lat(0, "")
	q := tailQuantile(len(all))
	l["ctl.p50_ms"] = median(all)
	l["ctl.p99_ms"] = percentile(all, q)
	l["ctl.tail_quantile"] = q
	l["ctl.samples"] = float64(len(all))
	w := lat(0, "install", "update", "remove")
	l["ctl.write_p99_ms"] = percentile(w, tailQuantile(len(w)))
	rd := lat(0, "read")
	l["ctl.read_p99_ms"] = percentile(rd, tailQuantile(len(rd)))
	for _, op := range []string{"register", "install", "update", "read", "remove"} {
		xs := lat(0, op)
		l["ctl."+op+".p50_ms"] = median(xs)
		l["ctl."+op+".p99_ms"] = percentile(xs, tailQuantile(len(xs)))
	}
	l["ctl.max_ops_s"] = maxOps
	var signs []float64
	for _, o := range lg.ops {
		if o.sign > 0 {
			signs = append(signs, millis(o.sign))
		}
	}
	l["auth.sign_ms"] = median(signs)
	l["tcsp.cpu_s"] = pickMedian(byRole["tcsp"], keep)
	l["nms.cpu_s"] = pickMedian(byRole["nms"], keep)
	l["loadgen.cpu_s"] = pickMedian(byRole["loadgen"], keep)
	l["tcsp.registers"] = float64(stats.Registers)
	l["tcsp.deploys"] = float64(stats.Deploys)
	l["tcsp.controls"] = float64(stats.Controls)
	l["tcsp.reports"] = float64(stats.Reports)
	l["tcsp.ingest_drops"] = float64(stats.IngestDrops)
	gcLayer(l, g0, g1)
	l["trace.spans"] = float64(tr.count())
	tracedWall := pickMedian(tracedWalls, clean(tracedSteals))
	l["trace.overhead_pct"] = 100 * (tracedWall/rep.e2e["run_s"] - 1)
	rep.note("tracing overhead: traced batch %.4f s vs untraced %.4f s (medians)", tracedWall, rep.e2e["run_s"])
	path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}
