// Sharded parallel discrete-event execution: conservative lookahead in the
// null-message tradition, specialised to barrier-windowed rounds.
//
// A Sharded coordinator owns N independent Simulations ("shards"). The
// partitioned model (e.g. netsim's sharded network) must guarantee the
// conservative contract: any event one shard generates for another carries
// a timestamp at least Lookahead beyond the generating shard's clock at
// generation time. Under that contract, all events with deadlines inside
// the window [T, T+Lookahead) — where T is the global minimum pending
// event time — are causally independent across shards, so every shard can
// burn through its share of the window in parallel with no locks on the
// hot path. Cross-shard events travel through model-owned outboxes drained
// by barrier hooks between rounds, when no shard goroutine is running.
//
// Determinism: each shard is the ordinary single-threaded engine, so
// intra-shard order is (time, seq) exactly as before. Cross-shard
// deliveries happen at barriers in a fixed hook/shard order, independent
// of goroutine scheduling, so a run is bit-reproducible for a fixed seed,
// shard assignment and lookahead. Shard-COUNT invariance additionally
// requires the model to draw randomness from per-entity substreams (not
// per-shard streams) and to avoid equal-timestamp interactions across
// shards; DESIGN.md §10 states the full contract.
package sim

import "runtime"

// Sharded runs N Simulations in conservatively synchronized rounds.
// Construct with NewSharded; set Lookahead to the minimum cross-shard
// event latency before calling Run.
type Sharded struct {
	sims []*Simulation

	// Lookahead is the conservative window width: the minimum delay any
	// cross-shard event experiences. 0 (the default) falls back to
	// lockstep rounds that fire only events at the global minimum time —
	// always safe, minimally parallel. A Lookahead larger than the true
	// minimum cross-shard latency violates causality; the violation is
	// caught at delivery time (scheduling into a shard's past panics).
	Lookahead Time

	// Workers bounds the goroutines executing shards within one round and
	// the goroutines a model's barrier hook may fan out to (Width gives
	// the effective value); <= 0 means GOMAXPROCS. Results are identical
	// at any worker count.
	Workers int

	barriers []func()
	roundEnd Time // window horizon for the round in flight
	errs     []error
}

// NewSharded returns a coordinator over `shards` fresh Simulations. Shard
// i's RNG is NewRNG(seed).Substream(i), so engine-internal randomness is
// reproducible; models wanting shard-count-invariant results must key
// their own substreams by stable entity IDs instead.
func NewSharded(seed uint64, shards int) *Sharded {
	if shards < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	root := NewRNG(seed)
	sims := make([]*Simulation, shards)
	for i := range sims {
		sims[i] = &Simulation{rng: root.Substream(uint64(i))}
	}
	return &Sharded{sims: sims, errs: make([]error, shards)}
}

// Shards returns the number of shards.
func (ss *Sharded) Shards() int { return len(ss.sims) }

// Shard returns the i-th shard's simulation. Shard-local model state (a
// shard's network, its event scheduling) hangs off this; during a round it
// must be touched only by the goroutine running that shard.
func (ss *Sharded) Shard(i int) *Simulation { return ss.sims[i] }

// OnBarrier registers fn to run between rounds, single-threaded, before
// the next window is chosen. Models drain their cross-shard outboxes here:
// at barrier time no shard goroutine is running, so a hook may touch every
// shard's queue. Hooks run in registration order; a hook that fans its
// work out uses at most Width goroutines.
func (ss *Sharded) OnBarrier(fn func()) { ss.barriers = append(ss.barriers, fn) }

// Width returns the number of goroutines a round runs on and a barrier
// hook may use: Workers (<= 0 meaning GOMAXPROCS), capped at the shard
// count. At width 1 both rounds and barriers run serially on the calling
// goroutine.
func (ss *Sharded) Width() int {
	w := ss.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(ss.sims) {
		w = len(ss.sims)
	}
	return w
}

// Fired returns the total events fired across all shards. For a fixed
// model this is shard-count-invariant: every hop, delivery and completion
// is exactly one event no matter which shard runs it.
func (ss *Sharded) Fired() uint64 {
	var n uint64
	for _, s := range ss.sims {
		n += s.fired
	}
	return n
}

// Pending returns the live events queued across all shards.
func (ss *Sharded) Pending() int {
	n := 0
	for _, s := range ss.sims {
		n += s.Pending()
	}
	return n
}

// Now returns the frontier clock — the furthest any shard has advanced.
// Between Run calls all shard clocks agree except shards idle past the
// last event, which lag at their final window edge.
func (ss *Sharded) Now() Time {
	var m Time
	for _, s := range ss.sims {
		if s.Now() > m {
			m = s.Now()
		}
	}
	return m
}

// SetEventLimit arms every shard's EventLimit with limit (0 disarms). The
// bound is per shard, so a zero-delay cross-shard event cycle — the
// parallel analogue of a single-engine event storm — still terminates
// with ErrEventLimit instead of spinning forever.
func (ss *Sharded) SetEventLimit(limit uint64) {
	for _, s := range ss.sims {
		s.EventLimit = limit
	}
}

// Run executes rounds until no shard holds an event with deadline <= until
// (events exactly at until still fire, matching Simulation.Run). It
// returns the frontier time. The first shard error (by shard index) aborts
// the run after its round completes.
func (ss *Sharded) Run(until Time) (Time, error) {
	n := len(ss.sims)
	workers := ss.Width()

	// Persistent round pool: workers pull shard indices for the round in
	// flight; the two channel hops per shard per round are the only
	// synchronization the parallel path pays. The channels are handed to
	// the workers as arguments, not captured: a by-reference capture would
	// move both variables to the heap at function entry, taxing even the
	// serial path (which must stay allocation-free) with two allocations
	// per Run call.
	var work chan int
	var done chan struct{}
	if workers > 1 {
		wch := make(chan int, n)
		dch := make(chan struct{}, n)
		work, done = wch, dch
		for w := 0; w < workers; w++ {
			go func(work chan int, done chan struct{}) {
				for i := range work {
					_, ss.errs[i] = ss.sims[i].Run(ss.roundEnd)
					done <- struct{}{}
				}
			}(wch, dch)
		}
		defer close(wch)
	}

	for {
		// Barrier: deliver cross-shard events generated last round, then
		// pick the next window from the post-delivery global minimum.
		for _, fn := range ss.barriers {
			fn()
		}
		base := MaxTime
		for _, s := range ss.sims {
			if t, ok := s.PeekTime(); ok && t < base {
				base = t
			}
		}
		if base == MaxTime || base > until {
			// Done inside the horizon. Mirror the single-engine contract:
			// clocks advance to until (never past a pending event).
			if until != MaxTime {
				for _, s := range ss.sims {
					s.AdvanceTo(until)
				}
			}
			return ss.Now(), nil
		}
		end := until
		if ss.Lookahead == 0 {
			// Zero lookahead (a zero-delay cross-shard link exists):
			// lockstep on the minimum time. Progress is still guaranteed —
			// at least the shard holding `base` fires — so same-latency
			// partitions are slow, never deadlocked.
			end = base
		} else if ss.Lookahead < MaxTime-base {
			if w := base + ss.Lookahead - 1; w < end {
				end = w
			}
		}
		if err := ss.round(end, work, done); err != nil {
			return ss.Now(), err
		}
	}
}

// RunAll executes rounds until every shard's queue is empty.
func (ss *Sharded) RunAll() (Time, error) { return ss.Run(MaxTime) }

// round runs every shard to the window horizon and reports the first
// error in shard order (deterministic regardless of which worker hit it).
func (ss *Sharded) round(end Time, work chan int, done chan struct{}) error {
	ss.roundEnd = end
	if work == nil {
		for i, s := range ss.sims {
			_, ss.errs[i] = s.Run(end)
		}
	} else {
		for i := range ss.sims {
			work <- i
		}
		for range ss.sims {
			<-done
		}
	}
	var first error
	for i, err := range ss.errs {
		if err != nil && first == nil {
			first = err
		}
		ss.errs[i] = nil
	}
	return first
}
