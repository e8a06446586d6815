package sim

import (
	"runtime"
	"strings"
	"testing"
)

func TestPeekTime(t *testing.T) {
	s := New(1)
	if _, ok := s.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported an event")
	}
	s.AfterFunc(5*Millisecond, func(Time) {})
	s.AfterFunc(2*Millisecond, func(Time) {})
	if at, ok := s.PeekTime(); !ok || at != 2*Millisecond {
		t.Fatalf("PeekTime = %v, %v; want 2ms, true", at, ok)
	}
	// Lazily-cancelled head events must not be reported.
	h := s.At(1*Millisecond, EventFunc(func(Time) {}))
	s.Cancel(h)
	if at, _ := s.PeekTime(); at != 2*Millisecond {
		t.Fatalf("PeekTime saw cancelled event: %v", at)
	}
}

func TestAdvanceTo(t *testing.T) {
	s := New(1)
	s.AdvanceTo(3 * Millisecond)
	if s.Now() != 3*Millisecond {
		t.Fatalf("Now = %v after AdvanceTo(3ms)", s.Now())
	}
	s.AdvanceTo(1 * Millisecond) // backwards: no-op
	if s.Now() != 3*Millisecond {
		t.Fatalf("AdvanceTo moved the clock backwards to %v", s.Now())
	}
	s.AfterFunc(Millisecond, func(Time) {})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("AdvanceTo past a pending event did not panic")
		}
	}()
	s.AdvanceTo(10 * Millisecond)
}

// relayMsg is one in-flight token of the test model: deliver at `at`,
// then keep relaying for `ttl` more hops.
type relayMsg struct {
	at  Time
	ttl int
}

// shardedHarness is a minimal sharded model obeying the same discipline as
// the real network: each shard writes only its own outbox row during a
// round (so rounds stay lock-free), the barrier drains rows in fixed
// (destination, source) order, and every delivery is recorded on the
// destination shard's own trace. Messages are stamped now+delay, so
// Lookahead <= delay satisfies the conservative contract.
type shardedHarness struct {
	ss     *Sharded
	delay  Time
	outbox [][][]relayMsg // [src][dst] -> pending messages
	traces [][]Time       // per-shard delivery times, in firing order
}

func newShardedHarness(ss *Sharded, delay Time) *shardedHarness {
	n := ss.Shards()
	h := &shardedHarness{ss: ss, delay: delay, traces: make([][]Time, n)}
	h.outbox = make([][][]relayMsg, n)
	for i := range h.outbox {
		h.outbox[i] = make([][]relayMsg, n)
	}
	ss.OnBarrier(h.drain)
	return h
}

func (h *shardedHarness) send(from int, now Time, ttl int) {
	dst := (from + 1) % h.ss.Shards()
	h.outbox[from][dst] = append(h.outbox[from][dst], relayMsg{at: now + h.delay, ttl: ttl})
}

func (h *shardedHarness) drain() {
	for dst := range h.outbox {
		dst := dst
		for src := range h.outbox {
			for _, m := range h.outbox[src][dst] {
				m := m
				h.ss.Shard(dst).At(m.at, EventFunc(func(now Time) {
					h.traces[dst] = append(h.traces[dst], now)
					if m.ttl > 0 {
						h.send(dst, now, m.ttl-1)
					}
				}))
			}
			h.outbox[src][dst] = h.outbox[src][dst][:0]
		}
	}
}

func (h *shardedHarness) deliveries() int {
	n := 0
	for _, tr := range h.traces {
		n += len(tr)
	}
	return n
}

func TestShardedCrossShardRelay(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ss := NewSharded(1, 2)
		ss.Workers = workers
		ss.Lookahead = 5 * Millisecond
		h := newShardedHarness(ss, 5*Millisecond)
		ss.Shard(0).At(0, EventFunc(func(now Time) { h.send(0, now, 9) }))
		if _, err := ss.RunAll(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if h.deliveries() != 10 {
			t.Fatalf("workers=%d: %d deliveries, want 10", workers, h.deliveries())
		}
		// Kickoff event + 10 relay deliveries, regardless of worker count.
		if ss.Fired() != 11 {
			t.Fatalf("workers=%d: Fired = %d, want 11", workers, ss.Fired())
		}
		// The 10th hop lands on shard 0 (even hops return home) at 50ms.
		if tr := h.traces[0]; tr[len(tr)-1] != 10*5*Millisecond {
			t.Fatalf("workers=%d: last delivery at %v, want 50ms", workers, tr[len(tr)-1])
		}
	}
}

func TestShardedZeroLookaheadProgress(t *testing.T) {
	// Lookahead 0 is the conservative fallback: lockstep rounds on the
	// global minimum. The relay must still complete — slowly, never stuck.
	ss := NewSharded(1, 3)
	h := newShardedHarness(ss, Millisecond)
	ss.Shard(0).At(0, EventFunc(func(now Time) { h.send(0, now, 24) }))
	if _, err := ss.RunAll(); err != nil {
		t.Fatal(err)
	}
	if h.deliveries() != 25 {
		t.Fatalf("%d deliveries, want 25", h.deliveries())
	}
}

func TestShardedZeroDelayCycleHitsEventLimit(t *testing.T) {
	// A zero-delay cross-shard cycle can never advance time; the per-shard
	// event limit must stop it with ErrEventLimit rather than spin.
	ss := NewSharded(1, 2)
	h := newShardedHarness(ss, 0)
	ss.SetEventLimit(100)
	ss.Shard(0).At(0, EventFunc(func(now Time) { h.send(0, now, 1<<30) }))
	_, err := ss.RunAll()
	if !IsEventLimit(err) {
		t.Fatalf("err = %v, want event-limit", err)
	}
}

func TestShardedPerShardError(t *testing.T) {
	ss := NewSharded(1, 4)
	ss.Lookahead = Millisecond
	for i := 0; i < 4; i++ {
		ss.Shard(i).At(Millisecond, EventFunc(func(Time) {}))
	}
	ss.Shard(1).EventLimit = 1
	ss.Shard(1).At(2*Millisecond, EventFunc(func(Time) {}))
	_, err := ss.RunAll()
	if !IsEventLimit(err) {
		t.Fatalf("err = %v, want shard 1's event-limit", err)
	}
}

func TestShardedRunAdvancesIdleClocks(t *testing.T) {
	ss := NewSharded(1, 2)
	ss.Lookahead = Millisecond
	ss.Shard(0).At(Millisecond, EventFunc(func(Time) {}))
	until := 50 * Millisecond
	if _, err := ss.Run(until); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if now := ss.Shard(i).Now(); now != until {
			t.Fatalf("shard %d clock = %v, want %v (single-engine Run contract)", i, now, until)
		}
	}
}

func TestShardedDeterminism(t *testing.T) {
	run := func(workers int) [][]Time {
		ss := NewSharded(7, 3)
		ss.Workers = workers
		ss.Lookahead = 2 * Millisecond
		h := newShardedHarness(ss, 2*Millisecond)
		// Two concurrent relay tokens plus shard-local chatter.
		ss.Shard(0).At(0, EventFunc(func(now Time) { h.send(0, now, 19) }))
		ss.Shard(1).At(Millisecond, EventFunc(func(now Time) { h.send(1, now, 19) }))
		for i := 0; i < 3; i++ {
			ss.Shard(i).AfterFunc(500*Microsecond, func(Time) {})
		}
		if _, err := ss.RunAll(); err != nil {
			t.Fatal(err)
		}
		return h.traces
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for s := range got {
			if len(got[s]) != len(base[s]) {
				t.Fatalf("workers=%d shard %d: %d deliveries vs %d", workers, s, len(got[s]), len(base[s]))
			}
			for i := range got[s] {
				if got[s][i] != base[s][i] {
					t.Fatalf("workers=%d shard %d: delivery %d at %v, want %v", workers, s, i, got[s][i], base[s][i])
				}
			}
		}
	}
}

// TestShardedWidth pins the one rule rounds and barrier hooks share:
// Workers, with <= 0 meaning GOMAXPROCS, capped at the shard count.
func TestShardedWidth(t *testing.T) {
	ss := NewSharded(1, 4)
	for _, c := range []struct{ workers, want int }{
		{1, 1}, {3, 3}, {4, 4}, {9, 4},
		{0, min(runtime.GOMAXPROCS(0), 4)}, {-1, min(runtime.GOMAXPROCS(0), 4)},
	} {
		ss.Workers = c.workers
		if got := ss.Width(); got != c.want {
			t.Errorf("Workers=%d: Width() = %d, want %d", c.workers, got, c.want)
		}
	}
}

func TestShardedLookaheadViolationPanics(t *testing.T) {
	// Claiming a window wider than the true cross-shard latency is a
	// contract violation; it must be caught (At into the past panics), not
	// silently reorder events.
	ss := NewSharded(1, 2)
	ss.Lookahead = 100 * Millisecond // model's real latency is 1ms
	h := newShardedHarness(ss, Millisecond)
	ss.Shard(0).At(0, EventFunc(func(now Time) { h.send(0, now, 9) }))
	// Give the victim shard work deep inside the (bogus) window so its
	// clock outruns the late delivery.
	ss.Shard(1).At(50*Millisecond, EventFunc(func(Time) {}))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("late cross-shard delivery did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "before now") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	_, _ = ss.RunAll()
}
