package driver

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hps/internal/cluster"
)

// fakeClock is a virtual clock: After(0) fires at once, every other timer
// fires when Advance moves the clock past it. Every After call is recorded,
// so a test can read the waits the supervisor asked for, in order.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []fakeTimer
	asked  []time.Duration
	read   int
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.asked = append(c.asked, d)
	if d <= 0 {
		ch <- c.now
	} else {
		c.timers = append(c.timers, fakeTimer{at: c.now.Add(d), ch: ch})
	}
	return ch
}

// Advance moves the clock by d and fires every timer now due.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.timers = slices.DeleteFunc(c.timers, func(tm fakeTimer) bool {
		if tm.at.After(c.now) {
			return false
		}
		tm.ch <- c.now
		return true
	})
}

// nextWait returns the next wait the supervisor asked for, waiting for it.
func (c *fakeClock) nextWait(t *testing.T) time.Duration {
	t.Helper()
	var d time.Duration
	waitFor(t, "a clock wait", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.read == len(c.asked) {
			return false
		}
		d = c.asked[c.read]
		c.read++
		return true
	})
	return d
}

// fakeProc is a shard process that exits on any signal but a SIGTERM its
// harness marks it stubborn to, and on Kill.
type fakeProc struct {
	h        *harness
	addr     string
	pid      int
	stubborn bool
	done     chan struct{}
	once     sync.Once
}

func (p *fakeProc) Addr() string          { return p.addr }
func (p *fakeProc) Pid() int              { return p.pid }
func (p *fakeProc) Done() <-chan struct{} { return p.done }
func (p *fakeProc) Exit() string          { return "signal: killed" }
func (p *fakeProc) exit()                 { p.once.Do(func() { close(p.done) }) }

func (p *fakeProc) Signal(sig os.Signal) {
	p.h.note("signal %s %v", p.addr, sig)
	if !(p.stubborn && sig == syscall.SIGTERM) {
		p.exit()
	}
}

func (p *fakeProc) Kill() {
	p.h.note("kill %s", p.addr)
	p.exit()
}

// harness runs a Supervisor over a fake Spawner, Broadcaster and clock, and
// logs every process, repoint and broadcast event in order.
type harness struct {
	t     *testing.T
	s     *Supervisor
	clock *fakeClock

	mu       sync.Mutex
	log      []string
	procs    map[int][]*fakeProc // every incarnation of each shard id
	spawns   []ShardArgs
	stubborn map[int]bool
	aborted  int

	beforeSpawn func(a ShardArgs)                        // runs at each spawn, unlocked
	beforeShard func(id int, u cluster.MembershipUpdate) // runs at each shard broadcast, unlocked
}

// newHarness supervises shards shards with replication factor replicas.
func newHarness(t *testing.T, shards, replicas int) *harness {
	h := &harness{t: t, clock: &fakeClock{now: time.Unix(0, 0)}, procs: map[int][]*fakeProc{}, stubborn: map[int]bool{}}
	cfg := Config{
		Spawn: h.spawn, Shards: shards, Root: "root", Replicas: replicas,
		RestartMax: 3, RestartWindow: time.Minute,
		Clock: Clock{Now: h.clock.Now, After: h.clock.After},
		Abort: func() { h.mu.Lock(); h.aborted++; h.mu.Unlock() },
	}
	h.s = New(cfg)
	return h
}

func (h *harness) note(format string, args ...any) {
	h.mu.Lock()
	h.log = append(h.log, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func (h *harness) spawn(a ShardArgs) (Proc, error) {
	if h.beforeSpawn != nil {
		h.beforeSpawn(a)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p := &fakeProc{h: h, addr: fmt.Sprintf("s%d.%d", a.ID, len(h.procs[a.ID])), pid: 100 + len(h.spawns),
		stubborn: h.stubborn[a.ID], done: make(chan struct{})}
	h.procs[a.ID] = append(h.procs[a.ID], p)
	h.spawns = append(h.spawns, a)
	h.log = append(h.log, fmt.Sprintf("spawn %s restore=%v members=%v", p.addr, a.Restore, a.Members))
	return p, nil
}

// attach registers two followers and the broadcaster, which sends epoch 1.
func (h *harness) attach() {
	for _, name := range []string{"trainer", "ctl"} {
		h.s.Follow(func(id int, addr string) { h.note("repoint %s %d %s", name, id, addr) })
	}
	h.s.Broadcast(Broadcaster{
		Shard: func(id int, u cluster.MembershipUpdate) error {
			if h.beforeShard != nil {
				h.beforeShard(id, u)
			}
			h.note("shard %d epoch %d", id, u.Epoch)
			return nil
		},
		Trainer: func(u cluster.MembershipUpdate) error {
			h.note("trainer epoch %d members %v", u.Epoch, u.Members)
			return nil
		},
	})
}

// latest returns the newest incarnation of shard id.
func (h *harness) latest(id int) *fakeProc {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.procs[id]
	return ps[len(ps)-1]
}

func (h *harness) snapshot() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.log)
}

// index returns the position of the first logged event starting with prefix,
// or -1.
func (h *harness) index(prefix string) int {
	return slices.IndexFunc(h.snapshot(), func(e string) bool { return strings.HasPrefix(e, prefix) })
}

// waitLog waits until an event starting with prefix is logged.
func (h *harness) waitLog(prefix string) {
	h.t.Helper()
	waitFor(h.t, prefix, func() bool { return h.index(prefix) >= 0 })
}

// trainerUpdates lists the trainer broadcasts so far.
func (h *harness) trainerUpdates() []string {
	var out []string
	for _, e := range h.snapshot() {
		if strings.HasPrefix(e, "trainer ") {
			out = append(out, e)
		}
	}
	return out
}

// waitFor spins until cond holds; the deadline only turns a hang into a
// failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestRestartBudgetBacksOffThenLosesTheShard(t *testing.T) {
	h := newHarness(t, 1, 1)
	if err := h.s.Start(false); err != nil {
		t.Fatal(err)
	}
	for i, want := range []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond} {
		h.latest(0).exit()
		if got := h.clock.nextWait(t); got != want {
			t.Fatalf("restart %d waited %v, want %v", i+1, got, want)
		}
		h.clock.Advance(want)
		h.waitLog(fmt.Sprintf("spawn s0.%d", i+1))
	}
	h.latest(0).exit()
	waitFor(t, "the abort", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.aborted > 0
	})

	var loss *ShardLossError
	if !errors.As(error(h.s.FatalLoss()), &loss) || *loss != (ShardLossError{Shard: 0, Restarts: 3}) {
		t.Fatalf("loss = %+v, want shard 0 after 3 restarts", loss)
	}
	h.mu.Lock()
	spawns, aborted := slices.Clone(h.spawns), h.aborted
	h.mu.Unlock()
	if aborted != 1 {
		t.Fatalf("abort called %d times, want 1", aborted)
	}
	if len(spawns) != 4 || spawns[0].Restore {
		t.Fatalf("spawns = %+v, want a fresh start and 3 restarts", spawns)
	}
	for _, a := range spawns[1:] {
		if !a.Restore || a.Dir != spawns[0].Dir || !slices.Equal(a.Members, []int{0}) {
			t.Fatalf("restart spawned %+v, want -restore over %s in ring [0]", a, spawns[0].Dir)
		}
	}
	h.s.Stop()
}

func TestPromotionSendsLeaveToOldAndNewMembersShardsFirst(t *testing.T) {
	h := newHarness(t, 3, 2)
	if err := h.s.Start(false); err != nil {
		t.Fatal(err)
	}
	h.attach()
	h.latest(1).exit()
	h.waitLog("trainer epoch 2")

	trainerAt := h.index("trainer epoch 2 members [0 2]")
	if trainerAt < 0 {
		t.Fatalf("trainer never got the Leave ring: %q", h.snapshot())
	}
	for _, id := range []int{0, 1, 2} {
		if at := h.index(fmt.Sprintf("shard %d epoch 2", id)); at < 0 || at > trainerAt {
			t.Fatalf("shard %d got the Leave ring at %d, trainer at %d: %q", id, at, trainerAt, h.snapshot())
		}
	}
	if e := h.s.FatalLoss(); e != nil {
		t.Fatalf("promotion reported a fatal loss %v", e)
	}
	if _, ok := h.s.Addrs()[1]; ok {
		t.Fatal("the dead primary still has a slot")
	}
	h.s.Stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.spawns) != 3 || h.aborted != 0 {
		t.Fatalf("promotion respawned (%d spawns) or aborted (%d)", len(h.spawns), h.aborted)
	}
	if len(h.s.losses) != 1 || *h.s.losses[0] != (ShardLossError{Shard: 1, Promoted: true}) {
		t.Fatalf("losses = %v, want shard 1 promoted", h.s.losses)
	}
}

func TestJoinRepointsEverywhereBeforeTheJoinBroadcast(t *testing.T) {
	h := newHarness(t, 2, 1)
	if err := h.s.Start(false); err != nil {
		t.Fatal(err)
	}
	h.attach()
	if err := h.s.Join(); err != nil {
		t.Fatal(err)
	}
	first := h.index("shard 0 epoch 2")
	for _, e := range []string{"repoint trainer 2 s2.0", "repoint ctl 2 s2.0"} {
		if at := h.index(e); at < 0 || at > first {
			t.Fatalf("%q at %d, Join broadcast at %d: %q", e, at, first, h.snapshot())
		}
	}
	if h.index("shard 2 epoch 2") < 0 || h.index("trainer epoch 2 members [0 1 2]") < 0 {
		t.Fatalf("Join ring did not reach the joiner and the trainer: %q", h.snapshot())
	}
	h.mu.Lock()
	joiner := h.spawns[2]
	h.mu.Unlock()
	if joiner.ID != 2 || joiner.Shards != 3 || joiner.Restore || !slices.Equal(joiner.Members, []int{0, 1, 2}) {
		t.Fatalf("joiner spawned with %+v", joiner)
	}
	h.s.Stop()
}

func TestLeaveGoesOutBeforeSIGTERMAndKillFollowsTheTimeout(t *testing.T) {
	h := newHarness(t, 3, 1)
	h.stubborn[2] = true
	if err := h.s.Start(false); err != nil {
		t.Fatal(err)
	}
	h.attach()
	retired := make(chan error, 1)
	go func() { retired <- h.s.Retire() }()

	if d := h.clock.nextWait(t); d != leaveGrace {
		t.Fatalf("first wait %v, want the %v handoff grace", d, leaveGrace)
	}
	if h.index("trainer epoch 2 members [0 1]") < 0 || h.index("signal") >= 0 {
		t.Fatalf("the Leave ring must be out before any signal: %q", h.snapshot())
	}
	h.clock.Advance(leaveGrace)
	h.waitLog("signal s2.0 terminated")
	if d := h.clock.nextWait(t); d != killAfter {
		t.Fatalf("wait after SIGTERM %v, want %v", d, killAfter)
	}
	if h.index("kill") >= 0 {
		t.Fatal("killed before the timeout")
	}
	h.clock.Advance(killAfter)
	if err := <-retired; err != nil {
		t.Fatal(err)
	}
	if h.index("kill s2.0") < h.index("signal s2.0 terminated") {
		t.Fatalf("kill must follow SIGTERM: %q", h.snapshot())
	}
	if _, ok := h.s.Addrs()[2]; ok {
		t.Fatal("the retired shard still has a slot")
	}
	h.s.Stop()
}

func TestStopRacesARestart(t *testing.T) {
	h := newHarness(t, 1, 1)
	if err := h.s.Start(false); err != nil {
		t.Fatal(err)
	}
	h.s.Follow(func(id int, addr string) { h.note("repoint %d %s", id, addr) })
	release := make(chan struct{})
	h.beforeSpawn = func(a ShardArgs) {
		if a.Restore {
			h.note("restart spawning")
			<-release
		}
	}
	h.latest(0).exit()
	h.waitLog("restart spawning")

	stopped := make(chan struct{})
	go func() { h.s.Stop(); close(stopped) }()
	h.waitLog("signal s0.0 interrupt") // Stop has begun
	close(release)
	<-stopped

	if h.index("signal s0.1 interrupt") < 0 {
		t.Fatalf("the shard restarted under Stop was not shut down: %q", h.snapshot())
	}
	if h.index("repoint 0 s0.1") >= 0 {
		t.Fatal("followers were repointed at a shard started under Stop")
	}
	if len(h.s.Addrs()) != 1 || h.s.FatalLoss() != nil {
		t.Fatalf("addrs %v, loss %v after Stop", h.s.Addrs(), h.s.FatalLoss())
	}
}

// Two ring changes that overlap — a promotion whose broadcast is in flight
// and a join — must come out at consecutive epochs: receivers drop a second
// ring at an epoch they have seen.
func TestOverlappingRingChangesGetConsecutiveEpochs(t *testing.T) {
	h := newHarness(t, 3, 2)
	if err := h.s.Start(false); err != nil {
		t.Fatal(err)
	}
	h.attach()
	release := make(chan struct{})
	var gate sync.Once
	h.beforeShard = func(id int, u cluster.MembershipUpdate) {
		if u.Epoch == 2 {
			gate.Do(func() {
				h.note("promotion broadcasting")
				<-release
			})
		}
	}
	h.latest(1).exit()
	h.waitLog("promotion broadcasting")

	joined := make(chan error, 1)
	go func() { joined <- h.s.Join() }()
	h.waitLog("repoint ctl 3 s3.0")
	close(release)
	if err := <-joined; err != nil { // both broadcasts are done
		t.Fatal(err)
	}

	want := []string{"trainer epoch 1 members [0 1 2]", "trainer epoch 2 members [0 2]", "trainer epoch 3 members [0 2 3]"}
	if got := h.trainerUpdates(); !slices.Equal(got, want) {
		t.Fatalf("trainer saw %q, want %q", got, want)
	}
	if r := h.s.ring.Load(); r.Epoch() != 3 || !slices.Equal(r.Members(), []int{0, 2, 3}) {
		t.Fatalf("final ring epoch %d members %v, want 3 [0 2 3]", r.Epoch(), r.Members())
	}
	h.s.Stop()
}

// A retiring shard that exits during its handoff grace is done: it is
// neither restarted nor promoted, and its slot stays empty.
func TestRetiringShardThatExitsInItsGraceStaysDown(t *testing.T) {
	h := newHarness(t, 3, 1)
	if err := h.s.Start(false); err != nil {
		t.Fatal(err)
	}
	h.attach()
	retired := make(chan error, 1)
	go func() { retired <- h.s.Retire() }()
	if d := h.clock.nextWait(t); d != leaveGrace {
		t.Fatalf("first wait %v, want the %v handoff grace", d, leaveGrace)
	}

	h.latest(2).exit()
	waitFor(t, "the leaver's exit to be handled", func() bool {
		h.mu.Lock()
		respawned := len(h.spawns) > 3
		h.mu.Unlock()
		_, held := h.s.Addrs()[2]
		return respawned || !held
	})
	h.clock.Advance(leaveGrace)
	if err := <-retired; err != nil {
		t.Fatal(err)
	}
	h.s.Stop()

	h.mu.Lock()
	spawns := len(h.spawns)
	h.mu.Unlock()
	if spawns != 3 {
		t.Fatalf("the leaver was respawned: %q", h.snapshot())
	}
	want := []string{"trainer epoch 1 members [0 1 2]", "trainer epoch 2 members [0 1]"}
	if got := h.trainerUpdates(); !slices.Equal(got, want) {
		t.Fatalf("trainer saw %q, want only the one Leave: %q", got, want)
	}
	if _, ok := h.s.Addrs()[2]; ok {
		t.Fatal("the leaver's slot is not empty")
	}
}
