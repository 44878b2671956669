package driver

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/cluster"
)

const (
	backoffBase = 250 * time.Millisecond // before the second restart in a window; doubles after
	backoffCap  = 5 * time.Second
	leaveGrace  = 3 * time.Second  // a retiring shard's handoff time before SIGTERM
	killAfter   = 10 * time.Second // a signalled shard's time to flush before SIGKILL
)

// Config sets up a Supervisor. Shards are the initial shards, ids
// 0..Shards-1, each with a state directory Root/shard-<id>; the first ring
// holds them at epoch 0. A shard restarts at most RestartMax times within
// RestartWindow. Abort is called once an unreplicated shard is lost for good.
type Config struct {
	Spawn         Spawner
	Shards        int
	Root          string
	Replicas      int
	RestartMax    int
	RestartWindow time.Duration
	Clock         Clock
	Abort         func()
}

// Supervisor owns the shard slots and the ring. When a shard dies:
//
//   - replicated ring (R>1): the backups hold every acked delta, so the
//     shard is retired and its backups promoted by a Leave broadcast.
//     Restoring its stale disk instead would be unsound: transfers skip
//     present keys, so restored rows would shadow the backups' fresher ones.
//   - unreplicated: the shard restarts over its directory with -restore
//     (SSD-PS recovery plus the replayed push-dedup log) under the restart
//     budget; exhausting the budget is a permanent, typed loss.
type Supervisor struct {
	cfg Config

	// ringMu serializes ring changes: each one is built from ring, the last
	// ring built, and broadcast before the next one starts.
	ringMu sync.Mutex
	ring   atomic.Pointer[cluster.Ring]
	bcast  *Broadcaster

	mu       sync.Mutex
	procs    map[int]Proc
	removed  map[int]bool
	budget   restartBudget
	losses   []*ShardLossError
	nextID   int
	stopping bool
	follow   []func(shard int, addr string)
	wg       sync.WaitGroup
}

// New returns a supervisor over cfg; Start spawns the shards.
func New(cfg Config) *Supervisor {
	if cfg.Clock.Now == nil {
		cfg.Clock = Clock{Now: time.Now, After: time.After}
	}
	s := &Supervisor{
		cfg:     cfg,
		procs:   map[int]Proc{},
		removed: map[int]bool{},
		budget:  restartBudget{max: cfg.RestartMax, window: cfg.RestartWindow, hist: map[int][]time.Time{}},
		nextID:  cfg.Shards,
	}
	s.ring.Store(cluster.NewRing(cluster.Topology{Nodes: cfg.Shards}.MemberIDs()))
	return s
}

// Start spawns every initial shard and begins supervising them.
func (s *Supervisor) Start(restore bool) error {
	for i := 0; i < s.cfg.Shards; i++ {
		p, err := s.launch(i, restore, s.members())
		if err != nil {
			return err
		}
		fmt.Printf("shard %d up: pid %d at %s\n", i, p.Pid(), p.Addr())
		s.wg.Add(1)
		go s.supervise(i)
	}
	return nil
}

// Follow registers f to learn every shard address change (restarts and
// joins), so a transport can be repointed.
func (s *Supervisor) Follow(f func(shard int, addr string)) {
	s.mu.Lock()
	s.follow = append(s.follow, f)
	s.mu.Unlock()
}

// Addrs returns the live shards' addresses.
func (s *Supervisor) Addrs() map[int]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]string, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.Addr()
	}
	return out
}

// Dirs returns the initial shards' state directories (a checkpoint's shard
// map); shards joined mid-run hold only re-replicated state.
func (s *Supervisor) Dirs() map[int]string {
	out := make(map[int]string, s.cfg.Shards)
	for i := 0; i < s.cfg.Shards; i++ {
		out[i] = s.dir(i)
	}
	return out
}

// FatalLoss returns the first loss of a shard whose keys nobody else holds,
// or nil. Promotions are survivable; this is not.
func (s *Supervisor) FatalLoss() *ShardLossError {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.losses {
		if !e.Promoted {
			return e
		}
	}
	return nil
}

// PrintLosses lists the permanent shard losses in the run report.
func (s *Supervisor) PrintLosses() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.losses) > 0 {
		fmt.Printf("\n-- permanent shard losses --\n")
	}
	for _, e := range s.losses {
		fmt.Printf("  %s\n", e.Error())
	}
}

// Stop asks every shard to shut down cleanly (flush to SSD-PS, sync the seq
// log), kills stragglers, and waits for supervision to wind down.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopping = true
	procs := slices.Collect(maps.Values(s.procs))
	s.mu.Unlock()
	s.shutdown(os.Interrupt, procs...)
	s.wg.Wait()
}

func (s *Supervisor) dir(id int) string {
	return filepath.Join(s.cfg.Root, fmt.Sprintf("shard-%d", id))
}

// members is the last ring's member list.
func (s *Supervisor) members() []int { return s.ring.Load().Members() }

// launch spawns shard id, fills its slot and repoints every follower at its
// address — in that order, so whatever routes to the shard can reach it. If
// Stop won the race it shuts the process down again and returns a nil Proc.
func (s *Supervisor) launch(id int, restore bool, members []int) (Proc, error) {
	p, err := s.cfg.Spawn(ShardArgs{ID: id, Shards: max(id+1, s.cfg.Shards), Dir: s.dir(id),
		Restore: restore, Members: members, Replicas: s.cfg.Replicas})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	stopping := s.stopping
	if !stopping {
		s.procs[id] = p
	}
	follow := slices.Clone(s.follow)
	s.mu.Unlock()
	if stopping {
		s.shutdown(os.Interrupt, p)
		return nil, nil
	}
	for _, f := range follow {
		f(id, p.Addr())
	}
	return p, nil
}

// supervise watches shard id's slot until the supervisor stops or the shard
// is retired or lost for good, applying the Supervisor's failure policies.
func (s *Supervisor) supervise(id int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		p := s.procs[id]
		s.mu.Unlock()
		if p == nil {
			return
		}
		<-p.Done()
		s.mu.Lock()
		stop := s.stopping || s.removed[id]
		if s.removed[id] {
			delete(s.procs, id) // a retiring shard that exits is done, not dead
		}
		s.mu.Unlock()
		if stop {
			return
		}

		if s.cfg.Replicas > 1 && len(s.members()) > 1 {
			fmt.Printf("shard %d died (%v); promoting its backups instead of restoring\n", id, p.Exit())
			s.mu.Lock()
			delete(s.procs, id)
			s.mu.Unlock()
			s.lose(&ShardLossError{Shard: id, Promoted: true})
			s.change(func(cur *cluster.Ring) (*cluster.Ring, error) { return cur.Leave(id), nil })
			return
		}

		s.mu.Lock()
		delay, restarts, ok := s.budget.next(id, s.cfg.Clock.Now())
		s.mu.Unlock()
		var np Proc
		var err error
		if ok {
			if delay > 0 {
				fmt.Printf("shard %d died (%v); restart %d/%d after %v backoff\n", id, p.Exit(), restarts, s.budget.max, delay)
			} else {
				fmt.Printf("shard %d died (%v); restarting with -restore\n", id, p.Exit())
			}
			<-s.cfg.Clock.After(delay)
			if np, err = s.launch(id, true, s.members()); err != nil {
				fmt.Fprintf(os.Stderr, "driver: restart shard %d: %v\n", id, err)
			}
		}
		if !ok || err != nil {
			s.lose(&ShardLossError{Shard: id, Restarts: restarts})
			return
		}
		if np == nil {
			return
		}
		// Re-teach the restarted shard the ring and the address book: it
		// boots at membership epoch 0 from its flags.
		s.change(func(cur *cluster.Ring) (*cluster.Ring, error) { return cur, nil })
		fmt.Printf("shard %d restarted: pid %d at %s\n", id, np.Pid(), np.Addr())
	}
}

// lose records a permanent shard loss; losing a shard nobody else holds
// aborts the run.
func (s *Supervisor) lose(e *ShardLossError) {
	s.mu.Lock()
	s.losses = append(s.losses, e)
	s.mu.Unlock()
	if !e.Promoted {
		fmt.Fprintf(os.Stderr, "driver: %v\n", e)
		if s.cfg.Abort != nil {
			s.cfg.Abort()
		}
	}
}

// shutdown signals every process and waits for them to exit, killing those
// still running killAfter later.
func (s *Supervisor) shutdown(sig os.Signal, procs ...Proc) {
	for _, p := range procs {
		p.Signal(sig)
	}
	expired := s.cfg.Clock.After(killAfter)
	for _, p := range procs {
		select {
		case <-p.Done():
		case <-expired:
			past := make(chan time.Time)
			close(past)
			expired = past // the rest are past the deadline too
			p.Kill()
			<-p.Done()
		}
	}
}
