package driver

import (
	"fmt"
	"os"
	"slices"
	"syscall"

	"hps/internal/cluster"
)

// Broadcast attaches b and sends the first ring, one epoch above the shards'
// flag-derived one: it carries the address book, which is how the shards
// learn each other. Every later ring change goes through b as it happens.
func (s *Supervisor) Broadcast(b Broadcaster) {
	s.ringMu.Lock()
	s.bcast = &b
	s.ringMu.Unlock()
	s.change(func(cur *cluster.Ring) (*cluster.Ring, error) { return cur.WithEpoch(cur.Epoch() + 1), nil })
}

// Join spawns one fresh shard, teaches every follower its address, then
// broadcasts the Join ring — in that order, so whoever routes to the joiner
// reaches it; the joiner's key ranges stream in from their previous owners.
func (s *Supervisor) Join() error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil
	}
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	p, err := s.launch(id, false, append(slices.Clone(s.members()), id))
	if err != nil {
		return fmt.Errorf("spawn joining shard %d: %w", id, err)
	}
	if p == nil {
		return nil
	}
	next, _ := s.change(func(cur *cluster.Ring) (*cluster.Ring, error) { return cur.Join(id), nil })
	s.wg.Add(1)
	go s.supervise(id)
	fmt.Printf("shard %d joined: pid %d at %s (ring epoch %d)\n", id, p.Pid(), p.Addr(), next.Epoch())
	return nil
}

// Retire removes the highest-id ring member: it broadcasts the Leave ring —
// the leaver hands off every row it holds — and shuts the process down after
// a grace period for the handoff. The shard counts as retired from before the
// broadcast, so its exit during the grace is neither restarted nor promoted.
func (s *Supervisor) Retire() error {
	id := -1
	_, err := s.change(func(cur *cluster.Ring) (*cluster.Ring, error) {
		if n := len(cur.Members()); n < 2 {
			return nil, fmt.Errorf("cannot remove a shard: %d ring member(s) left", n)
		}
		id = slices.Max(cur.Members())
		s.mu.Lock()
		s.removed[id] = true
		s.mu.Unlock()
		fmt.Printf("shard %d leaving the ring (epoch %d -> %d)\n", id, cur.Epoch(), cur.Epoch()+1)
		return cur.Leave(id), nil
	})
	if err != nil {
		return err
	}
	// Killing the leaver under its rate-limited handoff would lose what had
	// not streamed out yet (with R=1 nobody else holds those rows).
	<-s.cfg.Clock.After(leaveGrace)
	s.mu.Lock()
	p := s.procs[id]
	delete(s.procs, id)
	s.mu.Unlock()
	if p != nil {
		s.shutdown(syscall.SIGTERM, p)
	}
	fmt.Printf("shard %d left and shut down\n", id)
	return nil
}

// change builds the next ring from the last one with step and broadcasts it,
// all under ringMu: overlapping changes come out at consecutive epochs, not
// both at one epoch whose second comer every receiver drops as a re-send.
// Before Broadcast attaches a broadcaster the ring only advances locally.
func (s *Supervisor) change(step func(cur *cluster.Ring) (*cluster.Ring, error)) (*cluster.Ring, error) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	cur := s.ring.Load()
	next, err := step(cur)
	if err != nil {
		return nil, err
	}
	if s.bcast != nil {
		s.broadcast(cur, next)
	}
	s.ring.Store(next)
	return next, nil
}

// broadcast sends next to the union of old and new members — so a leaver
// receives the ring that starts its handoff — and only then to the trainer:
// the shards must accept forwards and transfers for the new ring before the
// trainer (and the loadgen, through its membership view) repoints.
func (s *Supervisor) broadcast(cur, next *cluster.Ring) {
	u := cluster.MembershipUpdate{Epoch: next.Epoch(), Members: next.Members(), Replicas: s.cfg.Replicas, Addrs: s.Addrs()}
	targets := slices.Clone(cur.Members())
	for _, id := range next.Members() {
		if !slices.Contains(targets, id) {
			targets = append(targets, id)
		}
	}
	for _, id := range targets {
		if err := s.bcast.Shard(id, u); err != nil {
			fmt.Fprintf(os.Stderr, "driver: membership epoch %d to shard %d: %v\n", u.Epoch, id, err)
		}
	}
	if err := s.bcast.Trainer(u); err != nil {
		fmt.Fprintf(os.Stderr, "driver: membership epoch %d to trainer: %v\n", u.Epoch, err)
	}
}
