// Package driver supervises the shard processes of a multi-process run and
// owns their ring: it spawns the shards, restarts a dead one under a restart
// budget or promotes its backups, and joins and retires shards while the
// trainer runs. It reaches processes, the membership broadcast and time only
// through the seams in this file, so tests drive every policy with fakes.
package driver

import (
	"fmt"
	"os"
	"time"

	"hps/internal/cluster"
)

// Proc is one running shard process, as a Spawner started it: the address
// from its ready line, its pid, a channel closed once it has exited and been
// reaped, how it exited (valid after that), and signal and kill.
type Proc interface {
	Addr() string
	Pid() int
	Done() <-chan struct{}
	Exit() string
	Signal(sig os.Signal)
	Kill()
}

// ShardArgs is what a Spawner needs to start one shard: its id, the shard
// count its topology covers, its state directory, whether to recover that
// state first, and the ring members and replication factor it boots with.
type ShardArgs struct {
	ID, Shards int
	Dir        string
	Restore    bool
	Members    []int
	Replicas   int
}

// Spawner starts one shard and returns once it is ready to serve.
type Spawner func(a ShardArgs) (Proc, error)

// Broadcaster delivers a ring change: to each shard over the control
// transport, then to the trainer.
type Broadcaster struct {
	Shard   func(id int, u cluster.MembershipUpdate) error
	Trainer func(u cluster.MembershipUpdate) error
}

// Clock is the supervisor's view of time; the zero Clock is the wall clock.
type Clock struct {
	Now   func() time.Time
	After func(d time.Duration) <-chan time.Time
}

// ShardLossError is a permanent shard failure: the restart budget ran out
// (Restarts attempts within the window, all dead), or a replicated shard died
// and its backups were promoted (Promoted).
type ShardLossError struct {
	Shard    int
	Restarts int
	Promoted bool
}

// Error implements error.
func (e *ShardLossError) Error() string {
	if e.Promoted {
		return fmt.Sprintf("shard %d lost permanently; its backups were promoted (ring leave)", e.Shard)
	}
	return fmt.Sprintf("shard %d lost permanently after %d restarts (budget exhausted)", e.Shard, e.Restarts)
}

// restartBudget caps a shard's restarts within a sliding window, spacing them
// with exponential backoff: a crash loop (bad disk, poisoned state) surfaces
// as a typed loss instead of burning the run. The Supervisor's mu guards it.
type restartBudget struct {
	max    int
	window time.Duration
	hist   map[int][]time.Time
}

// next records a restart of shard i at now and returns the backoff to wait
// first (zero for the first in the window) and the restart count, or
// ok=false with the restarts burned once the budget is exhausted.
func (b *restartBudget) next(i int, now time.Time) (delay time.Duration, restarts int, ok bool) {
	keep := b.hist[i][:0]
	for _, t := range b.hist[i] {
		if now.Sub(t) < b.window {
			keep = append(keep, t)
		}
	}
	b.hist[i] = keep
	if len(keep) >= b.max {
		return 0, len(keep), false
	}
	if len(keep) > 0 {
		delay = min(backoffBase<<(len(keep)-1), backoffCap)
	}
	b.hist[i] = append(keep, now)
	return delay, len(b.hist[i]), true
}
