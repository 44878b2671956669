package trainer

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/ps"
)

// readAhead is how many batches the read stage may run past the depth gate.
// A read touches no parameter, so reading ahead costs no staleness, only the
// memory of the batches read ahead (each holds its examples and key index):
// one batch is enough to hide the read behind the previous batch's pull,
// train and push at depth 1. A read allowed two or three batches ahead raised
// train_local_cold's p90 resident set by 10-13%, past the benchmark's 10%
// bound; one batch costs about 5% there.
const readAhead = 1

// depthGate bounds how many batches are in the pipeline at once. It guards
// parameters, not data: a batch takes a slot when it enters the pull stage
// (acquire) and gives it back in the sink (release), so at most depth batches
// lie between their pull and their push — the staleness bound. The source
// admits at most depth+readAhead batches (admit), so the read stage runs at
// most readAhead batches ahead of the gate. Each bound is a buffered channel
// used as a counting semaphore.
type depthGate struct {
	admitted chan struct{} // admitted by the source, not yet through the sink
	inUse    chan struct{} // entered the pull stage, not yet through the sink
}

func newDepthGate(depth int) *depthGate {
	return &depthGate{
		admitted: make(chan struct{}, depth+readAhead),
		inUse:    make(chan struct{}, depth),
	}
}

// admit blocks until the source may admit another batch; acquire blocks
// until a batch may enter the pull stage. Both give up with ctx's error once
// ctx is done.
func (g *depthGate) admit(ctx context.Context) error { return takeSlot(ctx, g.admitted) }

func (g *depthGate) acquire(ctx context.Context) error { return takeSlot(ctx, g.inUse) }

func takeSlot(ctx context.Context, slots chan<- struct{}) error {
	select {
	case slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release retires a batch from both bounds; the sink calls it. The
// admission slot goes first: of the goroutines a release wakes, the one woken
// last runs next on this core, and that should be the pull stage waiting for
// inUse — at depth 1 it is the critical path, the source is not.
func (g *depthGate) release() {
	<-g.admitted
	<-g.inUse
}

// pushJob is one batch's merged delta block handed off to the background
// committer: everything the apply half of stagePush needs, with ownership of
// the block (the committer returns it to the pool after the commit).
type pushJob struct {
	index  int
	global *ps.ValueBlock
	// pull is the batch's pull, which every owner completes once the push
	// has landed.
	pull []ownedPull
}

// pushCommitter applies merged delta blocks to the MEM-PS tier on a background
// goroutine, modeled on memps.Replicator's bounded forward queue: stagePush
// enqueues and returns, so the pipeline token comes back before the MEM-PS
// round trip. The lag is bounded — at most `lag` pushes are outstanding
// (queued or committing) — and drain() blocks until every enqueued push has
// been applied, which is what Flush/checkpoint/Close call before declaring
// anything durable.
//
// Pushes commit strictly in batch order (single committer goroutine, FIFO
// queue), so the MEM-PS sees exactly the update sequence the synchronous path
// would have applied — just later.
type pushCommitter struct {
	t     *Trainer
	lag   int
	queue chan *pushJob

	// pending counts pushes handed to the committer and not yet applied; it
	// is incremented by the enqueuer after a successful send and decremented
	// by the committer after the commit, so its high-water mark (maxPending)
	// is the observed push lag.
	pending    atomic.Int64
	maxPending atomic.Int64
	// committed is the batch-index watermark: all pushes for batches < this
	// value have been applied. Written only by the committer goroutine.
	committed atomic.Int64
	// staleMax is the largest trained-ahead-of-committed distance observed by
	// stageTrain — the realized parameter staleness in batches.
	staleMax atomic.Int64

	errMu sync.Mutex
	err   error

	// commitDelay artificially slows every commit; a test hook for driving
	// the lag bound to its limit under -race.
	commitDelay time.Duration

	closeOnce sync.Once
	done      chan struct{}
}

func newPushCommitter(t *Trainer, lag int) *pushCommitter {
	if lag < 1 {
		lag = 1
	}
	c := &pushCommitter{
		t: t, lag: lag,
		// One push is "outstanding" while the committer works on it, so the
		// queue holds the other lag-1; lag==1 degenerates to a rendezvous.
		queue: make(chan *pushJob, lag-1),
		done:  make(chan struct{}),
	}
	go c.run()
	return c
}

// enqueue hands a merged delta block to the committer, blocking while the lag
// bound is reached. On failure (cancelled context or a previously stored
// commit error) it releases the block and reports the error — the pipeline
// stops rather than training on updates that will never land.
func (c *pushCommitter) enqueue(ctx context.Context, pj *pushJob) error {
	if err := c.failed(); err != nil {
		ps.PutBlock(pj.global)
		return err
	}
	select {
	case c.queue <- pj:
	case <-ctx.Done():
		ps.PutBlock(pj.global)
		return ctx.Err()
	}
	p := c.pending.Add(1)
	for {
		old := c.maxPending.Load()
		if p <= old || c.maxPending.CompareAndSwap(old, p) {
			break
		}
	}
	return nil
}

func (c *pushCommitter) run() {
	defer close(c.done)
	for pj := range c.queue {
		c.commit(pj)
	}
}

// commit applies one push job. After the first error the committer keeps
// draining the queue — releasing blocks, keeping pending honest — but applies
// nothing further; the stored error surfaces on the next enqueue or drain.
func (c *pushCommitter) commit(pj *pushJob) {
	if c.commitDelay > 0 {
		time.Sleep(c.commitDelay)
	}
	if c.failed() == nil {
		if err := c.t.applyGlobalPush(pj); err != nil {
			c.fail(err)
		}
	}
	c.committed.Store(int64(pj.index) + 1)
	c.pending.Add(-1)
	ps.PutBlock(pj.global)
}

// drain blocks until every enqueued push has been applied, then reports any
// stored commit error. It terminates because the committer goroutine always
// makes progress on a nonempty queue (even after an error, where it only
// releases blocks).
func (c *pushCommitter) drain() error {
	for c.pending.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	return c.failed()
}

// close stops the committer goroutine. Call only after the pipeline has
// stopped enqueueing and drain() has returned.
func (c *pushCommitter) close() {
	c.closeOnce.Do(func() { close(c.queue) })
	<-c.done
}

func (c *pushCommitter) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

func (c *pushCommitter) failed() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// observeTrain records the realized staleness of a batch entering stageTrain:
// how many older batches have trained but not yet had their push applied.
// Bounded by depth-1 (batches ahead in the pipeline) + lag (pushes parked in
// the committer).
func (c *pushCommitter) observeTrain(index int) {
	stale := int64(index) - c.committed.Load()
	if stale < 0 {
		stale = 0
	}
	for {
		old := c.staleMax.Load()
		if stale <= old || c.staleMax.CompareAndSwap(old, stale) {
			return
		}
	}
}

// applyGlobalPush is the apply half of stagePush, run on the committer
// goroutine in async mode: every owner applies its share of the merged delta
// block and completes the batch's pull, and the dense tower is republished
// to the serving tier. The committer is the only goroutine on the owners'
// push path, so their push times attribute cleanly, same as the synchronous
// stage.
func (t *Trainer) applyGlobalPush(pj *pushJob) error {
	modelled, err := t.applyPush(deltas{global: pj.global}, pj.pull)
	if err != nil {
		return err
	}
	if err := t.republishDense(pj.index); err != nil {
		return err
	}
	t.addStageModelled(StagePush, modelled)
	return nil
}
