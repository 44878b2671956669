package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/hw"
	"hps/internal/loadgen"
	"hps/internal/trainer"
)

// shardProc is one spawned `hps serve` child process. done is closed after
// the child has exited and been reaped; the spawn goroutine owns Wait.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

// ShardLossError is the typed, permanent form of a shard failure: the
// supervisor either exhausted the restart budget (Restarts attempts within
// the window, all dead) or — in a replicated ring — treated the death as a
// promotion trigger and removed the shard from the ring for good.
type ShardLossError struct {
	Shard    int
	Restarts int
	Promoted bool
}

func (e *ShardLossError) Error() string {
	if e.Promoted {
		return fmt.Sprintf("shard %d lost permanently; its backups were promoted (ring leave)", e.Shard)
	}
	return fmt.Sprintf("shard %d lost permanently after %d restarts (budget exhausted)", e.Shard, e.Restarts)
}

// restartBudget caps how many times a shard slot may be restarted within a
// sliding window, spacing consecutive restarts with exponential backoff.
// Beyond the cap the shard is declared permanently lost — a crash loop (bad
// disk, poisoned state) must surface as a typed failure, not burn the run
// restarting forever.
type restartBudget struct {
	max    int
	window time.Duration
	base   time.Duration

	mu   sync.Mutex
	hist map[int][]time.Time
}

func newRestartBudget(max int, window, base time.Duration) *restartBudget {
	return &restartBudget{max: max, window: window, base: base, hist: map[int][]time.Time{}}
}

// next records a restart attempt for shard i. It returns the backoff to sleep
// before respawning (zero for the first restart in the window — a lone crash
// recovers at full speed) and ok=false once the budget is exhausted, with the
// number of restarts already burned.
func (b *restartBudget) next(i int) (delay time.Duration, restarts int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	keep := b.hist[i][:0]
	for _, t := range b.hist[i] {
		if now.Sub(t) < b.window {
			keep = append(keep, t)
		}
	}
	if len(keep) >= b.max {
		b.hist[i] = keep
		return 0, len(keep), false
	}
	if len(keep) > 0 {
		delay = b.base << (len(keep) - 1)
		if cap := 5 * time.Second; delay > cap {
			delay = cap
		}
	}
	b.hist[i] = append(keep, now)
	return delay, len(b.hist[i]), true
}

// shardSet owns and supervises the spawned shard processes. Each shard has a
// durable state directory under root. What happens when a shard dies depends
// on the deployment:
//
//   - replicated ring (R>1): the backups already hold every acked delta, so
//     the shard is permanently retired and its key ranges promoted (the
//     driver broadcasts a Leave ring). Restoring stale disk state instead
//     would be unsound — transfers skip present keys, so restored rows would
//     shadow the backups' fresher ones.
//   - unreplicated: the shard is restarted over its directory with -restore
//     (SSD-PS recovery plus the replayed push-dedup log), under the restart
//     budget; exhausting the budget is a permanent, typed loss.
type shardSet struct {
	exe    string
	shards int
	fs     *trainFlags
	root   string

	// ring-mode state; ms == nil means legacy modulo placement.
	ms       *cluster.Membership
	replicas int
	vnodes   int
	budget   *restartBudget

	// onPromote broadcasts the Leave ring after a replicated shard's death;
	// onRejoin re-broadcasts the current ring (with addresses) to a restarted
	// shard; onExhausted aborts the run when an unreplicated shard is lost.
	onPromote   func(shard int)
	onRejoin    func(shard int)
	onExhausted func(shard int)

	mu       sync.Mutex
	procs    map[int]*shardProc
	removed  map[int]bool
	losses   []*ShardLossError
	nextID   int
	stopping bool
	onMove   []func(shard int, addr string)
	wg       sync.WaitGroup
}

// dir returns shard i's durable state directory.
func (s *shardSet) dir(i int) string {
	return filepath.Join(s.root, fmt.Sprintf("shard-%d", i))
}

// dirs returns the initial shards' state directories (the manifest's Shards
// map). Shards joined mid-run hold only re-replicated state and are not part
// of the checkpoint manifest.
func (s *shardSet) dirs() map[int]string {
	out := make(map[int]string, s.shards)
	for i := 0; i < s.shards; i++ {
		out[i] = s.dir(i)
	}
	return out
}

// addrs returns the current live shard addresses.
func (s *shardSet) addrs() map[int]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]string, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.addr
	}
	return out
}

// notifyMove registers a callback for shard address changes (restarts and
// joins) so every transport can be repointed.
func (s *shardSet) notifyMove(f func(shard int, addr string)) {
	s.mu.Lock()
	s.onMove = append(s.onMove, f)
	s.mu.Unlock()
}

// noteLoss records a permanent shard loss for the end-of-run report.
func (s *shardSet) noteLoss(e *ShardLossError) {
	s.mu.Lock()
	s.losses = append(s.losses, e)
	s.mu.Unlock()
}

// lossList snapshots the permanent losses so far.
func (s *shardSet) lossList() []*ShardLossError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*ShardLossError{}, s.losses...)
}

// fatalLoss returns the first non-promoted loss — a shard whose keys nobody
// else holds — or nil. Promotions are survivable; this is not.
func (s *shardSet) fatalLoss() *ShardLossError {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.losses {
		if !e.Promoted {
			return e
		}
	}
	return nil
}

// ringArgsFor builds the serve-side ring flags for the given member list.
func (s *shardSet) ringArgsFor(members []int) []string {
	if s.ms == nil {
		return nil
	}
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = strconv.Itoa(m)
	}
	return []string{
		"-members", strings.Join(ids, ","),
		"-replicas", strconv.Itoa(s.replicas),
		"-vnodes", strconv.Itoa(s.vnodes),
	}
}

// ringArgs builds the serve-side ring flags for the current ring.
func (s *shardSet) ringArgs() []string {
	if s.ms == nil {
		return nil
	}
	return s.ringArgsFor(s.ms.Ring().Members())
}

// shardsArg sizes the -shards flag for a child: joiners get ids beyond the
// initial count, and the child's Topology.Nodes must cover its own id.
func (s *shardSet) shardsArg(id int) int {
	if id+1 > s.shards {
		return id + 1
	}
	return s.shards
}

// start spawns every initial shard and begins supervising them.
func (s *shardSet) start(restore bool) error {
	s.procs = make(map[int]*shardProc, s.shards)
	s.removed = map[int]bool{}
	s.nextID = s.shards
	for i := 0; i < s.shards; i++ {
		p, err := spawnShard(s.exe, i, s.shards, s.fs, s.dir(i), restore, s.ringArgs())
		if err != nil {
			return err
		}
		s.procs[i] = p
		fmt.Printf("shard %d up: pid %d at %s\n", i, p.cmd.Process.Pid, p.addr)
	}
	for i := 0; i < s.shards; i++ {
		s.wg.Add(1)
		go s.supervise(i)
	}
	return nil
}

// supervise watches one shard slot until the set stops or the shard is lost
// for good. See the shardSet doc comment for the two failure policies.
func (s *shardSet) supervise(i int) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		p := s.procs[i]
		s.mu.Unlock()
		if p == nil {
			return
		}
		<-p.done
		s.mu.Lock()
		stop := s.stopping || s.removed[i]
		s.mu.Unlock()
		if stop {
			return
		}

		if s.ms != nil && s.replicas > 1 && len(s.ms.Ring().Members()) > 1 {
			// Replicated: every key the dead primary acked also lives on a
			// backup, so the fastest correct recovery is promotion. Training
			// continues against the backups without touching the dead shard's
			// disk.
			fmt.Printf("shard %d died (%v); promoting its backups instead of restoring\n", i, p.cmd.ProcessState)
			s.mu.Lock()
			delete(s.procs, i)
			s.mu.Unlock()
			s.noteLoss(&ShardLossError{Shard: i, Promoted: true})
			if s.onPromote != nil {
				s.onPromote(i)
			}
			return
		}

		delay, restarts, ok := s.budget.next(i)
		if !ok {
			e := &ShardLossError{Shard: i, Restarts: restarts}
			fmt.Fprintf(os.Stderr, "driver: %v\n", e)
			s.noteLoss(e)
			if s.onExhausted != nil {
				s.onExhausted(i)
			}
			return
		}
		if delay > 0 {
			fmt.Printf("shard %d died (%v); restart %d/%d after %v backoff\n",
				i, p.cmd.ProcessState, restarts, s.budget.max, delay)
			time.Sleep(delay)
		} else {
			fmt.Printf("shard %d died (%v); restarting with -restore\n", i, p.cmd.ProcessState)
		}
		np, err := spawnShard(s.exe, i, s.shardsArg(i), s.fs, s.dir(i), true, s.ringArgs())
		if err != nil {
			fmt.Fprintf(os.Stderr, "driver: restart shard %d: %v\n", i, err)
			s.noteLoss(&ShardLossError{Shard: i, Restarts: restarts})
			if s.onExhausted != nil {
				s.onExhausted(i)
			}
			return
		}
		s.mu.Lock()
		s.procs[i] = np
		stop = s.stopping
		moves := append([]func(int, string){}, s.onMove...)
		s.mu.Unlock()
		if stop {
			// Shutdown won the race: the restarted shard is not needed.
			np.cmd.Process.Signal(os.Interrupt)
			<-np.done
			return
		}
		for _, f := range moves {
			f(i, np.addr)
		}
		if s.onRejoin != nil {
			// Re-teach the restarted shard the current ring and address book
			// (it boots at membership epoch 0 from its flags).
			s.onRejoin(i)
		}
		fmt.Printf("shard %d restarted: pid %d at %s\n", i, np.cmd.Process.Pid, np.addr)
	}
}

// add spawns one fresh shard (empty state directory), teaches every transport
// its address, then applies the Join ring — in that order, so by the time any
// peer routes to the joiner it is reachable. The survivors stream the
// joiner's new key ranges to it in the background (rate-limited transfers).
func (s *shardSet) add(apply func(next *cluster.Ring)) error {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return nil
	}
	id := s.nextID
	s.nextID++
	s.mu.Unlock()

	p, err := spawnShard(s.exe, id, s.shardsArg(id), s.fs, s.dir(id), false,
		s.ringArgsFor(append(slices.Clone(s.ms.Ring().Members()), id)))
	if err != nil {
		return fmt.Errorf("spawn joining shard %d: %w", id, err)
	}
	s.mu.Lock()
	s.procs[id] = p
	moves := append([]func(int, string){}, s.onMove...)
	s.mu.Unlock()
	for _, f := range moves {
		f(id, p.addr)
	}
	apply(s.ms.Ring().Join(id))
	s.wg.Add(1)
	go s.supervise(id)
	fmt.Printf("shard %d joined: pid %d at %s (ring epoch %d)\n",
		id, p.cmd.Process.Pid, p.addr, s.ms.Epoch())
	return nil
}

// remove retires the highest-id ring member: it broadcasts the Leave ring
// first — the survivors re-replicate among themselves and the leaver hands
// off every row it holds — then, after a grace period for the handoff to
// drain, shuts the process down.
func (s *shardSet) remove(apply func(next *cluster.Ring)) error {
	ring := s.ms.Ring()
	members := ring.Members()
	if len(members) < 2 {
		return fmt.Errorf("cannot remove a shard: %d ring member(s) left", len(members))
	}
	id := members[0]
	for _, m := range members {
		if m > id {
			id = m
		}
	}
	fmt.Printf("shard %d leaving the ring (epoch %d -> %d)\n", id, ring.Epoch(), ring.Epoch()+1)
	apply(ring.Leave(id))

	// Grace: the leaver's handoff transfers are rate-limited background work;
	// killing the process under them would lose whatever had not streamed out
	// yet (with R=1 nobody else holds those rows).
	time.Sleep(3 * time.Second)

	s.mu.Lock()
	s.removed[id] = true
	p := s.procs[id]
	delete(s.procs, id)
	s.mu.Unlock()
	if p != nil {
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	fmt.Printf("shard %d left and shut down\n", id)
	return nil
}

// stop asks every child to shut down cleanly (flush to SSD-PS, sync the seq
// log), kills stragglers, and waits for the supervisors to wind down.
func (s *shardSet) stop() {
	s.mu.Lock()
	s.stopping = true
	procs := make([]*shardProc, 0, len(s.procs))
	for _, p := range s.procs {
		procs = append(procs, p)
	}
	s.mu.Unlock()
	for _, p := range procs {
		if p != nil && p.cmd.Process != nil {
			p.cmd.Process.Signal(os.Interrupt)
		}
	}
	for _, p := range procs {
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	s.wg.Wait()
}

// runDriver is the `hps driver` subcommand: spawn one `hps serve` process
// per MEM-PS shard, train the model against them over real TCP sockets, and
// print the Fig-4-style breakdown including the measured network time. The
// driver supervises its shards — crashed shards are restored (unreplicated)
// or their backups promoted (replicated), under a restart budget — and can
// reshape the ring mid-run with -add-shard/-remove-shard.
func runDriver(args []string) error {
	fs := newTrainFlags("driver")
	shardsFlag := fs.fs.Int("shards", 2, "number of MEM-PS shard processes to spawn")
	lg := fs.fs.Bool("loadgen", false, "serve predictions while training: replay a zipfian query stream against the shards and print the serving report")
	lgDuration := fs.fs.Duration("loadgen-duration", 3*time.Second, "how long the concurrent load generation runs")
	lgConcurrency := fs.fs.Int("loadgen-concurrency", 4, "closed-loop loadgen clients")
	lgBatch := fs.fs.Int("loadgen-batch", 16, "examples per loadgen predict request")

	replicasFlag := fs.fs.Int("replicas", 1, "replication factor R: every key lives on its ring primary plus R-1 backups")
	vnodesFlag := fs.fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per ring member")
	addAfter := fs.fs.Duration("add-shard", 0, "join one fresh shard to the ring this long into the run (0: never)")
	removeAfter := fs.fs.Duration("remove-shard", 0, "retire the highest-id ring shard this long into the run (0: never)")
	restartMax := fs.fs.Int("restart-budget", 3, "max restarts per shard per -restart-window before it is declared permanently lost")
	restartWindow := fs.fs.Duration("restart-window", time.Minute, "sliding window the restart budget is counted over")
	if err := fs.fs.Parse(args); err != nil {
		return err
	}
	if rest := fs.fs.Args(); len(rest) > 0 {
		return fmt.Errorf("unexpected argument %q", rest[0])
	}
	shards := *shardsFlag
	if shards < 1 {
		return fmt.Errorf("need at least one shard, have %d", shards)
	}
	if *replicasFlag < 1 {
		return fmt.Errorf("-replicas must be at least 1, have %d", *replicasFlag)
	}
	if *replicasFlag > shards {
		return fmt.Errorf("-replicas %d exceeds -shards %d", *replicasFlag, shards)
	}
	// Ring placement turns on whenever something needs it: replication or a
	// mid-run membership change. Otherwise the legacy modulo placement keeps
	// historical runs bit-identical.
	ringMode := *replicasFlag > 1 || *addAfter > 0 || *removeAfter > 0

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolve own executable: %w", err)
	}

	// Validate the spec before launching anything: an unknown model must
	// surface as its own error, not as shards dying on startup.
	spec, err := resolveSpec(*fs.modelName, *fs.scale)
	if err != nil {
		return err
	}

	// Every shard gets a durable state directory under one root: the SSD-PS
	// flush target, the push-dedup seq log, and the -restore source after a
	// crash. Without -state-dir the root is temporary — restarts still work
	// within the run, but nothing survives the driver.
	root := *fs.stateDir
	if root == "" {
		d, err := os.MkdirTemp("", "hps-driver-*")
		if err != nil {
			return err
		}
		root = d
		defer os.RemoveAll(d)
	}

	// Driver-mode depth ablation: each depth gets its own shard processes over
	// a fresh subdirectory of root, so no state leaks between sweep points and
	// every depth pays the same real-socket costs.
	if *fs.ablate != "" {
		depths, err := parseDepths(*fs.ablate)
		if err != nil {
			return err
		}
		if *lg || ringMode || *fs.restore || *fs.checkpoint != "" {
			return errors.New("-ablate-depth sweeps fresh runs; it cannot combine with -loadgen, ring flags, -checkpoint or -restore")
		}
		data := dataset.ForModel(spec.SparseParams, spec.NonZerosPerExample)
		return runAblate(fs, spec, data, depths, func(depth int) (*trainer.Trainer, func(), error) {
			set := &shardSet{
				exe: exe, shards: shards, fs: fs,
				root:   filepath.Join(root, fmt.Sprintf("ablate-%d", depth)),
				budget: newRestartBudget(*restartMax, *restartWindow, 250*time.Millisecond),
			}
			if err := set.start(false); err != nil {
				set.stop()
				return nil, nil, err
			}
			cfg := trainer.Config{
				Spec:          spec,
				Data:          data,
				Topology:      cluster.Topology{Nodes: shards, GPUsPerNode: *fs.gpus},
				BatchSize:     *fs.batchSize,
				Batches:       *fs.batches,
				Profile:       hw.DefaultGPUNode(),
				Seed:          *fs.seed,
				RemoteShards:  set.addrs(),
				WirePrecision: *fs.wirePrec,
				QuantizePush:  *fs.quantPush,
				RemoteRetry:   cluster.RetryPolicy{Attempts: 10, Backoff: 50 * time.Millisecond},
			}
			fs.applyPipeline(&cfg)
			cfg.MaxInFlight = depth
			tr, err := trainer.New(cfg)
			if err != nil {
				set.stop()
				return nil, nil, err
			}
			set.notifyMove(tr.SetShardAddr)
			return tr, set.stop, nil
		})
	}

	var ms *cluster.Membership
	if ringMode {
		members := make([]int, shards)
		for i := range members {
			members[i] = i
		}
		ms = cluster.NewMembership(cluster.NewRing(members, *vnodesFlag))
	}
	set := &shardSet{
		exe: exe, shards: shards, fs: fs, root: root,
		ms: ms, replicas: *replicasFlag, vnodes: *vnodesFlag,
		budget: newRestartBudget(*restartMax, *restartWindow, 250*time.Millisecond),
	}
	defer set.stop()
	if err := set.start(*fs.restore); err != nil {
		return err
	}
	addrs := set.addrs()

	data := dataset.ForModel(spec.SparseParams, spec.NonZerosPerExample)
	cfg := trainer.Config{
		Spec:          spec,
		Data:          data,
		Topology:      cluster.Topology{Nodes: shards, GPUsPerNode: *fs.gpus, Members: ms, Replicas: *replicasFlag},
		BatchSize:     *fs.batchSize,
		Batches:       *fs.batches,
		Profile:       hw.DefaultGPUNode(),
		Seed:          *fs.seed,
		RemoteShards:  addrs,
		WirePrecision: *fs.wirePrec,
		QuantizePush:  *fs.quantPush,
		Serve:         *lg,
		// A crashed shard is gone for however long respawn + recovery takes;
		// the widened retry window is what lets in-flight batches ride a
		// restart instead of failing the run.
		RemoteRetry:        cluster.RetryPolicy{Attempts: 10, Backoff: 50 * time.Millisecond},
		CheckpointPath:     fs.checkpointPath(),
		CheckpointInterval: *fs.ckptInterval,
		BatchPause:         *fs.batchPause,
		ShardState:         set.dirs(),
	}
	fs.applyPipeline(&cfg)
	wire := *fs.wirePrec
	if *fs.quantPush {
		wire += "+push"
	}
	fmt.Printf("training model %s against %d MEM-PS shard process(es), %d GPU(s)/node, %d batches x %d examples/node (wire %s, replicas %d)\n\n",
		spec.Name, shards, *fs.gpus, *fs.batches, *fs.batchSize, wire, *replicasFlag)

	tr, err := trainer.New(cfg)
	if err != nil {
		return err
	}
	defer tr.Close()
	set.notifyMove(tr.SetShardAddr)

	ctx, cancel := signalContext()
	defer cancel()

	if ringMode {
		// The driver's control transport carries membership broadcasts (and
		// nothing else) to the shards.
		ctl := cluster.NewTCPTransport(addrs, spec.EmbeddingDim)
		defer ctl.Close()
		set.notifyMove(ctl.SetAddr)

		var ringMu sync.Mutex
		applyRing := func(next *cluster.Ring) {
			ringMu.Lock()
			defer ringMu.Unlock()
			u := cluster.MembershipUpdate{
				Epoch:    next.Epoch(),
				Members:  next.Members(),
				VNodes:   *vnodesFlag,
				Replicas: *replicasFlag,
				Addrs:    set.addrs(),
			}
			// Shards first — they must accept forwards and transfers for the
			// new ring before the trainer repoints its pushes — and the union
			// of old and new members, so a leaver receives the ring that
			// starts its handoff.
			targets := slices.Clone(ms.Ring().Members())
			for _, id := range next.Members() {
				if !slices.Contains(targets, id) {
					targets = append(targets, id)
				}
			}
			for _, id := range targets {
				if err := ctl.UpdateMembership(id, u); err != nil {
					fmt.Fprintf(os.Stderr, "driver: membership epoch %d to shard %d: %v\n", u.Epoch, id, err)
				}
			}
			// The trainer installs the ring into the shared membership view;
			// the loadgen follows that same view on its next request.
			if err := tr.UpdateMembership(u); err != nil {
				fmt.Fprintf(os.Stderr, "driver: membership epoch %d to trainer: %v\n", u.Epoch, err)
			}
		}
		// First broadcast, one epoch above the shards' flag-derived ring:
		// it carries the address book, which is how shards learn each other.
		applyRing(ms.Ring().WithEpoch(ms.Ring().Epoch() + 1))
		set.onPromote = func(dead int) { applyRing(ms.Ring().Leave(dead)) }
		set.onRejoin = func(int) { applyRing(ms.Ring()) }

		if *addAfter > 0 {
			go func() {
				select {
				case <-time.After(*addAfter):
				case <-ctx.Done():
					return
				}
				if err := set.add(applyRing); err != nil {
					fmt.Fprintf(os.Stderr, "driver: add shard: %v\n", err)
				}
			}()
		}
		if *removeAfter > 0 {
			go func() {
				select {
				case <-time.After(*removeAfter):
				case <-ctx.Done():
					return
				}
				if err := set.remove(applyRing); err != nil {
					fmt.Fprintf(os.Stderr, "driver: remove shard: %v\n", err)
				}
			}()
		}
	}
	// Losing an unreplicated shard for good means part of the model is gone:
	// abort the run instead of spinning on dead connections.
	set.onExhausted = func(int) { cancel() }

	if *fs.restore {
		if cfg.CheckpointPath == "" {
			return fmt.Errorf("-restore needs -checkpoint or -state-dir")
		}
		done, err := tr.Restore(cfg.CheckpointPath)
		if err != nil {
			return err
		}
		fmt.Printf("restored checkpoint %s: resuming at batch %d/%d\n", cfg.CheckpointPath, done, *fs.batches)
	}

	// With -loadgen, the query stream runs concurrently with training — the
	// serving-under-training scenario the serving tier is built for. The
	// loadgen gets its own transport so serving traffic never queues behind
	// training pulls on the driver side either.
	var lgRep loadgen.Report
	var lgErr error
	lgDone := make(chan struct{})
	if *lg {
		lgTransport := cluster.NewTCPTransport(addrs, spec.EmbeddingDim)
		defer lgTransport.Close()
		set.notifyMove(lgTransport.SetAddr)
		go func() {
			defer close(lgDone)
			lgRep, lgErr = loadgen.Run(ctx, loadgen.Config{
				Transport:   lgTransport,
				Nodes:       shards,
				Members:     ms,
				Data:        data,
				Seed:        *fs.seed + 777,
				Duration:    *lgDuration,
				Concurrency: *lgConcurrency,
				BatchSize:   *lgBatch,
			})
		}()
	} else {
		close(lgDone)
	}

	wallStart := time.Now()
	runErr := tr.Run(ctx)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}
	wall := time.Since(wallStart)
	<-lgDone
	if lost := set.fatalLoss(); lost != nil {
		tr.Close()
		return fmt.Errorf("training aborted: %w", lost)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "hps: interrupted; flushing checkpoint")
		return tr.Close()
	}

	report := tr.Report()
	fmt.Print(report.String())
	fmt.Printf("(driver wall time %v)\n", wall.Round(time.Millisecond))
	if losses := set.lossList(); len(losses) > 0 {
		fmt.Printf("\n-- permanent shard losses --\n")
		for _, e := range losses {
			fmt.Printf("  %s\n", e.Error())
		}
	}
	if ringMode {
		fmt.Printf("ring: epoch %d, members %v, replicas %d\n", ms.Epoch(), ms.Ring().Members(), *replicasFlag)
	}
	if *lg {
		if lgErr != nil {
			return fmt.Errorf("loadgen: %w", lgErr)
		}
		fmt.Printf("\n%s", lgRep.String())
	}

	if *fs.evalN > 0 {
		auc, err := tr.Evaluate(dataset.NewGenerator(data, *fs.seed+424243), *fs.evalN)
		if err != nil {
			return err
		}
		fmt.Printf("\nAUC over %d held-out examples: %.4f\n", *fs.evalN, auc)
	}
	// Close before stopping the shards: the final flush goes over the wire.
	if err := tr.Close(); err != nil {
		return err
	}
	return nil
}

// spawnShard launches one `hps serve` child over the given state directory
// and waits for its ready line. extra carries the ring flags in ring mode.
func spawnShard(exe string, shard, shards int, fs *trainFlags, dir string, restore bool, extra []string) (*shardProc, error) {
	args := []string{"serve",
		"-addr", "127.0.0.1:0",
		"-shard", fmt.Sprint(shard),
		"-shards", fmt.Sprint(shards),
		"-model", *fs.modelName,
		"-scale", fmt.Sprint(*fs.scale),
		"-cache-frac", fmt.Sprint(*fs.cacheFrac),
		"-seed", fmt.Sprint(*fs.seed),
		"-dir", dir,
	}
	args = append(args, extra...)
	if restore {
		args = append(args, "-restore")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn shard %d: %w", shard, err)
	}

	p := &shardProc{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// The goroutine owns the pipe (and the final Wait) for the child's
		// lifetime: it delivers the ready line, keeps draining so the child
		// never blocks on a full pipe, and reaps the child at EOF.
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, shardReadyPrefix) {
				if i := strings.LastIndex(line, "addr="); i >= 0 {
					select {
					case addrCh <- line[i+len("addr="):]:
					default:
					}
				}
			}
		}
		close(addrCh)
		cmd.Wait()
		close(p.done)
	}()

	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			cmd.Process.Kill()
			<-p.done
			return nil, fmt.Errorf("shard %d exited before becoming ready", shard)
		}
		p.addr = addr
		return p, nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		<-p.done
		return nil, fmt.Errorf("shard %d did not become ready within 15s", shard)
	}
}
