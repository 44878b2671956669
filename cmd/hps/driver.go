package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/driver"
	"hps/internal/loadgen"
	"hps/internal/model"
	"hps/internal/trainer"
)

// runDriver is the `hps driver` subcommand: spawn one `hps serve` process
// per MEM-PS shard, train against them over real TCP sockets, and print the
// Fig-4-style breakdown with the measured network time. A driver.Supervisor
// restarts or promotes crashed shards and runs -add-shard and -remove-shard.
func runDriver(args []string) error {
	fs := newTrainFlags("driver")
	shardsFlag := fs.fs.Int("shards", 2, "number of MEM-PS shard processes to spawn")
	lg := fs.fs.Bool("loadgen", false, "serve predictions while training: replay a zipfian query stream against the shards and print the serving report")
	lgDuration := fs.fs.Duration("loadgen-duration", 3*time.Second, "how long the concurrent load generation runs")
	lgConcurrency := fs.fs.Int("loadgen-concurrency", 4, "closed-loop loadgen clients")
	lgBatch := fs.fs.Int("loadgen-batch", 16, "examples per loadgen predict request")

	replicasFlag := fs.fs.Int("replicas", 1, "replication factor R: every key lives on its ring primary plus R-1 backups")
	addAfter := fs.fs.Duration("add-shard", 0, "join one fresh shard to the ring this long into the run (0: never)")
	removeAfter := fs.fs.Duration("remove-shard", 0, "retire the highest-id ring shard this long into the run (0: never)")
	restartMax := fs.fs.Int("restart-budget", 3, "max restarts per shard per -restart-window before it is declared permanently lost")
	restartWindow := fs.fs.Duration("restart-window", time.Minute, "sliding window the restart budget is counted over")
	if err := parseFlags(fs.fs, args); err != nil {
		return err
	}
	shards, replicas := *shardsFlag, *replicasFlag
	if shards < 1 {
		return fmt.Errorf("need at least one shard, have %d", shards)
	}
	if replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, have %d", replicas)
	}
	if replicas > shards {
		return fmt.Errorf("-replicas %d exceeds -shards %d", replicas, shards)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolve own executable: %w", err)
	}
	// An unknown model fails here by name, not as shards dying on startup.
	spec, err := resolveSpec(*fs.modelName, *fs.scale)
	if err != nil {
		return err
	}
	data := dataset.ForModel(spec.SparseParams, spec.NonZerosPerExample)
	// Each shard's durable state (SSD-PS, seq log: what -restore recovers)
	// lives under one root; without -state-dir it dies with the driver.
	root := *fs.stateDir
	if root == "" {
		if root, err = os.MkdirTemp("", "hps-driver-*"); err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}
	sup := driver.Config{Spawn: shardSpawner(exe, fs), Shards: shards, Root: root, Replicas: replicas,
		RestartMax: *restartMax, RestartWindow: *restartWindow}
	if *fs.ablate != "" {
		if *lg || replicas > 1 || *addAfter > 0 || *removeAfter > 0 || *fs.restore || *fs.checkpoint != "" {
			return errors.New("-ablate-depth sweeps fresh runs; it cannot combine with -loadgen, ring flags, -checkpoint or -restore")
		}
		return ablateDriver(fs, spec, data, sup)
	}

	ctx, cancel := signalContext()
	defer cancel()
	// Losing an unreplicated shard for good loses part of the model: abort.
	sup.Abort = cancel
	set := driver.New(sup)
	defer set.Stop()
	if err := set.Start(*fs.restore); err != nil {
		return err
	}
	topo := cluster.Topology{Nodes: shards, GPUsPerNode: *fs.gpus, Replicas: replicas}.WithView()
	cfg := fs.remoteConfig(spec, data, set, topo)
	cfg.Serve = *lg
	wire := *fs.wirePrec
	if *fs.quantPush {
		wire += "+push"
	}
	fmt.Printf("training model %s against %d MEM-PS shard process(es), %d GPU(s)/node, %d batches x %d examples/node (wire %s, replicas %d)\n\n",
		spec.Name, shards, *fs.gpus, *fs.batches, *fs.batchSize, wire, replicas)
	tr, err := trainer.New(cfg)
	if err != nil {
		return err
	}
	defer tr.Close()
	set.Follow(tr.SetShardAddr)
	// The driver's control transport carries membership broadcasts (and
	// nothing else) to the shards.
	ctl := cluster.NewTCPTransport(set.Addrs(), spec.EmbeddingDim)
	defer ctl.Close()
	set.Follow(ctl.SetAddr)
	set.Broadcast(driver.Broadcaster{Shard: ctl.UpdateMembership, Trainer: tr.UpdateMembership})
	after(ctx, *addAfter, "add shard", set.Join)
	after(ctx, *removeAfter, "remove shard", set.Retire)
	if err := fs.resume(tr); err != nil {
		return err
	}
	load := func() (loadgen.Report, error) { return loadgen.Report{}, nil }
	if *lg {
		load = startLoadgen(ctx, set, spec.EmbeddingDim, loadgen.Config{Nodes: shards, Members: topo.Members, Data: data,
			Seed: *fs.seed + 777, Duration: *lgDuration, Concurrency: *lgConcurrency, BatchSize: *lgBatch})
	}

	wallStart := time.Now()
	runErr := tr.Run(ctx)
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}
	wall := time.Since(wallStart)
	lgRep, lgErr := load()
	if lost := set.FatalLoss(); lost != nil {
		tr.Close()
		return fmt.Errorf("training aborted: %w", lost)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "hps: interrupted; flushing checkpoint")
		return tr.Close()
	}
	fmt.Print(tr.Report().String())
	fmt.Printf("(driver wall time %v)\n", wall.Round(time.Millisecond))
	set.PrintLosses()
	fmt.Printf("ring: epoch %d, members %v, replicas %d\n", topo.Members.Epoch(), topo.MemberIDs(), replicas)
	if *lg {
		if lgErr != nil {
			return fmt.Errorf("loadgen: %w", lgErr)
		}
		fmt.Printf("\n%s", lgRep.String())
	}
	if err := fs.evaluate(tr, data); err != nil {
		return err
	}
	// Close before stopping the shards: the final flush goes over the wire.
	return tr.Close()
}

// ablateDriver is the driver-mode depth ablation: each depth gets its own
// shard processes over a fresh state directory under sup.Root, so no state
// leaks between sweep points and every depth pays the same real-socket costs.
func ablateDriver(fs *trainFlags, spec model.Spec, data dataset.Config, sup driver.Config) error {
	root := sup.Root
	return runAblate(fs, spec, data, func(depth int) (*trainer.Trainer, func(), error) {
		sup.Root = filepath.Join(root, fmt.Sprintf("ablate-%d", depth))
		set := driver.New(sup)
		if err := set.Start(false); err != nil {
			set.Stop()
			return nil, nil, err
		}
		cfg := fs.remoteConfig(spec, data, set, cluster.Topology{Nodes: sup.Shards, GPUsPerNode: *fs.gpus})
		cfg.MaxInFlight = depth
		cfg.CheckpointPath = ""
		tr, err := trainer.New(cfg)
		if err != nil {
			set.Stop()
			return nil, nil, err
		}
		set.Follow(tr.SetShardAddr)
		return tr, set.Stop, nil
	})
}

// startLoadgen runs cfg's query stream against the shards while they train
// and returns a func that waits for its report. Its own transport keeps
// serving traffic from queueing behind training pulls in the driver.
func startLoadgen(ctx context.Context, set *driver.Supervisor, dim int, cfg loadgen.Config) func() (loadgen.Report, error) {
	tp := cluster.NewTCPTransport(set.Addrs(), dim)
	set.Follow(tp.SetAddr)
	cfg.Transport = tp
	var rep loadgen.Report
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer tp.Close()
		rep, err = loadgen.Run(ctx, cfg)
	}()
	return func() (loadgen.Report, error) {
		<-done
		return rep, err
	}
}

// remoteConfig is the driver's trainer.Config: the flags' model and pipeline
// trained over topo against the supervised shards, over TCP.
func (f *trainFlags) remoteConfig(spec model.Spec, data dataset.Config, set *driver.Supervisor, topo cluster.Topology) trainer.Config {
	cfg := f.config(spec, data, topo)
	cfg.RemoteShards, cfg.ShardState = set.Addrs(), set.Dirs()
	cfg.WirePrecision, cfg.QuantizePush = *f.wirePrec, *f.quantPush
	// A crashed shard is gone for however long respawn + recovery takes; the
	// widened retry window is what lets in-flight batches ride a restart
	// instead of failing the run.
	cfg.RemoteRetry = cluster.RetryPolicy{Attempts: 10, Backoff: 50 * time.Millisecond}
	return cfg
}

// after runs f once d into the run, unless the run ends first (d <= 0: never).
func after(ctx context.Context, d time.Duration, what string, f func() error) {
	if d <= 0 {
		return
	}
	go func() {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "driver: %s: %v\n", what, err)
		}
	}()
}

// shardProc is one spawned `hps serve` child process. done is closed after
// the child has exited and been reaped; the reader goroutine owns Wait.
type shardProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

func (p *shardProc) Addr() string          { return p.addr }
func (p *shardProc) Pid() int              { return p.cmd.Process.Pid }
func (p *shardProc) Done() <-chan struct{} { return p.done }
func (p *shardProc) Exit() string          { return p.cmd.ProcessState.String() }
func (p *shardProc) Signal(sig os.Signal)  { p.cmd.Process.Signal(sig) }
func (p *shardProc) Kill()                 { p.cmd.Process.Kill() }

// shardSpawner is the driver's one real Spawner: it launches an `hps serve`
// child over the shard's state directory and waits for its ready line.
func shardSpawner(exe string, fs *trainFlags) driver.Spawner {
	return func(a driver.ShardArgs) (driver.Proc, error) {
		args := []string{"serve",
			"-addr", "127.0.0.1:0",
			"-shard", strconv.Itoa(a.ID),
			"-shards", strconv.Itoa(a.Shards),
			"-model", *fs.modelName,
			"-scale", fmt.Sprint(*fs.scale),
			"-cache-frac", fmt.Sprint(*fs.cacheFrac),
			"-seed", fmt.Sprint(*fs.seed),
			"-dir", a.Dir,
		}
		ids := make([]string, len(a.Members))
		for i, m := range a.Members {
			ids[i] = strconv.Itoa(m)
		}
		args = append(args, "-members", strings.Join(ids, ","), "-replicas", strconv.Itoa(a.Replicas))
		if a.Restore {
			args = append(args, "-restore")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("spawn shard %d: %w", a.ID, err)
		}
		p := &shardProc{cmd: cmd, done: make(chan struct{})}
		addrCh := make(chan string, 1)
		go func() {
			// The goroutine owns the pipe (and the final Wait) for the child's
			// lifetime, so the child never blocks on a full pipe.
			readReady(stdout, addrCh)
			cmd.Wait()
			close(p.done)
		}()
		select {
		case addr, ok := <-addrCh:
			if ok && addr != "" {
				p.addr = addr
				return p, nil
			}
			err = fmt.Errorf("shard %d exited before becoming ready", a.ID)
		case <-time.After(15 * time.Second):
			err = fmt.Errorf("shard %d did not become ready within 15s", a.ID)
		}
		cmd.Process.Kill()
		<-p.done
		return nil, err
	}
}

// readReady drains a shard's stdout: it delivers the address from the first
// ready line on addr, keeps reading to EOF, then closes addr.
func readReady(r io.Reader, addr chan<- string) {
	scanner := bufio.NewScanner(r)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.LastIndex(line, "addr="); i >= 0 && strings.HasPrefix(line, shardReadyPrefix) {
			select {
			case addr <- line[i+len("addr="):]:
			default:
			}
		}
	}
	close(addr)
}
