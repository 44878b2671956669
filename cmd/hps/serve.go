package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/hw"
	"hps/internal/memps"
	"hps/internal/serving"

	"hps/internal/ssdps"
)

// shardReadyPrefix starts the line a shard server prints on stdout once it
// is accepting connections; the driver scrapes it for the bound address.
const shardReadyPrefix = "hps-shard ready"

// parseMembers parses a comma-separated list of shard ids ("0,1,2"); an empty
// string means the shards 0..shards-1.
func parseMembers(s string, shards int) ([]int, error) {
	if s == "" {
		return cluster.Topology{Nodes: shards}.MemberIDs(), nil
	}
	parts := strings.Split(s, ",")
	ids := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad member id %q: %w", p, err)
		}
		if id < 0 || id >= cluster.MemberLimit {
			return nil, fmt.Errorf("member id %d outside [0, %d)", id, cluster.MemberLimit)
		}
		if slices.Contains(ids, id) {
			return nil, fmt.Errorf("member id %d repeated", id)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// runServe is the `hps serve` subcommand: host one MEM-PS shard (backed by
// its own SSD-PS) behind a TCP server, until SIGINT/SIGTERM. On shutdown the
// shard flushes its in-memory parameters to the SSD-PS, so a restart over
// the same -dir resumes from durable state.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:0", "address to listen on (port 0 picks a free port)")
		shard     = fs.Int("shard", 0, "id of the MEM-PS shard this process serves")
		shards    = fs.Int("shards", 1, "total number of MEM-PS shards in the deployment")
		modelName = fs.String("model", "A", "model being trained: A-E (scaled by -scale) or 'tiny'")
		scale     = fs.Int64("scale", defaultScale, "down-scaling factor applied to the paper models")
		cacheFrac = fs.Float64("cache-frac", 0.25, "MEM-PS cache capacity as a fraction of this shard's parameters")
		dir       = fs.String("dir", "", "SSD-PS directory (empty: a temporary one, removed on exit)")
		restore   = fs.Bool("restore", false, "recover the SSD-PS state already in -dir before serving")
		seed      = fs.Int64("seed", 1, "random seed (must match the driver's)")

		hotCache     = fs.Int("serve-hot-cache", 4096, "serving hot-key replica cache capacity (keys)")
		serveQueue   = fs.Int("serve-queue", 64, "serving admission-queue depth (requests beyond it are rejected as overloaded)")
		serveWorkers = fs.Int("serve-workers", 2, "serving scoring workers")
		serveBatch   = fs.Int("serve-batch", 512, "max examples coalesced into one scoring pass")

		members  = fs.String("members", "", "comma-separated shard ids the keys are placed over by rendezvous hashing (empty: 0..shards-1)")
		replicas = fs.Int("replicas", 1, "replication factor R: each key lives on its primary plus R-1 backups")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	spec, err := resolveSpec(*modelName, *scale)
	if err != nil {
		return err
	}
	memberIDs, err := parseMembers(*members, *shards)
	if err != nil {
		return err
	}
	if !slices.Contains(memberIDs, *shard) {
		return fmt.Errorf("shard %d is not among the members %v", *shard, memberIDs)
	}

	root := *dir
	if root == "" {
		if root, err = os.MkdirTemp("", fmt.Sprintf("hps-shard-%d-*", *shard)); err != nil {
			return err
		}
		defer os.RemoveAll(root)
	}

	profile := hw.DefaultGPUNode()
	dev, err := blockio.NewDevice(root, profile.SSD, nil)
	if err != nil {
		return err
	}
	defer dev.Close() // for the error paths; shutdown closes it after the final flush
	lru, lfu, ssdThreshold := cacheSizes(spec, spec.SparseParams/int64(*shards), *cacheFrac)
	store, err := ssdps.Open(dev, ssdps.Config{
		Dim:                     spec.EmbeddingDim,
		DiskUsageThresholdBytes: ssdThreshold,
	})
	if err != nil {
		return err
	}
	if *restore {
		// Crash restart: rebuild the key->file mapping from whatever the
		// previous incarnation flushed. The recovery report goes to stderr —
		// the driver passes stderr through, so operators (and the CI smoke
		// test) can see how much state survived.
		dropped, err := store.Recover()
		if err != nil {
			return fmt.Errorf("recover ssd-ps in %s: %w", root, err)
		}
		report := fmt.Sprintf("hps-shard %d: restored %d parameters from %s", *shard, store.Len(), root)
		if len(dropped) > 0 {
			// Parameter files a dying process left half-written (or damage):
			// left out whole, never read in part.
			report += fmt.Sprintf("; dropped %d extents", len(dropped))
			for _, d := range dropped {
				report += fmt.Sprintf(" (%v)", d)
			}
		}
		fmt.Fprintln(os.Stderr, report)
	}
	topo := cluster.Topology{Nodes: *shards, GPUsPerNode: 1, Replicas: *replicas,
		Members: cluster.NewMembership(cluster.NewRing(memberIDs))}
	// One shared peer transport: serving failover reads through it, the
	// replicator forwards and transfers through it, and membership updates
	// from the driver teach it the peer address book (the empty map — a
	// shard never knows peer addresses at boot).
	peerTr := cluster.NewTCPTransport(map[int]string{}, spec.EmbeddingDim)
	defer peerTr.Close()
	mem, err := memps.New(memps.Config{
		NodeID:     *shard,
		Dim:        spec.EmbeddingDim,
		Topology:   topo,
		Transport:  cluster.NoRoute{}, // a shard server answers; it never proxies peers
		Store:      store,
		LRUEntries: lru,
		LFUEntries: lfu,
		// The MEM-PS derives its per-node rng from Seed and NodeID exactly as
		// the in-process trainer does, so both modes initialize identically.
		Seed: *seed,
	})
	if err != nil {
		return err
	}

	// The serving tier is always armed: it costs two idle goroutines until a
	// driver started with serving enabled publishes the peer addresses and
	// dense parameters (predicts fail cleanly before that).
	serveCfg := serving.Config{
		NodeID:        *shard,
		Topology:      topo,
		Dim:           spec.EmbeddingDim,
		Hidden:        spec.HiddenLayers,
		Local:         mem,
		HotKeyEntries: *hotCache,
		MaxQueue:      *serveQueue,
		Workers:       *serveWorkers,
		CoalesceBatch: *serveBatch,
		Peers:         peerTr,
	}
	serveSrv, err := serving.New(serveCfg)
	if err != nil {
		return err
	}

	handler := serving.NewHandler(mem, serveSrv)
	repl := memps.NewReplicator(mem, peerTr, memps.ReplicatorConfig{})
	handler.Replicator = repl
	handler.Peers = peerTr

	// The dedup tracker persists its applied (client, seq) records next to
	// the SSD-PS: after a crash restart the reloaded log keeps a retried push
	// that was already applied (and acked) by the previous incarnation from
	// being merged a second time.
	seqs := cluster.NewSeqTracker()
	seqLogPath := filepath.Join(root, "seqlog")
	seqLog, replayed, err := cluster.OpenSeqLog(seqLogPath, seqs)
	if err != nil {
		return fmt.Errorf("open seq log: %w", err)
	}
	defer seqLog.Close()
	seqs.AttachLog(seqLog)
	handler.Seqs = seqs
	if replayed > 0 {
		fmt.Fprintf(os.Stderr, "hps-shard %d: replayed %d applied-push records from %s\n", *shard, replayed, seqLogPath)
	}

	srv, err := cluster.ServeTCPOptions(*addr, handler, cluster.ServerOptions{Seqs: seqs})
	if err != nil {
		return err
	}
	// The ready line is the driver's cue that the port is bound.
	fmt.Printf("%s shard=%d addr=%s\n", shardReadyPrefix, *shard, srv.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh

	start := time.Now()
	// Close before flushing: once the flush starts, no push may be applied
	// (and acked) that the flush would miss — an acked-but-unflushed update
	// would be silently lost on restart, because the client never resends a
	// push it got a reply for.
	closeErr := srv.Close()
	serveSrv.Close()
	// Flush the forward queue before stopping: a backup must see every delta
	// its primary acked, or the origin's dedup stamp would mask the loss
	// forever (the retry is acknowledged as a duplicate).
	if !repl.Drain(5 * time.Second) {
		fmt.Fprintf(os.Stderr, "hps-shard %d: replication queue did not drain\n", *shard)
	}
	repl.Close()
	if err := mem.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "hps-shard %d: flush: %v\n", *shard, err)
	}
	if err := dev.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hps-shard %d: %v\n", *shard, err)
	}
	// The flush made every applied push durable: compact the dedup log down
	// to its live window so the shard directory does not accrete one record
	// per push across incarnations.
	if _, err := seqs.CompactLog(); err != nil {
		fmt.Fprintf(os.Stderr, "hps-shard %d: compact seq log: %v\n", *shard, err)
	}
	// Sync the seq log last: every push acked before srv.Close returned has
	// its record appended, and fsyncing once at shutdown (not per push) is
	// what keeps the dedup log off the push hot path.
	if err := seqLog.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hps-shard %d: seq log: %v\n", *shard, err)
	}
	st := mem.TierStats()
	fmt.Fprintf(os.Stderr, "hps-shard %d: served %d pulls (%d keys) and %d pushes (%d keys); flushed in %v\n",
		*shard, st.Pulls, st.KeysPulled, st.Pushes, st.KeysPushed, time.Since(start).Round(time.Millisecond))
	if sv := serveSrv.ServingStats(); sv.Requests > 0 || sv.Rejected > 0 {
		fmt.Fprintf(os.Stderr, "hps-shard %d: served %d predicts (%d examples, %d rejected), cache hit rate %.1f%%\n",
			*shard, sv.Requests, sv.Examples, sv.Rejected, 100*sv.CacheHitRate())
	}
	if rs := repl.Stats(); rs.Forwarded > 0 || rs.Transferred > 0 {
		fmt.Fprintf(os.Stderr, "hps-shard %d: replicated %d blocks (%d keys, %d errors, max lag %d blocks); transferred %d blocks (%d keys)\n",
			*shard, rs.Forwarded, rs.ForwardedKeys, rs.Errors, rs.MaxPending, rs.Transferred, rs.TransferredKeys)
	}
	return closeErr
}
