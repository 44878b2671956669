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

	"hps/internal/cluster"
	"hps/internal/serving"
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
// the same -dir resumes from durable state (serving.Shard.Close).
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

	lru, lfu, ssdThreshold := cacheSizes(spec, spec.SparseParams/int64(*shards), *cacheFrac)
	sh, err := serving.OpenShard(serving.ShardConfig{
		Addr:   *addr,
		NodeID: *shard,
		Topology: cluster.Topology{Nodes: *shards, GPUsPerNode: 1, Replicas: *replicas,
			Members: cluster.NewMembership(cluster.NewRing(memberIDs))},
		Dim:               spec.EmbeddingDim,
		Hidden:            spec.HiddenLayers,
		Dir:               *dir,
		Restore:           *restore,
		LRUEntries:        lru,
		LFUEntries:        lfu,
		SSDThresholdBytes: ssdThreshold,
		Seed:              *seed,
		HotKeyEntries:     *hotCache,
		MaxQueue:          *serveQueue,
		Workers:           *serveWorkers,
		CoalesceBatch:     *serveBatch,
	})
	if err != nil {
		return err
	}
	if *restore {
		// The recovery report goes to stderr — the driver passes stderr
		// through, so operators (and the CI smoke test) can see how much
		// state survived.
		report := fmt.Sprintf("hps-shard %d: restored %d parameters from %s", *shard, sh.Mem.Store().Len(), sh.Dir)
		if len(sh.Dropped) > 0 {
			report += fmt.Sprintf("; dropped %d extents", len(sh.Dropped))
			for _, d := range sh.Dropped {
				report += fmt.Sprintf(" (%v)", d)
			}
		}
		fmt.Fprintln(os.Stderr, report)
	}
	if sh.Replayed > 0 {
		fmt.Fprintf(os.Stderr, "hps-shard %d: replayed %d applied-push records from %s\n",
			*shard, sh.Replayed, filepath.Join(sh.Dir, "seqlog"))
	}
	// The ready line is the driver's cue that the port is bound.
	fmt.Printf("%s shard=%d addr=%s\n", shardReadyPrefix, *shard, sh.TCP.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh

	start := time.Now()
	closeErr := sh.Close()
	st := sh.Mem.TierStats()
	fmt.Fprintf(os.Stderr, "hps-shard %d: served %d pulls (%d keys) and %d pushes (%d keys); flushed in %v\n",
		*shard, st.Pulls, st.KeysPulled, st.Pushes, st.KeysPushed, time.Since(start).Round(time.Millisecond))
	if sv := sh.Serving.ServingStats(); sv.Requests > 0 || sv.Rejected > 0 {
		fmt.Fprintf(os.Stderr, "hps-shard %d: served %d predicts (%d examples, %d rejected), cache hit rate %.1f%%\n",
			*shard, sv.Requests, sv.Examples, sv.Rejected, 100*sv.CacheHitRate())
	}
	if rs := sh.Replicator.Stats(); rs.Forwarded > 0 || rs.Transferred > 0 {
		fmt.Fprintf(os.Stderr, "hps-shard %d: replicated %d blocks (%d keys, %d errors, max lag %d blocks); transferred %d blocks (%d keys)\n",
			*shard, rs.Forwarded, rs.ForwardedKeys, rs.Errors, rs.MaxPending, rs.Transferred, rs.TransferredKeys)
	}
	if closeErr != nil {
		return fmt.Errorf("shard %d shutdown: %w", *shard, closeErr)
	}
	return nil
}
